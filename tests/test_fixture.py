"""The benchmark's fixture generator still runs against the package.

bench/make_fixture.py computes every trace on the default path and checks it
against brute-force enumeration at doubled bits and terms, through
`trace(..., ctx0=, method="brute", memo=False)` and `TraceRecord.method`.
Regenerating the d <= 100 prefix must reproduce bench/fixture/traces.jsonl
byte for byte, which also pins the default plan's bits and terms.
"""

import importlib
from pathlib import Path

import pytest

from moduli_traces import hauptmodul

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def make_fixture(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    module = importlib.import_module("make_fixture")
    monkeypatch.setattr(module, "FIXTURE_DMAX", {p: 100 for p in module.LEVELS})
    monkeypatch.setattr(hauptmodul, "_STORE", {})  # every series and Faber list built afresh
    return module


def test_regenerated_prefix_matches_fixture(make_fixture):
    fixture = set((BENCH / "fixture" / "traces.jsonl").read_text().splitlines())
    lines = make_fixture.make_traces()
    assert len(lines) == 153
    assert [line for line in lines if line not in fixture] == []
