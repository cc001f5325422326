"""Regenerate the benchmark's reference fixture.

    PYTHONPATH=src python3 bench/make_fixture.py

fixture/traces.jsonl holds the certified traces t^(p)(d) for every admissible
d up to workloads.FIXTURE_DMAX, in the JSONL format of TraceCache, so the
same file is the oracle of the cold workloads and the prefilled cache of
table-warm.  Each value is computed on the default path and accepted only if
an independent recomputation agrees: brute-force class enumeration at twice
the bits and terms, with the memo off.

fixture/series.json holds, per level, the digest of the `hauptmodul` output
for every --terms value the series workload can draw.  The window-512 prefix
of the largest build is cross-checked against a separate build at window 512.
"""

from __future__ import annotations

import json
import sys

from workloads import (
    FIXTURE_DMAX,
    FIXTURE_SERIES,
    FIXTURE_SERIES_TERMS,
    FIXTURE_TRACES,
    LEVELS,
    series_digest,
)

from moduli_traces.arith import PrimeLevel, is_admissible
from moduli_traces.cm_eval import PrecisionContext
from moduli_traces.hauptmodul import build_hauptmodul
from moduli_traces.traces import trace


def make_traces() -> list[str]:
    lines = []
    for p in LEVELS:
        level = PrimeLevel(p)
        for d in range(1, FIXTURE_DMAX[p] + 1):
            if not is_admissible(d, level):
                continue
            rec = trace(level, 1, d)
            check = trace(
                level, 1, d,
                ctx0=PrecisionContext(bits=2 * rec.bits, terms=2 * rec.terms),
                method="brute", memo=False,
            )
            if check.value != rec.value:
                raise SystemExit(f"cross-check failed at p={p} d={d}: {rec.value} vs {check.value}")
            lines.append(json.dumps({"p": p, "D": 1, "d": d, "t": str(rec.value),
                                     "bits": rec.bits, "terms": rec.terms, "method": rec.method}))
        print(f"p={p}: traces for d <= {FIXTURE_DMAX[p]} cross-checked", file=sys.stderr)
    return lines


def make_series() -> dict:
    out = {}
    top = max(FIXTURE_SERIES_TERMS)
    for p in LEVELS:
        level = PrimeLevel(p)
        series = build_hauptmodul(level, top + 1).series
        small = build_hauptmodul(level, 512).series
        if any(series.coeff(n) != small.coeff(n) for n in range(-1, 512)):
            raise SystemExit(f"window cross-check failed at p={p}")
        out[str(p)] = {
            str(n): series_digest((k, series.coeff(k)) for k in range(-1, n + 1))
            for n in FIXTURE_SERIES_TERMS
        }
        print(f"p={p}: series digests for terms <= {top}", file=sys.stderr)
    return out


def main() -> int:
    series = make_series()
    lines = make_traces()
    FIXTURE_TRACES.parent.mkdir(exist_ok=True)
    FIXTURE_TRACES.write_text("\n".join(lines) + "\n")
    FIXTURE_SERIES.write_text(json.dumps(series, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
