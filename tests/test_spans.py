"""The benchmark's tracer still binds to the package.

bench/spans.py wraps package functions by name and reads their arguments by
parameter name.  A renamed parameter only adds a note and leaves its counter at
zero, which bench/test_bench.py does not see.  Tracer.install() rebinds module
globals, so the traced commands run in a fresh interpreter; bench/ is only
read, and -B keeps it free of bytecode files.  Traces evaluate CM values with
cm_eval.eta_hauptmodul, so the script calls the Horner cross-check
cm_eval.horner_in_q once itself, through the name the tracer rebinds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from moduli_traces import traces

BENCH = Path(__file__).resolve().parents[1] / "bench"

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from spans import Tracer
tracer = Tracer()
tracer.install()
from moduli_traces import cli
work = sys.argv[2]
codes = [
    cli.main(["trace-table", "--p", "2", "--dmax", "60", "--cache", work + "/c.jsonl",
              "--out", work + "/t.csv"]),
    cli.main(["verify", "coeff-identities", "--p", "13", "--ell", "3", "--Dmax", "4",
              "--dmax", "30", "--out", work + "/v.json"]),
]
from moduli_traces import cm_eval
from moduli_traces.qseries import TruncatedLaurentSeries
cm_eval.horner_in_q(TruncatedLaurentSeries(-1, [1, 0, 0]),
                    cm_eval.cm_point_q((1, 0, 1), 128), 1, 128)
summary = tracer.summary()
print(json.dumps({"codes": codes, "notes": tracer.notes, **summary["sum"], **summary["max"]}))
"""

COUNTS = (
    "cm_eval.horner_in_q.steps",
    "cm_eval.horner_poly.steps",
    "cm_eval.plan_precision.bits_max",
    "qforms.enumerate_classes.classes",
    "hauptmodul.build_hauptmodul.max_order",
)


def test_spans_bind_on_a_cold_table_and_identity_grid(tmp_path):
    src = Path(traces.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    res = subprocess.run([sys.executable, "-B", "-c", SCRIPT, str(BENCH), str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0]
    assert out["notes"] == []
    assert {k: out.get(k, 0) > 0 for k in COUNTS} == dict.fromkeys(COUNTS, True)
    # the direct call above is the only one: neither command uses Horner in q
    assert out["cm_eval.horner_in_q.calls"] == 1
