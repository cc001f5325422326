"""Benchmark of the moduli-traces CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

One client drives the CLI in a closed loop: each request waits for the
previous one, and one worker process runs at a time, without threads.  The
seed only picks the generated arguments (see workloads.py).  Run from any
directory; the package is taken from src/ next to this directory.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
traced and untraced passes over the same jobs alternately: the first traced
pass gives the per-layer metrics (their counts repeat exactly for a seed), and
the pass times give the tracing overhead.  Every output is checked against the
fixture in fixture/.

Prints every metric by name with its unit, then a detail line (environment,
tail percentile, failures), then, last, one JSON line with the keys correct,
attempted, failed and metrics.  Exit status: 0 when every output is correct,
1 on any mismatch or worker failure, 2 on bad usage or when src/ is missing.
--smoke shrinks every input for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from workloads import BENCH, ROOT, SRC, WORKLOADS, FIXTURE_TRACES, Oracle, episode_job, rounds

WORK = ROOT / ".bench_work"
HARD_LIMIT_S = 170.0  # the whole run, set-up included, ends before this
SETUP_PROBES = 10  # extra set-ups per run, so setup_s is a median of several
ROUND_CAP = 60  # more rounds than a full-size run can finish

END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_rps": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> (unit, better).  "calls" count spans; "s" is inclusive time.
PER_LAYER = {
    "cm_eval.horner_in_q.calls": ("count", "lower"),
    "cm_eval.horner_in_q.s": ("s", "lower"),
    "cm_eval.horner_in_q.steps": ("count", "lower"),
    "cm_eval.horner_in_q.bit_steps": ("count", "lower"),
    "cm_eval.cm_point_q.calls": ("count", "lower"),
    "cm_eval.cm_point_q.s": ("s", "lower"),
    "cm_eval.horner_poly.calls": ("count", "lower"),
    "cm_eval.horner_poly.s": ("s", "lower"),
    "cm_eval.horner_poly.steps": ("count", "lower"),
    "cm_eval.plan_precision.calls": ("count", "lower"),
    "cm_eval.plan_precision.s": ("s", "lower"),
    "cm_eval.plan_precision.bits_max": ("bits", "lower"),
    "cm_eval.plan_precision.terms_max": ("count", "lower"),
    "cm_eval.round_to_integer.calls": ("count", "lower"),
    "cm_eval.round_to_integer.s": ("s", "lower"),
    "cm_eval.round_to_integer.escalations": ("count", "lower"),
    "cm_eval.escalation_ratio": ("ratio", "lower"),
    "traces.trace.calls": ("count", "lower"),
    "traces.trace.s": ("s", "lower"),
    "traces.trace.self_s": ("s", "lower"),
    "traces.trace.computed": ("count", "lower"),
    "traces.memo_ratio": ("ratio", "higher"),
    "traces.value_reuse_ratio": ("ratio", "higher"),
    "traces.b_coeff.calls": ("count", "lower"),
    "traces.b_coeff.s": ("s", "lower"),
    "traces.hecke_apply.calls": ("count", "lower"),
    "traces.hecke_apply.s": ("s", "lower"),
    "qforms.enumerate_classes.calls": ("count", "lower"),
    "qforms.enumerate_classes.s": ("s", "lower"),
    "qforms.enumerate_classes.classes": ("count", "lower"),
    "qforms.optimize_height.calls": ("count", "lower"),
    "qforms.optimize_height.s": ("s", "lower"),
    "qforms.class_reps.calls": ("count", "lower"),
    "qforms.class_reps.s": ("s", "lower"),
    "qseries.eta_quotient_f.calls": ("count", "lower"),
    "qseries.eta_quotient_f.s": ("s", "lower"),
    "hauptmodul.build_hauptmodul.calls": ("count", "lower"),
    "hauptmodul.build_hauptmodul.s": ("s", "lower"),
    "hauptmodul.build_hauptmodul.max_order": ("count", "lower"),
    "hauptmodul.faber_polys.calls": ("count", "lower"),
    "hauptmodul.faber_polys.s": ("s", "lower"),
    "cache.load.s": ("s", "lower"),
    "cache.load.records": ("count", "higher"),
    "cache.get.calls": ("count", "lower"),
    "cache.get.hits": ("count", "higher"),
    "cache.put.calls": ("count", "lower"),
    "cache.put.s": ("s", "lower"),
    "cache.bytes_written": ("bytes", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "layer.qseries.self_s": ("s", "lower"),
    "layer.hauptmodul.self_s": ("s", "lower"),
    "layer.qforms.self_s": ("s", "lower"),
    "layer.cm_eval.self_s": ("s", "lower"),
    "layer.traces.self_s": ("s", "lower"),
    "layer.cache.self_s": ("s", "lower"),
    "layer.cli.self_s": ("s", "lower"),
    "tracing.throughput_rps_traced": ("1/s", "higher"),
    "tracing.throughput_rps_untraced": ("1/s", "higher"),
    "tracing.overhead_frac": ("ratio", "lower"),
}

# per-layer metrics that count work: they repeat exactly between runs of one seed
EXACT_COUNTS = tuple(
    k for k, (unit, _) in PER_LAYER.items()
    if unit in ("count", "bits", "bytes") and not k.startswith("tracing.")
)


class WorkerFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("MODULI_TRACES_PREC_BITS", None)  # measure the default precision plan
    return env


def environment() -> dict:
    try:
        import mpmath
        import mpmath.libmp

        mp = {"mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND}
    except ImportError:
        mp = {"mpmath": None, "mpmath_backend": None}
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        **mp,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,  # recorded only: a line count is not a performance metric
    }


def tail(values: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Runner:
    def __init__(self, workload, seed, seconds, smoke, work):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.work = work
        self.deadline = monotonic() + HARD_LIMIT_S
        self.setups: list[float] = []
        self.count = 0

    def worker(self, *, mode, trace, rounds_, seconds=None, spans=None):
        """Start one fresh worker, time its set-up, wait for it; returns (dir, result)."""
        self.count += 1
        tag = f"w{self.count}"
        wdir = self.work / tag
        spec = {
            "mode": mode,
            "trace": trace,
            "dir": str(wdir),
            "rounds": rounds_,
            "seconds": seconds,
            "cache_fixture": str(FIXTURE_TRACES) if self.wl.name == "table-warm" else None,
            "result": str(self.work / f"{tag}.result.json"),
            "spans": spans or str(self.work / f"{tag}.spans.jsonl.gz"),
        }
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        t0 = monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                                stdout=subprocess.PIPE, env=child_env(), cwd=str(ROOT),
                                text=True, start_new_session=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], max(0.0, self.deadline - monotonic()))
            line = proc.stdout.readline() if ready else ""
            setup = monotonic() - t0
            proc.communicate(timeout=max(0.0, self.deadline - monotonic()))
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"worker {tag} passed the {HARD_LIMIT_S:.0f} s limit") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if line.strip() != "READY" or proc.returncode != 0:
            raise WorkerFailed(f"worker {tag} failed (exit {proc.returncode})")
        self.setups.append(setup)
        if mode == "probe":
            return wdir, None
        return wdir, json.loads(Path(spec["result"]).read_text())

    def probes(self):
        for _ in range(SETUP_PROBES):
            self.worker(mode="probe", trace=False, rounds_=[[]])

    def jobs_per_pass(self) -> list[list[dict]]:
        if self.wl.shape == "episodes":
            return [[episode_job(self.wl.name, self.seed, self.smoke)]]
        return rounds(self.wl.name, self.seed, self.smoke, 1)

    def measure(self) -> list[tuple[dict, dict, Path]]:
        """Untraced run: (job, job result, worker dir, worker result) per job executed."""
        self.probes()
        done = []
        if self.wl.shape == "episodes":
            job = self.jobs_per_pass()[0][0]
            start = monotonic()
            while True:
                wdir, res = self.worker(mode="run", trace=False, rounds_=[[job]])
                done += [(job, r, wdir, res) for r in res["jobs"]]
                if monotonic() - start >= self.seconds:
                    break
        else:
            plan = rounds(self.wl.name, self.seed, self.smoke, ROUND_CAP)
            wdir, res = self.worker(mode="run", trace=False, rounds_=plan, seconds=self.seconds)
            flat = [job for rnd in plan for job in rnd]
            done += [(flat[r["index"]], r, wdir, res) for r in res["jobs"]]
        return done

    def traced(self, spans_path: Path):
        """Alternate traced and untraced passes over the same jobs, traced first."""
        plan = self.jobs_per_pass()
        flat = [job for rnd in plan for job in rnd]
        passes = []
        start = monotonic()
        traced = True
        while True:
            first = traced and not passes
            wdir, res = self.worker(mode="run", trace=traced, rounds_=plan,
                                    spans=str(spans_path) if first else None)
            passes.append((traced, [(flat[r["index"]], r, wdir, res) for r in res["jobs"]], res))
            if not traced and monotonic() - start >= self.seconds:
                break
            traced = not traced
        return passes


def check(oracle: Oracle, job: dict, res: dict, wdir: Path) -> tuple[int, int, list[str]]:
    """(requests attempted, requests failed, notes) for one executed job."""
    notes = []
    argv = " ".join(job["argv"])
    if "boundary" in job:
        out = wdir / job["out"]
        if job["argv"][0] == "trace-table":
            want = len(oracle.expected_ds(job["p"], job["dmax"]))
            if res["rc"] != 0 or not out.exists():
                return want, want, [f"{argv}: exit {res['rc']}"]
            want, bad = oracle.table_failures(job["p"], job["dmax"], out.read_text())
            cache = wdir / job["cache"]
            bad += oracle.cache_failures(cache.read_text()) if cache.exists() else want
        else:
            want = len(oracle.identity_cells(job["dmax"]))
            if res["rc"] not in (0, 1) or not out.exists():
                return want, want, [f"{argv}: exit {res['rc']}"]
            want, bad = oracle.identity_failures(job["dmax"], out.read_text())
        if len(res["latencies_s"]) != want:
            notes.append(f"{argv}: {len(res['latencies_s'])} request boundaries for {want} requests")
            bad = want
        return want, min(bad, want), notes
    if res["rc"] != 0:
        return 1, 1, [f"{argv}: exit {res['rc']}"]
    if job.get("capture") == "digest":
        ok = oracle.series_ok(job["p"], job["terms"], res.get("digest"))
    else:
        _, bad = oracle.table_failures(job["p"], job["dmax"], (wdir / res["stdout_file"]).read_text())
        ok = bad == 0 and res["cache_bytes"] == 0
    if not ok:
        notes.append(f"{argv}: output differs from the fixture")
    return 1, int(not ok), notes


def tally(oracle, executed):
    attempted = failed = 0
    notes = []
    for job, res, wdir, _ in executed:
        a, f, n = check(oracle, job, res, wdir)
        attempted += a
        failed += f
        notes += n
    return attempted, failed, notes


def rss_mb(worker_results, subprocess_jobs: bool) -> float:
    key = "child_rss_kb" if subprocess_jobs else "rss_kb"
    return max(r[key] for r in worker_results) * 1024 / 1e6


def end_to_end(runner: Runner, executed) -> tuple[dict, dict]:
    """Throughput is requests over busy time for the whole run; the detail line
    also gives it per window (an episode or a round)."""
    windows: dict[tuple, list] = {}
    for _, r, _, w in executed:
        windows.setdefault((id(w), r["round"]), []).append(r)
    rates = [sum(len(r["latencies_s"]) for r in jobs) / sum(r["busy_s"] for r in jobs)
             for jobs in windows.values()]
    latencies = [x for _, r, _, _ in executed for x in r["latencies_s"]]
    busy = sum(r["busy_s"] for _, r, _, _ in executed)
    workers = {id(w): w for _, _, _, w in executed}.values()
    subproc = any(job.get("subprocess") for job, _, _, _ in executed)
    tail_s, beyond = tail(latencies, runner.wl.tail_percentile)
    values = {
        "setup_s": statistics.median(runner.setups),
        "throughput_rps": len(latencies) / busy,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": rss_mb(workers, subproc),
    }
    detail = {
        "requests": len(latencies),
        "window_rps": rates,
        "busy_s": busy,
        "tail": {"percentile": runner.wl.tail_percentile, "samples": len(latencies), "beyond": beyond},
        "setup_samples": len(runner.setups),
    }
    if beyond < 10:
        detail["tail"]["note"] = "fewer than 10 samples beyond the tail percentile"
    return {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}, detail


def per_layer(passes) -> tuple[dict, dict]:
    _, first_jobs, first = next(p for p in passes if p[0])
    layers = first["layers"]
    sums, maxima = layers["sum"], layers["max"]
    notes = list(layers["notes"])

    def get(key):
        return sums.get(key, maxima.get(key, 0))

    def ratio(num, den):
        return num / den if den else 0.0

    def rps(traced):
        vals = [sum(len(r["latencies_s"]) for _, r, _, _ in jobs) / sum(r["busy_s"] for _, r, _, _ in jobs)
                for t, jobs, _ in passes if t == traced]
        return statistics.median(vals)

    # a ratio whose denominator span was not called is reported as 0
    trace_calls, poly_calls = get("traces.trace.calls"), get("cm_eval.horner_poly.calls")
    derived = {
        "cm_eval.escalation_ratio": ratio(get("cm_eval.round_to_integer.escalations"),
                                          get("cm_eval.round_to_integer.calls")),
        "traces.memo_ratio": 1 - ratio(get("traces.trace.computed"), trace_calls) if trace_calls else 0.0,
        "traces.value_reuse_ratio": 1 - ratio(get("cm_eval.horner_in_q.calls"), poly_calls) if poly_calls else 0.0,
        "cache.bytes_written": sum(r["cache_bytes"] for _, r, _, _ in first_jobs),
        "tracing.throughput_rps_traced": rps(True),
        "tracing.throughput_rps_untraced": rps(False),
    }
    derived["tracing.overhead_frac"] = 1 - derived["tracing.throughput_rps_traced"] / derived["tracing.throughput_rps_untraced"]
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        value = derived[name] if name in derived else get(name)
        span = name.rsplit(".", 1)[0]
        if name not in derived and not span.startswith("layer.") and f"{span}.calls" not in sums:
            note = f"{span}: not called on this workload, its metrics are 0"
            if note not in notes:
                notes.append(note)
        metrics[name] = {"value": int(value) if name in EXACT_COUNTS else value, "unit": unit}
    passes_t = sum(1 for t, _, _ in passes if t)
    return metrics, {"passes": {"traced": passes_t, "untraced": len(passes) - passes_t}, "notes": notes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    args = ap.parse_args(argv)
    if not (SRC / "moduli_traces" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    oracle = Oracle()
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{stem}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, args.seconds, args.smoke, work)
    try:
        if args.trace:
            spans_path = results / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
            passes = runner.traced(spans_path)
            executed = [x for _, jobs, _ in passes for x in jobs]
            metrics, detail = per_layer(passes)
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            executed = runner.measure()
            metrics, detail = end_to_end(runner, executed)
        attempted, failed, notes = tally(oracle, executed)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first_job = executed[0][0]
    detail.update({
        "workload": args.workload,
        "why": runner.wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "arguments": first_job["argv"] if runner.wl.shape == "episodes" else "level x size rounds",
        "failed_frac": failed / attempted,
        "check_notes": notes,
        "environment": environment(),
    })
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (results / f"{stem}.json").write_text(json.dumps({"detail": detail, **result}, indent=1))
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>16.6f} {m['unit']}")
    print(f"{'failed_frac':<40} {failed / attempted:>16.6f} ({failed} of {attempted})")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
