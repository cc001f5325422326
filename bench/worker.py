"""One benchmark worker: a fresh process that sets up, prints READY, runs its
jobs in a closed loop and writes a result file.

    python3 bench/worker.py SPEC.json

Set-up is everything before READY: interpreter start, importing the package,
copying the cache fixture and, in a traced worker, installing the spans.  The
parent times set-up from process start to READY.  A job is one CLI command,
run in this process through moduli_traces.cli.main, or as a fresh process
through cli_entry.py.  The next job starts only when the previous one ended.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    work = Path(spec["dir"])
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    if spec.get("cache_fixture"):
        shutil.copyfile(spec["cache_fixture"], "cache.jsonl")
        os.chmod("cache.jsonl", 0o444)  # read-only: a write on the read path fails the request

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    import moduli_traces.cli as cli  # imports every layer

    marks: list[float] = []
    boundaries = {tuple(job["boundary"]) for rnd in spec["rounds"] for job in rnd if job.get("boundary")}
    for module, attr in boundaries:
        _install_boundary(sys.modules[module], attr, marks, tracer)

    print("READY", flush=True)
    if spec["mode"] == "probe":
        return 0

    results, child_spans = [], []
    start = perf_counter()
    for number, rnd in enumerate(spec["rounds"]):
        for job in rnd:
            results.append(_run_job(job, len(results), cli, marks, tracer, child_spans))
            results[-1]["round"] = number
        if spec["seconds"] is not None and perf_counter() - start >= spec["seconds"]:
            break

    out = {
        "jobs": results,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "child_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        from spans import merge_summaries, write_spans

        out["layers"] = merge_summaries([tracer.summary()] + [s for s, _ in child_spans])
        groups = [("worker", tracer.span_records())]
        groups += [(f"request-{i}", recs) for i, (_, recs) in enumerate(child_spans)]
        write_spans(spec["spans"], groups)
    Path(spec["result"]).write_text(json.dumps(out))
    return 0


def _install_boundary(module, attr, marks, tracer):
    """Mark the end of one request each time `module.attr` returns."""
    inner = getattr(module, attr)

    def boundary(*args, **kwargs):
        result = inner(*args, **kwargs)
        marks.append(perf_counter())
        if tracer is not None:
            tracer.request += 1
        return result

    setattr(module, attr, boundary)


def _run_job(job, index, cli, marks, tracer, child_spans):
    cache = Path(job.get("cache", "cache.jsonl"))
    cache_before = cache.stat().st_size if cache.exists() else 0
    res = {"index": index}
    if job.get("subprocess"):
        spans_file = f"spans-{index}.json" if tracer is not None else "-"
        cmd = [sys.executable, str(BENCH / "cli_entry.py"), spans_file, "--", *job["argv"]]
        t0 = perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=150)
        t1 = perf_counter()
        res["rc"] = proc.returncode
        stdout = proc.stdout
        if proc.returncode:
            sys.stderr.write(proc.stderr)
        if tracer is not None and Path(spans_file).exists():
            dump = json.loads(Path(spans_file).read_text())
            recs = [dict(r, request=tracer.request) for r in dump["spans"]]
            child_spans.append((dump["summary"], recs))
            os.remove(spans_file)
    else:
        marks.clear()
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                res["rc"] = cli.main(job["argv"])
        except Exception:  # a crash fails this job's requests; the run goes on
            traceback.print_exc()
            res["rc"] = "exception"
        t1 = perf_counter()
        stdout = buf.getvalue()
    res["busy_s"] = t1 - t0
    if job.get("boundary"):
        # request i ends when the boundary returns for the i-th time; the
        # command's remaining work after the last boundary goes to the last request
        ends = list(marks) or [t1]
        ends[-1] = t1
        res["latencies_s"] = [b - a for a, b in zip([t0] + ends[:-1], ends)]
    else:
        res["latencies_s"] = [t1 - t0]
        if tracer is not None:
            tracer.request += 1
    if job.get("capture") == "digest":
        from workloads import parse_series_text, series_digest

        try:
            res["digest"] = series_digest(parse_series_text(stdout))
        except ValueError:
            res["digest"] = None
    elif job.get("capture") == "file":
        res["stdout_file"] = f"stdout-{index}.txt"
        Path(res["stdout_file"]).write_text(stdout)
    res["cache_bytes"] = (cache.stat().st_size if cache.exists() else 0) - cache_before
    return res


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
