"""Command-line front end: computation, verification, and data export.

Exit codes are a stable scripting contract: 0 success / all checks pass,
1 verification failure, 2 invalid input, 3 precision failure, 4 I/O error.
Every big integer is rendered as a decimal string; floats appear only as
diagnostic residuals.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings

from .arith import PrimeLevel, is_admissible, splits, sqrt_classes
from .cm_eval import PrecisionFailure
from .hauptmodul import build_hauptmodul
from .qforms import enumerate_classes
from .traces import (
    MAX_COST,
    CacheIntegrityError,
    TraceCache,
    TraceMemo,
    TraceRecord,
    check_ell,
    check_grid,
    check_reach,
    check_square,
    trace,
    verify_coeff_identities,
    verify_congruence,
    verify_recurrence,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_PRECISION = 3
EXIT_IO = 4


def _fail(msg: str, code: int) -> int:
    print(json.dumps({"error": msg}), file=sys.stderr)
    return code


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(json.dumps({"warning": str(message)}), file=sys.stderr)


def _emit(obj: dict, fmt: str, rows: list[dict] | None = None, out: str | None = None,
          fieldnames: list[str] | None = None):
    """Render obj (text/json) or rows (csv, headed by fieldnames) to stdout or a file."""
    if fmt == "json":
        text = json.dumps(obj, indent=2)
    elif fmt == "csv":
        rows = rows if rows is not None else [obj]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames or list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue().rstrip("\n")
    else:
        text = "\n".join(f"{k}: {v}" for k, v in obj.items())
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_hauptmodul(args) -> int:
    level = PrimeLevel(args.p)
    if args.terms < 2:
        return _fail("terms must be >= 2", EXIT_BAD_INPUT)
    h = build_hauptmodul(level, args.terms + 1)
    series = h.series.truncate(args.terms + 1)
    if args.format == "json":
        print(series.to_json())
        return EXIT_OK
    coeffs = [series.coeff(n) for n in range(-1, args.terms + 1)]
    if args.format == "csv":
        _emit({}, "csv", rows=[{"n": n - 1, "coeff": str(c)} for n, c in enumerate(coeffs)])
    else:
        for n, c in enumerate(coeffs):
            print(f"q^{n - 1}: {c}")
    return EXIT_OK


def cmd_classes(args) -> int:
    level = PrimeLevel(args.p)
    classes = enumerate_classes(level, args.d)
    rows = [
        {
            "sl2_rep": str(c.sl2_rep),
            "line": str(c.line),
            "beta": c.beta,
            "eval_form": str(c.eval_form),
            "omega": c.omega,
        }
        for c in classes
    ]
    obj = {"p": level.p, "d": args.d, "count": len(rows), "classes": rows}
    _emit(obj, args.format, rows=rows)
    return EXIT_OK


def cmd_trace(args) -> int:
    level = PrimeLevel(args.p)
    with TraceCache(args.cache) as cache:
        rec = trace(level, args.D, args.d, cache=cache)
    obj = {
        "p": rec.p,
        "D": rec.D,
        "d": rec.d,
        "trace": str(rec.value),
        "bits": rec.bits,
        "terms": rec.terms,
        "method": rec.method,
        "residual": rec.residual,
        "cached": rec.cached,
    }
    _emit(obj, args.format)
    return EXIT_OK


def _table_ds(args, level: PrimeLevel) -> list[int]:
    """The admissible d <= --dmax, ascending.  A table is charged as a grid of
    degree-1 traces, the sum of its d, and refused past traces.MAX_COST at the
    first d that passes it, so the scan stops there whatever --dmax is."""
    ds, total = [], 0
    for d in range(1, args.dmax + 1):
        if is_admissible(d, level):
            total += d
            if total > MAX_COST:
                raise ValueError(f"trace-table --p {args.p} --dmax {args.dmax}: the sum of the "
                                 f"table's d passes the supported bound {MAX_COST} at d={d}")
            ds.append(d)
    return ds


def _helper_ds(level: PrimeLevel, ds: list[int], cache: TraceCache) -> list[int]:
    """The rows a helper process computes: each row missing from the cache
    whose smaller missing rows already sum, in sqrt(d), to half of the total,
    a row's cost growing about as sqrt(d).  No rows without os.fork or a
    second CPU."""
    affinity = getattr(os, "sched_getaffinity", None)
    if not hasattr(os, "fork") or affinity is None or len(affinity(0)) < 2:
        return []
    missing = [d for d in ds if cache.get(level.p, 1, d) is None]
    half, below = sum(map(math.sqrt, missing)) / 2, 0.0
    for i, d in enumerate(missing):
        if below >= half:
            return missing[i:]
        below += math.sqrt(d)
    return []


class _Helper:
    """A forked process that computes trace(level, 1, d) for each of `ds`, in
    ascending order, and sends each record back as one line of text.  It never
    opens the cache.  A row it does not deliver is computed by the caller."""

    def __init__(self, level: PrimeLevel, ds: list[int]):
        self.ds = set(ds)
        self.memo = TraceMemo(level)
        r, w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if self.pid == 0:
            try:  # whatever happens, leave without unwinding the CLI
                os.close(r)
                out = os.fdopen(w, "w", buffering=1)
                for d in ds:
                    rec = trace(level, 1, d)
                    out.write(f"{d} {rec.value} {rec.bits} {rec.terms} {rec.class_count} "
                              f"{rec.residual!r}\n")
            finally:
                os._exit(0)
        os.close(w)
        self.lines = os.fdopen(r)

    def memo_for(self, d: int) -> TraceMemo | None:
        """A memo holding the record of d if the helper delivered it, else None.
        The lines come in the order of `ds`, so d must be its next row."""
        if d not in self.ds or self.lines.closed:
            return None
        line = self.lines.readline()
        fields = line.split()
        if not line.endswith("\n") or int(fields[0]) != d:
            self.lines.close()  # the helper failed or died: the rest is computed here
            return None
        value, bits, terms, count = map(int, fields[1:5])
        self.memo.records[(1, d)] = TraceRecord(self.memo.level.p, 1, d, value, bits, terms,
                                                "gkz", count, float(fields[5]))
        return self.memo

    def close(self):
        self.lines.close()  # a helper still running fails at its next line and exits
        os.waitpid(self.pid, 0)


def cmd_trace_table(args) -> int:
    level = PrimeLevel(args.p)
    ds = _table_ds(args, level)
    rows = []
    with TraceCache(args.cache) as cache:
        upper = _helper_ds(level, ds, cache)
        try:
            helper = _Helper(level, upper) if upper else None
        except OSError:  # no pipe or process to spare: this process computes every row
            helper = None
        try:
            for d in ds:
                rec = trace(level, 1, d, cache=cache, memo=helper and helper.memo_for(d))
                rows.append(
                    {
                        "d": d,
                        "beta_count": len(sqrt_classes(d, level)),
                        "class_count": rec.class_count,
                        "trace": str(rec.value),
                    }
                )
        finally:
            if helper:
                helper.close()
    obj = {"p": level.p, "dmax": args.dmax, "rows": rows}
    _emit(obj, args.format, rows=rows, out=args.out, fieldnames=["d", "beta_count", "class_count", "trace"])
    return EXIT_OK


def _grid(args, level: PrimeLevel, n: int, D: int, degrees, keep=lambda d: True) -> list[int]:
    """The admissible d <= --dmax that keep accepts, ascending.  check_reach
    first checks the largest of them at (n, D), found by a downward scan from
    --dmax, so a grid past a bound is refused before it is built.  Then
    traces.check_grid refuses the grid if its checks, one per d and sqrt(D) in
    `degrees`, are charged past traces.MAX_COST; `degrees` is read only after
    check_reach has bounded D."""
    top = next((d for d in range(args.dmax, 0, -1) if is_admissible(d, level) and keep(d)), None)
    if top is None:
        return []
    check_reach(args.ell, n, top, D)
    grid = [d for d in range(1, top + 1) if is_admissible(d, level) and keep(d)]
    try:
        check_grid(args.ell, n, grid, [m * m for m in degrees])
    except ValueError as exc:
        raise ValueError(f"verify {args.kind} --p {args.p} --ell {args.ell} --dmax {args.dmax}: "
                         f"{exc}") from None
    return grid


def cmd_verify(args) -> int:
    level = PrimeLevel(args.p)
    ell = args.ell
    check_ell(level, ell)
    memo = TraceMemo(level)  # the checks at d and ell^2 d of a grid share traces
    if args.kind == "coeff-identities":
        # D runs over the squares m^2 <= Dmax; with no D or no d there is no check
        m_max = math.isqrt(max(args.Dmax, 0))
        grid = _grid(args, level, 1, m_max * m_max, range(1, m_max + 1)) if m_max else []
        D_list = [m * m for m in range(1, m_max + 1)] if grid else []
        reports = [verify_coeff_identities(level, ell, D_list, grid)]
    elif args.n < 1:
        return _fail(f"n must be >= 1, got {args.n}", EXIT_BAD_INPUT)
    elif args.kind == "congruence":
        ds = [args.d] if args.d is not None else _grid(
            args, level, args.n, 1, (1,), lambda d: splits(ell, d))
        reports = [verify_congruence(level, ell, d, args.n, memo) for d in ds]
    else:
        check_square(args.D)
        ds = [args.d] if args.d is not None else _grid(args, level, args.n, args.D,
                                                       (math.isqrt(args.D),))
        reports = [verify_recurrence(level, ell, args.D, d, args.n, memo) for d in ds]
    ok = all(r["ok"] for r in reports)
    obj = {"kind": args.kind, "ok": ok, "reports": reports}
    _emit(obj, args.format, out=args.out)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_cache(args) -> int:
    if args.action == "verify" and not os.path.exists(args.cache):
        # a mistyped path must not pass the audit with nothing checked
        return _fail(f"cache verify: no cache file at {args.cache}", EXIT_IO)
    cache = TraceCache(args.cache)
    if args.action == "stats":
        _emit(cache.stats(), args.format)
        return EXIT_OK
    report = cache.verify()
    _emit(report, args.format)
    return EXIT_OK if report["ok"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser


def _add_common(sp, formats=("text", "json", "csv"), cache_help=None):
    sp.add_argument("--format", choices=formats, default=formats[0])
    sp.add_argument("--cache", default="./traces-cache.jsonl", help=cache_help)


# what each verify kind reads besides --p, --ell, --dmax, --out, --format, --cache
VERIFY_FLAGS = {
    "congruence": {"n": 1, "d": None},
    "recurrence": {"n": 1, "d": None, "D": 1},
    "coeff-identities": {"Dmax": 16},
}


class _Parser(argparse.ArgumentParser):
    """Reports a flag error as one {"error": ...} stderr line, exit 2; subparsers inherit it.

    Each parser rejects the arguments it does not know, so the message names
    the subcommand rather than the root program.
    """

    def error(self, message):
        self.exit(EXIT_BAD_INPUT, json.dumps({"error": f"{self.prog}: {message}"}) + "\n")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    # argparse does not pass allow_abbrev down, so every parser sets it: a
    # prefix such as --d would otherwise stand for --dmax
    ap = _Parser(
        prog="moduli-traces",
        description="Traces of singular moduli for the Fricke groups of prime "
        "level p with (p-1) | 24, plus identity verifiers.",
        allow_abbrev=False,
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(parent, name, func, help=None):
        sp = parent.add_parser(name, help=help, allow_abbrev=False)
        sp.set_defaults(func=func)
        sp.add_argument("--p", type=int, required=True)
        return sp

    sp = command(sub, "hauptmodul", cmd_hauptmodul, "dump Hauptmodul coefficients")
    sp.add_argument("--terms", type=int, default=10)
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")

    sp = command(sub, "classes", cmd_classes, "list Heegner classes for (p, d)")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")

    sp = command(sub, "trace", cmd_trace, "compute one certified trace")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--D", type=int, default=1)
    _add_common(sp)

    sp = command(sub, "trace-table", cmd_trace_table, "traces for all admissible d <= dmax")
    sp.add_argument("--dmax", type=int, required=True)
    sp.add_argument("--out", default=None)
    _add_common(sp, formats=("csv", "json"))

    kinds = sub.add_parser("verify", help="run an identity verifier over a grid",
                           allow_abbrev=False).add_subparsers(dest="kind", required=True)
    for kind, flags in VERIFY_FLAGS.items():
        sp = command(kinds, kind, cmd_verify)
        sp.add_argument("--ell", type=int, required=True)
        for flag, default in flags.items():
            sp.add_argument(f"--{flag}", type=int, default=default)
        sp.add_argument("--dmax", type=int, default=30)
        sp.add_argument("--out", default=None)
        _add_common(sp, formats=("text", "json"),
                    cache_help="accepted and ignored: verify neither reads nor writes the cache")

    sp = sub.add_parser("cache", help="inspect or verify the trace cache", allow_abbrev=False)
    sp.set_defaults(func=cmd_cache)
    sp.add_argument("action", choices=("stats", "verify"))
    _add_common(sp, formats=("text", "json"))

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the invalid-input contract
        return int(exc.code or 0) and EXIT_BAD_INPUT
    # a trace inside the bounds can pass CPython's 4300-digit limit on int/str
    # conversion (t_256(607) at p=2 has 4303 digits): lift it while main runs
    limit = getattr(sys, "get_int_max_str_digits", None)
    saved = limit() if limit else None
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning  # one JSON object per stderr line
        try:
            if limit:
                sys.set_int_max_str_digits(0)
            return args.func(args)
        except ValueError as exc:
            return _fail(str(exc), EXIT_BAD_INPUT)
        except PrecisionFailure as exc:
            return _fail(str(exc), EXIT_PRECISION)
        except (CacheIntegrityError, OSError) as exc:
            return _fail(str(exc), EXIT_IO)
        finally:
            if limit:
                sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
