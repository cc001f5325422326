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
import sys

from .arith import (
    PrimeLevel,
    UnsupportedLevel,
    is_admissible,
    splits,
)
from .cm_eval import PrecisionFailure
from .hauptmodul import build_hauptmodul
from .qforms import InadmissibleDiscriminant, enumerate_classes
from .traces import (
    CacheIntegrityError,
    HypothesisViolation,
    TraceCache,
    take_classes,
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


def _emit(obj: dict, fmt: str, rows: list[dict] | None = None, out: str | None = None):
    """Render obj (text/json) or rows (csv) to stdout or a file."""
    if fmt == "json":
        text = json.dumps(obj, indent=2)
    elif fmt == "csv":
        rows = rows if rows is not None else [obj]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
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
    classes = enumerate_classes(level, args.d, method=args.method)
    rows = [
        {
            "sl2_rep": str(c.sl2_rep.as_tuple()),
            "line": str(c.line),
            "beta": c.beta,
            "eval_form": str(c.eval_form.as_tuple()),
            "omega": c.omega,
        }
        for c in classes
    ]
    obj = {"p": level.p, "d": args.d, "count": len(rows), "classes": rows}
    _emit(obj, args.format, rows=rows)
    return EXIT_OK


def cmd_trace(args) -> int:
    level = PrimeLevel(args.p)
    cache = TraceCache(args.cache)
    rec = trace(level, args.D, args.d, method=args.method, cache=cache)
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


def cmd_trace_table(args) -> int:
    level = PrimeLevel(args.p)
    cache = TraceCache(args.cache)
    rows = []
    for d in range(1, args.dmax + 1):
        if not is_admissible(d, level):
            continue
        rec = trace(level, 1, d, cache=cache)
        classes = take_classes(level, d)
        rows.append(
            {
                "d": d,
                "beta_count": len({c.beta for c in classes}),
                "class_count": len(classes),
                "trace": str(rec.value),
            }
        )
    obj = {"p": level.p, "dmax": args.dmax, "rows": rows}
    fmt = args.format if args.format != "text" else "csv"
    _emit(obj, fmt, rows=rows, out=args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    level = PrimeLevel(args.p)
    reports = []
    if args.kind == "congruence":
        ds = [args.d] if args.d else [
            d
            for d in range(1, args.dmax + 1)
            if is_admissible(d, level) and d % args.ell and splits(args.ell, d)
        ]
        for d in sorted(ds):
            reports.append(verify_congruence(level, args.ell, d, args.n))
    elif args.kind == "recurrence":
        ds = [args.d] if args.d else [
            d for d in range(1, args.dmax + 1) if is_admissible(d, level)
        ]
        for d in sorted(ds):
            reports.append(verify_recurrence(level, args.ell, args.D, d, args.n))
    else:
        D_list = [m * m for m in range(1, args.Dmax + 1) if m * m <= args.Dmax]
        d_list = [d for d in range(1, args.dmax + 1) if is_admissible(d, level)]
        reports.append(verify_coeff_identities(level, args.ell, D_list, d_list))
    ok = all(r["ok"] for r in reports)
    obj = {"kind": args.kind, "ok": ok, "reports": reports}
    _emit(obj, args.format, out=args.out)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_cache(args) -> int:
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
    sp.add_argument("--format", choices=formats, default="text")
    sp.add_argument("--cache", default="./traces-cache.jsonl", help=cache_help)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="moduli-traces",
        description="Traces of singular moduli for the Fricke groups of prime "
        "level p with (p-1) | 24, plus identity verifiers.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("hauptmodul", help="dump Hauptmodul coefficients")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--terms", type=int, default=10)
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sp.set_defaults(func=cmd_hauptmodul)

    sp = sub.add_parser("classes", help="list Heegner classes for (p, d)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--method", choices=("gkz", "brute"), default="gkz")
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sp.set_defaults(func=cmd_classes)

    sp = sub.add_parser("trace", help="compute one certified trace")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--D", type=int, default=1)
    sp.add_argument("--method", choices=("gkz", "brute"), default="gkz")
    _add_common(sp)
    sp.set_defaults(func=cmd_trace)

    sp = sub.add_parser("trace-table", help="traces for all admissible d <= dmax")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--dmax", type=int, required=True)
    sp.add_argument("--out", default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_trace_table)

    sp = sub.add_parser("verify", help="run an identity verifier over a grid")
    sp.add_argument("kind", choices=("congruence", "recurrence", "coeff-identities"))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--D", type=int, default=1)
    sp.add_argument("--dmax", type=int, default=30)
    sp.add_argument("--Dmax", type=int, default=16)
    sp.add_argument("--out", default=None)
    _add_common(sp, formats=("text", "json"),
                cache_help="accepted and ignored: verify neither reads nor writes the cache")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("cache", help="inspect or verify the trace cache")
    sp.add_argument("action", choices=("stats", "verify"))
    _add_common(sp, formats=("text", "json"))
    sp.set_defaults(func=cmd_cache)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the invalid-input contract
        return int(exc.code or 0) and EXIT_BAD_INPUT
    try:
        return args.func(args)
    except (
        UnsupportedLevel,
        InadmissibleDiscriminant,
        HypothesisViolation,
        ValueError,
    ) as exc:
        return _fail(str(exc), EXIT_BAD_INPUT)
    except PrecisionFailure as exc:
        return _fail(str(exc), EXIT_PRECISION)
    except CacheIntegrityError as exc:
        return _fail(str(exc), EXIT_IO)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
