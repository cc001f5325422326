"""The moduli-traces console entry, run as one fresh process per request.

    python3 bench/cli_entry.py SPANS -- <moduli-traces arguments>

With SPANS "-" this does what the installed `moduli-traces` script does.
Otherwise it installs the benchmark's spans first and writes their summary
and records to SPANS as JSON when the command returns.
"""

import sys


def main() -> int:
    spans_out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        raise SystemExit("usage: cli_entry.py SPANS -- ARGS...")
    if spans_out == "-":
        from moduli_traces.cli import main as cli_main

        return cli_main(argv)

    import json

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    import moduli_traces.cli

    try:
        return moduli_traces.cli.main(argv)
    finally:
        with open(spans_out, "w") as fh:
            json.dump({"summary": tracer.summary(), "spans": list(tracer.span_records())}, fh)


if __name__ == "__main__":
    sys.exit(main())
