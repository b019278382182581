"""Run one privsynth CLI command in this process with layer spans.

    python perfbench/traced_cli.py SPANS_OUT RUN_ID CLI_ARG...

Imports ``privsynth.cli`` under a ``cli.import`` span, wraps the public
functions listed in ``spans.LAYERS``, runs ``privsynth.cli.main`` under a
``cli.main`` span, writes the spans as JSON lines to SPANS_OUT and exits with
the command's exit code. Wrapped functions that do not exist are written to
SPANS_OUT + ".absent" instead of failing the run.
"""

import json
import sys

import spans


def main() -> int:
    out, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    rec = spans.Recorder(run_id)
    with rec.span("cli.import"):
        import privsynth.cli
    absent = spans.install(rec)
    with rec.span("cli.main"):
        rc = privsynth.cli.main(argv)
    rec.write(out)
    with open(out + ".absent", "w", encoding="utf-8") as fh:
        json.dump(absent, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
