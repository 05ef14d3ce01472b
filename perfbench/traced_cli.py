"""`python -m rescong` under the span tracer, for traced cold-cli round trips.

    PERFBENCH_AGG=out.json python perfbench/traced_cli.py count --n 4 --s 2 --b 5 --t 1,2

Times the import of rescong.cli in this fresh interpreter, wraps the
library's public functions, runs cli.main on argv and writes the span
sums and the spans themselves to $PERFBENCH_AGG.  The exit code and
stdout are those of the CLI.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402


def main() -> int:
    t0 = time.perf_counter()
    import rescong.cli

    import_ms = (time.perf_counter() - t0) * 1000.0
    tracer = spans.Tracer()
    tracer.install()
    tracer.begin_op()
    try:
        return rescong.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.agg.update(ops=1, import_ms=import_ms, imports=1)
        with open(os.environ["PERFBENCH_AGG"], "w") as fh:
            json.dump({"agg": tracer.agg, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    raise SystemExit(main())
