"""One fresh-interpreter call of the cubenets CLI, timed from the inside.

    python3 perfbench/child.py RESULT MODE SPANS CLI-ARGS...

MODE is ``probe`` (import the CLI and stop), ``plain`` (time ``cli.main``)
or ``trace`` (time ``cli.main`` with every ``tracing.TARGETS`` call site
wrapped, and write the raw spans to SPANS).  RESULT receives one JSON object:
the monotonic clock reading taken once ``cubenets.cli`` is imported, and for
the other modes the exit code, the wall time of ``cli.main`` and, when
traced, the span summary.  perfbench/run.py starts these one at a time.
"""

import json
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from cubenets import cli  # noqa: E402

IMPORTED = time.monotonic()


def main(argv: list[str]) -> int:
    result_path, mode, spans_path, cli_argv = argv[0], argv[1], argv[2], argv[3:]
    doc: dict = {"imported": IMPORTED}
    if mode != "probe":
        tracer = None
        if mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            installed, notes = tracing.install(tracer)
            doc["installed"] = sorted(installed)
            doc["notes"] = notes
        rc = None
        t0 = time.perf_counter()
        root = tracer.begin(tracing.ROOT_SPAN) if tracer else -1
        try:
            rc = cli.main(cli_argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            doc["error"] = traceback.format_exc()
        finally:
            if tracer:
                tracer.finish(root)
        doc["wall_s"] = time.perf_counter() - t0
        doc["rc"] = rc
        if tracer:
            doc["spans"] = tracer.summary()
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.columns(), fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
