"""A traced CLI process for cli-oneshot with --trace 1.

    python3 bench/cli_child.py SPANS_PATH <gtboson cli arguments>

Times `import gtboson.cli`, then calls `gtboson.cli.run(argv)` in this
process with spans recorded.  The command's output goes to stdout as the
CLI would write it; the last stderr line is "@@trace " and a JSON summary
(span groups, counters, cache state, start-up time, output bytes).  Spans
are appended to SPANS_PATH.
"""

from __future__ import annotations

import io
import json
import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import gtboson.cli
    startup = time.perf_counter() - t0
    import spans
    before = spans.cache_snapshot()
    tracer = spans.Tracer()
    tracer.install()
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        rc = gtboson.cli.run(argv)
    finally:
        text, sys.stdout = sys.stdout.getvalue(), stdout
        tracer.uninstall()
    stdout.write(text)
    stdout.flush()
    summary = {**tracer.summary(), "startup_s": startup,
               "output_bytes": len(text.encode()), "caches_before": before,
               "caches_after": spans.cache_snapshot()}
    tracer.write(spans_path)
    sys.stderr.write("@@trace " + json.dumps(summary) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
