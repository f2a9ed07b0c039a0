"""Run one digitop command the way the installed ``digitop`` script does.

With ``BENCH_TRACE_OUT`` set, the cli, fileio and library calls of the
command are traced and their per-layer totals written to that file as JSON,
along with the seconds spent importing ``digitop.cli``.
"""

import json
import os
import sys
import time

started = time.perf_counter()
import digitop.cli  # noqa: E402

import_s = time.perf_counter() - started
trace_out = os.environ.get("BENCH_TRACE_OUT")
if not trace_out:
    digitop.cli.main()
else:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        digitop.cli.main()
    finally:
        tracer.uninstall()
        sums = tracer.layer_sums()
        sums["cli.import_s"] = import_s
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump({"sums": sums, "missing": tracer.missing,
                       "absent": tracer.absent_layers()}, handle)
