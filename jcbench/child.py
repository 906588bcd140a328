"""One benchmark round in a fresh process.

Usage: python3 child.py PLAN.json

The plan (written by run.py) names the checkout's source directory, the
generated scenario files, the command lines to pass to jcdiss.cli.main
and where to write the result. Set-up ends when jcdiss.cli is imported
and every scenario file is parsed; the timed interval then runs the
commands in order and ends when the last one returns. With mode "setup"
the process stops after set-up; with mode "trace" timing wrappers are
installed after set-up and the spans are written out once, at the end.

The result file holds monotonic-clock readings, so the parent can take
set-up time from its own spawn time (CLOCK_MONOTONIC is system-wide).
"""

import json
import resource
import sys
import time
import traceback


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(plan_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import jcdiss.cli as cli

    for path in plan["scenarios"]:
        cli.load_config(path)
    result = {"ready": time.monotonic()}

    if plan["mode"] != "setup":
        tracer = None
        if plan["mode"] == "trace":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        codes = []
        start = time.monotonic()
        cpu_start = _cpu_seconds()
        for argv in plan["commands"]:
            span = tracer.command() if tracer else None
            try:
                codes.append(cli.main(argv))
            except Exception:  # a traceback is a failed operation, not a crash of the round
                traceback.print_exc()
                codes.append(-1)
            finally:
                if span is not None:
                    tracer.end_command(span)
        result["wall_s"] = time.monotonic() - start
        result["cpu_s"] = _cpu_seconds() - cpu_start
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["codes"] = codes
        if tracer is not None:
            tracer.dump(plan["spans"])

    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
