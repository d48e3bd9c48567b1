"""One timed study in a fresh interpreter.

Usage: python3 child.py <spec.json>

The spec names the study arguments, the output directory, the result file
and whether to trace.  The parent records the clock just before it spawns
this process; the times written here use the same system-wide monotonic
clock, so the parent can take ``setup_s`` as import-done minus spawn.
"""

import json
import os
import sys
import time


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    os.sched_setaffinity(0, {spec["cpu"]})

    import biharmfem.cli as cli   # pulls in numpy, scipy and every layer
    t_imported = _now()

    result = {"t_imported": t_imported, "module": cli.__file__}
    if spec["study_args"] is not None:
        recorder = None
        if spec["trace"]:
            import spans
            recorder = spans.Recorder(run_id=spec["run_id"])
            recorder.install()
        argv = ["study", *spec["study_args"], "--out", spec["out_dir"]]
        t_call = _now()
        if recorder is None:
            code = cli.main(argv)
        else:
            with recorder.span("cli.main"):
                code = cli.main(argv)
        t_done = _now()
        result.update(exit_code=code, t_call=t_call, t_done=t_done)
        if recorder is not None:
            result["trace"] = recorder.summary()
            result["spans"] = recorder.dump()
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
