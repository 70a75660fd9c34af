"""One benchmark operation: `trm run CONFIG` in this fresh interpreter.

    python3 bench/op.py CONFIG OUT WORKERS TRACE

WORKERS is `default` (the CLI's own default) or a count; TRACE is `-` for
an untraced run or the path the spans are written to.  `trm` must be
importable (run.py puts the checkout's `src` on PYTHONPATH).  The last line
of stdout is a JSON object with the clock readings the parent needs:
`runner` (first call into the CLI's config runner) and `done` (main
returned, output written), both time.perf_counter values, which share one
system-wide monotonic clock with the parent; plus `maxrss_kb` and `rc`.
The exit code is the CLI's.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    config, out, workers, trace = sys.argv[1:5]
    import trm.cli

    runner_start: list[float] = []

    def hook(runner):
        def timed(*args):
            if not runner_start:
                runner_start.append(time.perf_counter())
            return runner(*args)

        return timed

    for kind, runner in list(trm.cli._RUNNERS.items()):
        trm.cli._RUNNERS[kind] = hook(runner)

    tracer = None
    if trace != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    argv = ["run", config, "--out", out]
    if workers != "default":
        argv += ["--workers", workers]
    try:
        rc = trm.cli.main(argv)
    finally:
        done = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(Path(trace))
    report = {
        "rc": rc,
        "runner": runner_start[0] if runner_start else None,
        "done": done,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trm": trm.cli.__file__,
    }
    print(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main())
