"""Work the benchmark runs in a process of its own, so that its memory
does not count toward the workload's peak RSS and its set-up is cold.

    python3 bench/probe.py query COMMAND VOTES ARG...
    python3 bench/probe.py setup WORKLOAD SEED

``query`` prints one JSON line with the exit code, the wall time of the
``run()`` call, and the query's stdout and stderr. ``setup`` prints one
JSON line with the seconds of one cold set-up (``run.set_up``). Both also
give the times of the host-speed reference loop made before, during and
after (``run.sampled``); the wall times leave out the sampling.
"""

from __future__ import annotations

import io
import json
import sys

import run as bench_run


def main() -> None:
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        _, setup_s, reference = bench_run.sampled(bench_run.set_up, args[0], int(args[1]))
        print(json.dumps({"setup_s": setup_s, "reference_s": reference}))
        return
    sys.path.insert(0, str(bench_run.ROOT / "src"))
    from kemeny.cli import run

    out, err = io.StringIO(), io.StringIO()
    rc, wall_s, reference = bench_run.sampled(run, args, out, err)
    print(json.dumps({"rc": rc, "wall_s": wall_s, "reference_s": reference,
                      "out": out.getvalue(), "err": err.getvalue()}))


if __name__ == "__main__":
    main()
