"""Check that the exact work counters repeat between same-seed runs.

Usage, from the checkout root::

    python3 perfbench/selfcheck.py [--seed 7] [--seconds 3] \
        [--workload NAME ...]

Runs each workload twice, untraced, with one seed and window, and
compares the counters the runs report (explore nodes and edges, patterns,
reconstruction enqueued and emitted, cache hits and misses, reranks that
reordered, deltas that reused state).  Timing-dependent counters, such as
the router's failovers and hedges and the served stack's own cache and
ranking counts, are printed but not compared.  Exits 1
when a compared counter differs: the work itself changed between runs,
which no wall-clock noise can explain, unless a prover or reconstruction
time budget cut a query (the ``core.truncated`` counter says so).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import OUT_DIR  # noqa: E402
from run import WORKLOADS  # noqa: E402

#: Counters that depend on timing rather than on the work asked for.
TIMING_DEPENDENT = ("router.failovers", "router.hedges", "server.overloaded")
#: Counters of the served stack: which backend a read lands on depends on
#: load, so its cache hits and misses do too.
SERVED_PREFIX = "served."


def counters(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    if completed.returncode != 0:
        raise SystemExit(f"{workload}: run exited {completed.returncode}\n"
                         f"{completed.stderr[-2000:]}")
    path = OUT_DIR / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())["counters"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    differing = 0
    for workload in args.workload or WORKLOADS:
        first = counters(workload, args.seed, args.seconds)
        second = counters(workload, args.seed, args.seconds)
        for name in sorted(set(first) | set(second)):
            a, b = first.get(name), second.get(name)
            compared = not (name in TIMING_DEPENDENT
                            or name.startswith(SERVED_PREFIX))
            verdict = ("same" if a == b else
                       "DIFFERS" if compared else "differs (timing)")
            differing += compared and a != b
            print(f"{workload:13s} {name:28s} {a!s:>10s} {b!s:>10s} "
                  f"{verdict}")
    print("counters repeat" if not differing
          else f"{differing} counter(s) differ between same-seed runs")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
