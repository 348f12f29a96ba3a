"""Benchmark of the completion stack: one command, three workloads.

Usage, from the checkout root::

    python3 perfbench/run.py --workload table2-miss --seed 1 --seconds 30
    python3 perfbench/run.py --workload table2-miss --seed 1 --seconds 30 \
        --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that records spans around each call into the program
and reports the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in its own process and prints one
row per workload.  See ``perfbench/README.md`` for what each workload
exercises and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (END_TO_END, OUT_DIR, PER_LAYER, PRINTED_ONLY,  # noqa: E402
                    Unmeasurable, bootstrap)

WORKLOADS = ("table2-miss", "zipf-serve", "edit-session")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    bootstrap()
    if name == "table2-miss":
        import table2_miss as module
    elif name == "zipf-serve":
        import zipf_serve as module
    else:
        import edit_session as module
    return module.run(seed, seconds, trace)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, then one row per workload."""
    documents = {}
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            check=False)
        if completed.returncode != 0:
            print(f"{name}: exited {completed.returncode}", file=sys.stderr)
            return completed.returncode
        path = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
        documents[name] = json.loads(path.read_text())
    units = PER_LAYER if trace else END_TO_END | PRINTED_ONLY
    columns = list(units) + ([] if trace else ["error_rate"])
    print("\n" + "workload".ljust(14) + "".join(
        f"{name:>18s}" for name in columns))
    print(" " * 14 + "".join(
        f"{units.get(name, 'ratio'):>18s}" for name in columns))
    for name, document in documents.items():
        cells = []
        for column in columns:
            if column == "error_rate":
                cells.append(f"{document['error_rate']:>18.4f}")
            elif column in document["not_applicable"]:
                cells.append(f"{'n/a':>18s}")
            else:
                cells.append(f"{document['metrics'][column]:>18.4f}")
        print(name.ljust(14) + "".join(cells))
    print("sample counts:")
    for name, document in documents.items():
        for column in columns:
            if column in document["samples"]:
                print(f"  {name} {column}: {document['samples'][column]}")
    failed = sum(document["failed"] for document in documents.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(document["attempted"]
                                       for document in documents.values()),
                      "failed": failed,
                      "workloads": {name: document["metrics"]
                                    for name, document in documents.items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        report = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except Unmeasurable as exc:
        print(f"unmeasurable: {exc}", file=sys.stderr)
        return 3
    report.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
