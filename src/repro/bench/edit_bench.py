"""Edit-session micro-benchmark — the ``BENCH_edit.json`` emitter.

Measures the incremental serving path's core claim on the largest
bundled Table 2 scene (row 28, 10,700 declarations): a
single-declaration delta applied through
:func:`~repro.incremental.delta.apply_scene_delta` (arena adoption,
MATCH-index merge, weight-memo transplant) must beat the full rebuild a
plain ``/v1/register-scene`` would do — re-extending, re-indexing and
re-summarising the scene from scratch.  Both an ``add`` and a ``remove``
are timed; every repeat uses a distinct declaration so neither path can
hide behind the engine's scene-table dedup, and the rebuild side runs on
a throwaway engine for the same reason.

The delta is only half of what an edit costs: the first completion on
the edited scene pays for whatever warm state the delta did not carry
over.  Each delta therefore starts from a *warm* donor (the unedited
scene has completed its goal) and is followed by one timed completion of
the goal on the edited scene, a result-cache miss.  Beside it stands the
same completion as a warm miss on the unedited scene (result cache
purged, every other memo warm) — the floor an edit's first query could
reach if it lost no warm state at all.

Usage::

    python -m repro.bench.edit_bench --output BENCH_edit.json
    python -m repro.bench.edit_bench --check BENCH_edit.json \
        [--output benchmarks/out/BENCH_edit.json]

The built-in gate is structural, not trajectory-based: the run fails
(exit 1) when the median delta re-prepare does not beat the median full
rebuild for a single-declaration edit — that ordering is the reason the
incremental subsystem exists, so losing it is a bug, not noise.
``--check`` additionally fails when the summed delta time, or the summed
first-completion time, regresses more than ``--max-regression`` against
the committed report.  CI runs this non-blocking and uploads the
measured report next to ``BENCH_core``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from typing import Optional, Sequence

from repro.bench.core_bench import LARGEST_ROW

DEFAULT_REPEATS = 5

SCHEMA = "bench-edit/v2"

#: Snippets per timed completion (the server default, Table 2's N).
N_SNIPPETS = 10

#: Per-kind medians ``--check`` gates, each summed over the edit kinds.
GATED = ("delta_ms", "first_query_ms")


def _prepare_base(engine) -> tuple:
    """The row-28 serving scene, prepared once: (spec, prepared)."""
    from repro.bench.suite import BENCHMARKS, build_scene

    spec = BENCHMARKS[LARGEST_ROW - 1]
    scene = build_scene(spec)
    prepared = engine.prepare(scene.environment, scene.subtypes,
                              goal=scene.goal, name=spec.name)
    return spec, prepared


def _rebuild_ms(edited) -> float:
    """Wall time of the full path: re-prepare the edited scene from scratch.

    A throwaway engine sidesteps the scene-table dedup, and a fresh
    ``Environment`` over the same declaration objects forces the whole
    prepare — coercion extension, succinct signature, MATCH indexes —
    to run again, exactly what ``/v1/register-scene`` pays on a
    re-register.  (Parsing is deliberately excluded: it would only pad
    the rebuild side, and the delta path skips it too.)
    """
    from repro.core.environment import Environment
    from repro.engine import CompletionEngine

    throwaway = CompletionEngine()
    declarations = tuple(edited.base_environment)
    start = time.perf_counter()
    rebuilt = Environment(declarations)
    throwaway.prepare(rebuilt, edited.subtypes, goal=edited.goal,
                      name="rebuild")
    return (time.perf_counter() - start) * 1000


def _complete_ms(engine, prepared) -> float:
    """Wall time of one goal completion that must miss the result cache.

    A full collection runs first, off the clock: the garbage earlier
    repeats leave behind would otherwise land a gen-2 collection inside
    a random sample and decide the median.
    """
    gc.collect()
    start = time.perf_counter()
    served = engine.complete(prepared, n=N_SNIPPETS)
    elapsed = (time.perf_counter() - start) * 1000
    assert not served.cache_hit, "timed completion hit the result cache"
    return elapsed


def measure(repeats: int = DEFAULT_REPEATS) -> dict:
    """Time delta-vs-rebuild for single-declaration edits of row 28, and
    the first completion after each delta from the warm donor."""
    from repro.engine import CompletionEngine
    from repro.incremental.delta import DeltaOp, apply_scene_delta

    engine = CompletionEngine()
    spec, prepared = _prepare_base(engine)
    engine.complete(prepared, n=N_SNIPPETS)          # warm the donor
    warm_miss = []
    for _ in range(repeats):
        engine.purge_results(prepared.fingerprint)
        warm_miss.append(_complete_ms(engine, prepared))

    # Distinct existing declarations to remove, one per repeat — locals
    # and imports only (removing the goal literal would be a different
    # scene class entirely).
    removable = [decl.name for decl in prepared.base_environment][:repeats]

    sections = {}
    for kind in ("add", "remove"):
        delta_samples, rebuild_samples, first_samples = [], [], []
        for index in range(repeats):
            if kind == "add":
                ops = [DeltaOp.add(f"local bench_probe_{index} : String")]
            else:
                ops = [DeltaOp.remove(removable[index])]
            start = time.perf_counter()
            outcome = apply_scene_delta(engine, prepared, ops,
                                        name=spec.name)
            delta_samples.append((time.perf_counter() - start) * 1000)
            assert not outcome.reused, "benchmark edit hit the scene table"
            first_samples.append(_complete_ms(engine, outcome.prepared))
            rebuild_samples.append(_rebuild_ms(outcome.prepared))
        sections[kind] = {
            "delta_ms": round(statistics.median(delta_samples), 2),
            "rebuild_ms": round(statistics.median(rebuild_samples), 2),
            "delta_best_ms": round(min(delta_samples), 2),
            "rebuild_best_ms": round(min(rebuild_samples), 2),
            "speedup": round(statistics.median(rebuild_samples)
                             / max(statistics.median(delta_samples), 1e-9),
                             2),
            "first_query_ms": round(statistics.median(first_samples), 2),
            "first_query_best_ms": round(min(first_samples), 2),
        }
    return {
        "row": LARGEST_ROW,
        "name": spec.name,
        "declarations": spec.row.n_initial,
        "repeats": repeats,
        "warm_miss_ms": round(statistics.median(warm_miss), 2),
        "edits": sections,
    }


def build_report(measured: dict) -> dict:
    """The ``BENCH_edit.json`` document for one measurement."""
    edits = measured["edits"]
    return {
        "schema": SCHEMA,
        "protocol": {
            "statistic": f"median of {measured['repeats']} "
                         "single-declaration edits (distinct declaration "
                         "per repeat; rebuild on a throwaway engine)",
            "scene": f"Table 2 row {measured['row']} "
                     f"({measured['declarations']} declarations)",
            "paths": "delta = apply_scene_delta over the warm prepared "
                     "scene; rebuild = fresh Environment + prepare from "
                     "scratch on a throwaway engine; first_query = the "
                     f"goal completion (n={N_SNIPPETS}, a result-cache "
                     "miss) on the edited scene right after the delta; "
                     "warm_miss = the same completion on the unedited "
                     "warm scene with its result purged; a full gc runs "
                     "before each timed completion, off the clock",
        },
        "current": measured,
        "summary": {
            "delta_ms_sum": round(sum(e["delta_ms"]
                                      for e in edits.values()), 2),
            "rebuild_ms_sum": round(sum(e["rebuild_ms"]
                                        for e in edits.values()), 2),
            "first_query_ms_sum": round(sum(e["first_query_ms"]
                                            for e in edits.values()), 2),
        },
    }


def check_ordering(measured: dict) -> list[str]:
    """The structural gate: delta must beat rebuild on every edit kind."""
    failures = []
    for kind, section in measured["edits"].items():
        if section["delta_ms"] >= section["rebuild_ms"]:
            failures.append(
                f"{kind}: delta re-prepare {section['delta_ms']:.1f} ms "
                f"does not beat the full rebuild "
                f"{section['rebuild_ms']:.1f} ms on row {measured['row']}")
    return failures


def check_regression(committed: dict, measured: dict,
                     max_regression: float) -> list[str]:
    """Trajectory gates of *measured* against the *committed* report: the
    summed delta time and the summed first-completion time, each over the
    edit kinds both reports hold.  A metric the committed report predates
    is not gated."""
    reference = committed.get("current", {}).get("edits", {})
    common = [kind for kind in reference if kind in measured["edits"]]
    if not common:
        return ["no comparable edit kinds between committed and measured"]
    failures = []
    for metric in GATED:
        if not all(metric in reference[kind] for kind in common):
            continue
        committed_sum = sum(reference[kind][metric] for kind in common)
        measured_sum = sum(measured["edits"][kind][metric]
                           for kind in common)
        allowed = committed_sum * (1.0 + max_regression)
        if measured_sum > allowed:
            failures.append(
                f"{metric} regression: {measured_sum:.1f} ms summed over "
                f"{common} exceeds the committed {committed_sum:.1f} ms by "
                f"more than {max_regression:.0%} (limit {allowed:.1f} ms)")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.edit_bench",
        description="measure delta re-prepare vs full rebuild for "
                    "single-declaration edits of the largest scene")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help=f"edits timed per kind (default "
                             f"{DEFAULT_REPEATS})")
    parser.add_argument("--output", default=None,
                        help="write the measured report to this path")
    parser.add_argument("--check", default=None, metavar="BENCH_edit.json",
                        help="compare against a committed report and fail "
                             "on delta-time or first-completion regression")
    parser.add_argument("--max-regression", type=float, default=0.5,
                        help="allowed fractional regression of each "
                             "gated sum for --check (default 0.5 — single "
                             "edits are noisy)")
    args = parser.parse_args(argv)

    committed = None
    if args.check:
        with open(args.check, "r", encoding="utf-8") as handle:
            committed = json.load(handle)

    measured = measure(repeats=args.repeats)
    report = build_report(measured)

    for kind, section in measured["edits"].items():
        print(f"{kind}: delta {section['delta_ms']:.1f} ms vs rebuild "
              f"{section['rebuild_ms']:.1f} ms "
              f"({section['speedup']:.1f}x) on "
              f"{measured['declarations']} declarations; first completion "
              f"{section['first_query_ms']:.1f} ms")
    print(f"warm miss on the unedited scene: "
          f"{measured['warm_miss_ms']:.1f} ms")

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")

    failures = check_ordering(measured)
    if committed is not None and not failures:
        failures = check_regression(committed, measured,
                                    args.max_regression)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("edit-path ordering holds: delta re-prepare beats the full "
          "rebuild on both edit kinds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
