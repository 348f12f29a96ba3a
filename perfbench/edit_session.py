"""``edit-session``: the write path, edits followed by a completion.

On the two largest Table 2 scenes (rows 28 and 21) a seeded script of
single-declaration deltas runs through
:func:`~repro.incremental.delta.apply_scene_delta`, the call
``/v1/edit-scene`` makes, and each delta is followed by one completion of
the scene's Table 2 goal on the edited scene.  Cycles alternate between
the two scenes.  Each scene's script is made of shuffled blocks of three
episodes:

* add a local of a type the scene already returns, then remove it again
  (the second delta returns to a state the engine has prepared, so it
  reuses that state and the completion hits the result cache);
* remove one of the scene's own declarations;
* add a local that stays.

A change that moves work between prepare, the delta and the first query
after an edit shows here as a net change, where ``table2-miss`` would
show it as a pure gain.  Table 2 scenes cannot take the
``open_session`` route: it serializes the scene, and the parser rejects
Table 2 names such as ``java.lang.Object.new()``.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext

from common import (N_SNIPPETS, PER_LAYER, Report, SceneChecker, Tracer,
                    answer, compose_completion, median, own_peak_rss_mb,
                    p50_ms, reciprocal_rank, self_time_metrics, span_path,
                    tail, timed_setups, truncated, work_counters)

ROWS = (28, 21)
#: Cycles whose counters and ranks are reported exactly: every run makes
#: at least this many, whatever the window.
COUNTED_CYCLES = 12
#: Peak memory is read after this many cycles: the engine keeps state for
#: every edit, so a peak read at the end of the window would grow with
#: the number of cycles a faster program fits in.
MEMORY_CYCLES = 64


def script(rng: random.Random, scene, cycles: int) -> list[tuple[str, str]]:
    """``cycles`` delta ops for one scene.

    Each op is (``add``, declaration line) or (``remove``, name).
    """
    from repro.core.types import uncurry

    types = sorted({uncurry(decl.type)[1].name for decl in scene.environment
                    if uncurry(decl.type)[1].name.isidentifier()})
    removable = sorted(decl.name for decl in scene.environment)
    removed: set[str] = set()
    ops: list[tuple[str, str]] = []
    serial = 0
    while len(ops) < cycles:
        block = ["add_undo", "remove", "add"]
        rng.shuffle(block)
        for episode in block:
            if episode == "remove":
                name = rng.choice(removable)
                while name in removed:
                    name = rng.choice(removable)
                removed.add(name)
                ops.append(("remove", name))
                continue
            serial += 1
            local = f"edit_local_{serial}"
            ops.append(("add", f"local {local} : {rng.choice(types)}"))
            if episode == "add_undo":
                ops.append(("remove", local))
    return ops[:cycles]


def run(seed: int, seconds: float, trace: bool) -> Report:
    from repro.bench.matching import find_rank
    from repro.bench.suite import BENCHMARKS, build_scene
    from repro.core.ranking import RankingPipeline
    from repro.engine import CompletionEngine
    from repro.incremental.delta import DeltaOp, apply_scene_delta

    report = Report("edit-session", seed, trace)
    tracer = Tracer(trace)
    rng = random.Random(seed)
    specs = [BENCHMARKS[row - 1] for row in ROWS]

    def setup():
        with tracer.span("setup", tracer.new_request()):
            scenes = []
            for spec in specs:
                with tracer.span("javamodel.build_scene"):
                    scenes.append(build_scene(spec))
            engine = CompletionEngine(ranking=RankingPipeline.standard())
            prepared = []
            for scene in scenes:
                with tracer.span("engine.prepare"):
                    prepared.append(engine.prepare_scene(scene))
        return scenes, engine, prepared

    (scenes, engine, current), setup_s, setup_runs = timed_setups(setup)
    # Long enough for any window: the loop stops on time, not on script.
    scripts = [script(rng, scene, 4000) for scene in scenes]

    latency, first = [], []
    records = []                 # (scene index, outcome, served, request)
    after_edit: set[int] = set()
    composed_mismatch = composed_cut = 0
    start = time.perf_counter()
    cycle = 0
    while cycle < COUNTED_CYCLES or time.perf_counter() - start < seconds:
        index = cycle % len(specs)
        kind, text = scripts[index][cycle // len(specs)]
        op = DeltaOp.add(text) if kind == "add" else DeltaOp.remove(text)
        # The traced run leaves its counted prefix untraced: those cycles
        # are the baseline for the tracing overhead.  Traced cycles run
        # the completion as composed public calls, one span each.
        tracing = trace and cycle >= COUNTED_CYCLES
        request = tracer.new_request() if tracing else None
        span = tracer.span if tracing else _untraced
        began = time.perf_counter()
        with span("op", request):
            with span("incremental.apply_scene_delta"):
                outcome = apply_scene_delta(engine, current[index], [op],
                                            name=specs[index].name)
            current[index] = outcome.prepared
            edited = time.perf_counter()
            if tracing:
                composed, cut = compose_completion(
                    outcome.prepared, engine, outcome.prepared.goal, tracer)
            else:
                served = engine.complete(outcome.prepared, n=N_SNIPPETS)
        done = time.perf_counter()
        if tracing:
            # The end-to-end call, after the composed one: it must agree.
            served = engine.complete(outcome.prepared, n=N_SNIPPETS)
            if answer(composed.result) != answer(served.result):
                if cut or truncated(served.result):
                    composed_cut += 1
                else:
                    composed_mismatch += 1
            if not outcome.reused:
                after_edit.add(request)
        else:
            latency.append(done - began)
            first.append(done - edited)
        records.append((index, outcome, served, request))
        cycle += 1
        if cycle == COUNTED_CYCLES:
            reordered = engine.ranking_stats()["reordered"]
        if cycle == MEMORY_CYCLES:
            peak_rss = (own_peak_rss_mb(), cycle)
    window = time.perf_counter() - start
    if cycle < MEMORY_CYCLES:
        peak_rss = (own_peak_rss_mb(), cycle)

    # -- answer checks (outside the timed window) --------------------------
    reciprocal = []
    for number, (index, outcome, served, _) in enumerate(records):
        report.attempted += 1
        prepared = outcome.prepared
        checker = SceneChecker(prepared.base_environment, prepared.subtypes)
        bad = checker.failures(served.snippets, prepared.goal)
        if bad:
            report.fail(why=f"cycle {number}: {bad} snippet(s) fail the "
                            f"type check")
        if number < COUNTED_CYCLES:
            rank = find_rank(served.snippets, specs[index].expected,
                             prepared.base_environment)
            reciprocal.append(reciprocal_rank(rank))

    if composed_mismatch:
        report.fail(composed_mismatch, "composed prove/reconstruct/rerank "
                                       "differs from engine.complete")
    if composed_cut:
        report.notes.append(f"{composed_cut} composed answers differ from "
                            f"engine.complete after a time budget cut")
    counted = records[:COUNTED_CYCLES]
    report.counters = dict(_counters(counted), **{"ranking.reordered":
                                                  reordered})
    report.notes.append("setups " + ",".join(f"{value:.3f}"
                                             for value in setup_runs))

    if not trace:
        label, value, beyond = tail(latency)
        report.set("setup_s", setup_s, f"median of {len(setup_runs)} set-ups")
        report.set("throughput_qps", len(latency) / window,
                   f"{len(latency)} delta+completion cycles in "
                   f"{window:.2f} s")
        report.set("latency_p50_ms", p50_ms(latency),
                   f"n={len(latency)} cycles")
        report.set("latency_tail_ms", value * 1000.0,
                   f"{label}, n={len(latency)}, {beyond} beyond")
        report.set("first_query_ms", p50_ms(first),
                   f"n={len(first)} completions after an edit")
        report.set("sustained_qps", len(latency) / window,
                   "closed loop, one caller: equals throughput")
        report.not_applicable.add("sustained_qps")
        report.set("mrr", sum(reciprocal) / len(reciprocal),
                   f"first {len(reciprocal)} cycles")
        report.set("peak_rss_mb", peak_rss[0],
                   f"this process, after the first {peak_rss[1]} cycles")
        return report

    for name in PER_LAYER:
        report.na(name)
    ms = 1000.0
    traced = [record for record in records if record[3] is not None]
    report.set("javamodel.scene_build_ms",
               median(tracer.durations("javamodel.build_scene")) * ms,
               "median per scene")
    report.set("engine.prepare_ms",
               median(tracer.durations("engine.prepare")) * ms)
    delta_spans = tracer.durations("incremental.apply_scene_delta")
    report.set("incremental.delta_ms", median(delta_spans) * ms,
               f"n={len(delta_spans)}")
    counters = report.counters
    report.set("incremental.reused", counters["incremental.reused"],
               "exact, counted cycles")
    report.set("incremental.reused_share",
               counters["incremental.reused"] / COUNTED_CYCLES)
    report.set("core.first_prove_ms",
               median(tracer.durations("core.prove",
                                        after_edit)) * ms,
               f"n={len(after_edit)} completions after a new edit")
    report.set("core.first_recon_ms",
               median(tracer.durations("core.reconstruct",
                                        after_edit)) * ms)
    reranks = tracer.durations("ranking.rerank")
    report.set("ranking.rerank_us", median(reranks) * 1e6,
               f"n={len(reranks)}")
    for name in ("engine.cache_hits", "engine.cache_misses",
                 "core.explore_nodes", "core.explore_edges", "core.patterns",
                 "core.recon_enqueued", "core.recon_emitted",
                 "core.truncated", "ranking.reordered"):
        report.set(name, counters[name], "exact, counted cycles")
    report.set("engine.cache_hit_ratio",
               counters["engine.cache_hits"] / COUNTED_CYCLES)
    report.set("core.recon_yield", counters["core.recon_emitted"]
               / max(counters["core.recon_enqueued"], 1), "emitted/enqueued")
    report.set("ranking.reordered_share",
               counters["ranking.reordered"] / COUNTED_CYCLES)
    report.set("trace.overhead_ms",
               median(tracer.durations("op")) * ms - p50_ms(latency),
               f"traced n={len(tracer.durations('op'))} minus untraced "
               f"n={len(latency)} cycle medians")
    report.counters["trace.spans"] = len(tracer.spans)
    for name, value in self_time_metrics(tracer, len(traced)).items():
        report.set(name, value, "self time per op")
    tracer.write(span_path(report))
    return report


def _untraced(name, request_id=None):
    return nullcontext()


def _counters(records) -> dict[str, int]:
    counters = work_counters(served for _, _, served, _ in records)
    counters["incremental.reused"] = sum(outcome.reused
                                         for _, outcome, _, _ in records)
    counters["incremental.dirty_types"] = sum(
        outcome.dirty_types for _, outcome, _, _ in records)
    return counters
