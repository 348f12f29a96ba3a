"""``table2-miss``: the paper's Table 2 scenes, every query a cache miss.

In-process :class:`~repro.engine.CompletionEngine` with the server's
default configuration (standard weigher chain, paper budgets, n=10),
driven closed loop by one caller.  The scenes are a seeded draw of one
Table 2 row per size stratum, always including row 28, the largest.
Each scene is asked its own Table 2 goal first, then a seeded sample of
other Table 2 goal types that are result types of the scene.

The timed window runs passes over the scenes.  Every pass starts from a
fresh engine over fresh environment copies, so every query misses the
result cache and each scene's first query pays the cold cost a new
tenant, a respawn or an edit pays; it is timed apart as
``first_query_ms``.  The work counters come from the first pass, which
always completes, so two runs with one seed report identical counters.
"""

from __future__ import annotations

import gc
import random
import time

from common import (N_SNIPPETS, PER_LAYER, Report, SceneChecker, Tracer,
                    answer, compose_completion, median, own_peak_rss_mb,
                    p50_ms, reciprocal_rank, self_time_metrics, span_path,
                    tail, timed_setups, truncated, work_counters)

#: Size strata the scenes are drawn from (one row each).
STRATA = 6
#: Row always in the draw: the largest Table 2 scene.
LARGEST_ROW = 28
#: Further goals asked of each scene after its own Table 2 goal.
EXTRA_GOALS = 2


def draw_rows(rng: random.Random) -> list[int]:
    """One Table 2 row per size stratum; row 28 stands for its stratum."""
    from repro.bench.suite import BENCHMARKS

    ordered = sorted(BENCHMARKS, key=lambda spec: (spec.row.n_initial,
                                                   spec.number))
    rows = []
    for index in range(STRATA):
        stratum = [spec.number for spec in
                   ordered[index * len(ordered) // STRATA:
                           (index + 1) * len(ordered) // STRATA]]
        rows.append(LARGEST_ROW if LARGEST_ROW in stratum
                    else rng.choice(stratum))
    rng.shuffle(rows)
    return rows


def draw_goals(spec, scene, rng: random.Random) -> list:
    """The scene's own goal, then other Table 2 goal types it can return."""
    from repro.bench.suite import BENCHMARKS
    from repro.core.types import uncurry
    from repro.lang.parser import parse_type

    results = {uncurry(decl.type)[1].name for decl in scene.environment}
    others = sorted({other.goal for other in BENCHMARKS
                     if other.goal != spec.goal and other.goal in results})
    extra = rng.sample(others, min(EXTRA_GOALS, len(others)))
    return [scene.goal] + [parse_type(name) for name in extra]


def run(seed: int, seconds: float, trace: bool) -> Report:
    from repro.bench.matching import find_rank
    from repro.bench.suite import BENCHMARKS, build_scene
    from repro.core.environment import Environment
    from repro.core.ranking import RankingPipeline
    from repro.engine import CompletionEngine

    report = Report("table2-miss", seed, trace)
    tracer = Tracer(trace)
    rng = random.Random(seed)
    specs = [BENCHMARKS[row - 1] for row in draw_rows(rng)]

    def new_engine():
        return CompletionEngine(ranking=RankingPipeline.standard())

    def setup():
        with tracer.span("setup", tracer.new_request()):
            scenes = []
            for spec in specs:
                with tracer.span("javamodel.build_scene"):
                    scenes.append(build_scene(spec))
            engine = new_engine()
            prepared = []
            for scene in scenes:
                with tracer.span("engine.prepare"):
                    prepared.append(engine.prepare_scene(scene))
        return scenes, engine, prepared

    (scenes, engine, prepared), setup_s, setup_runs = timed_setups(setup)
    goals = [draw_goals(spec, scene, rng)
             for spec, scene in zip(specs, scenes)]

    def fresh_pass():
        """A fresh engine over fresh environment copies: all cold."""
        engine = new_engine()
        states = []
        for spec, scene in zip(specs, scenes):
            with tracer.span("engine.prepare", tracer.new_request()):
                states.append(engine.prepare(
                    Environment(tuple(scene.environment)), scene.subtypes,
                    goal=scene.goal, name=spec.name))
        return engine, states

    latency, later = [], []
    records = []          # (pass, scene index, goal index, EngineResult)
    composed_mismatch = composed_cut = 0
    untraced_by_key: dict[tuple, float] = {}
    traced_by_key: dict[tuple, list] = {}
    first_requests, later_requests = set(), set()
    reordered: dict[int, int] = {}
    start = time.perf_counter()
    collecting = 0.0
    pass_index = 0
    while True:
        if pass_index:
            # The previous pass's engine is garbage now: collect it here,
            # off the clock, not inside some query of this pass.
            engine = prepared = composer = composed = None
            began = time.perf_counter()
            gc.collect()
            collecting += time.perf_counter() - began
            engine, prepared = fresh_pass()
        # The traced run first makes one untraced pass: its engine calls
        # are the baseline for the tracing overhead.
        tracing = trace and pass_index > 0
        if tracing:
            composer, composed = fresh_pass()
        stop = False
        for scene_index, state in enumerate(prepared):
            for goal_index, goal in enumerate(goals[scene_index]):
                request = tracer.new_request() if tracing else None
                if tracing:
                    with tracer.span("op", request):
                        outcome, cut = compose_completion(
                            composed[scene_index], composer, goal, tracer)
                    (first_requests if goal_index == 0
                     else later_requests).add(request)
                began = time.perf_counter()
                if tracing:
                    with tracer.span("e2e.complete", request):
                        served = engine.complete(state, goal, n=N_SNIPPETS)
                else:
                    served = engine.complete(state, goal, n=N_SNIPPETS)
                elapsed = time.perf_counter() - began
                key = (scene_index, goal_index)
                if tracing:
                    traced_by_key.setdefault(key, []).append(elapsed)
                    if answer(outcome.result) != answer(served.result):
                        # A prover or reconstruction budget cut either side
                        # makes the answers differ by design.
                        if cut or truncated(served.result):
                            composed_cut += 1
                        else:
                            composed_mismatch += 1
                elif trace:
                    untraced_by_key[key] = elapsed
                latency.append(elapsed)
                if goal_index:
                    later.append(elapsed)
                records.append((pass_index, scene_index, goal_index, served))
                if pass_index and time.perf_counter() - start >= seconds:
                    stop = True
                    break
            if stop:
                break
        reordered[pass_index] = engine.ranking_stats()["reordered"]
        pass_index += 1
        if stop or time.perf_counter() - start >= seconds:
            break
    window = time.perf_counter() - start - collecting

    # -- answer checks (outside the timed window) --------------------------
    checkers = [SceneChecker(scene.environment, scene.subtypes)
                for scene in scenes]
    reciprocal = []
    for pass_number, scene_index, goal_index, served in records:
        report.attempted += 1
        goal = goals[scene_index][goal_index]
        bad = checkers[scene_index].failures(served.snippets, goal)
        problem = f"{bad} snippet(s) fail the type check" if bad else ""
        if goal_index == 0:
            spec = specs[scene_index]
            rank = find_rank(served.snippets, spec.expected,
                             scenes[scene_index].environment)
            if pass_number == 0:
                reciprocal.append(reciprocal_rank(rank))
            if rank is None and not problem:
                problem = "expected Table 2 snippet absent"
        if problem:
            report.fail(why=f"row {specs[scene_index].number} goal "
                            f"{goal}: {problem}")
    if composed_mismatch:
        report.fail(composed_mismatch,
                    "composed prove/reconstruct/rerank differs from "
                    "engine.complete")
    if composed_cut:
        report.notes.append(f"{composed_cut} composed answers differ from "
                            f"engine.complete after a time budget cut")

    passes: dict[int, list] = {}
    for pass_number, _, _, served in records:
        passes.setdefault(pass_number, []).append(served)
    queries_per_pass = sum(len(scene_goals) for scene_goals in goals)
    pass_counters = {number: dict(work_counters(served),
                                  **{"ranking.reordered": reordered[number]})
                     for number, served in passes.items()
                     if len(served) == queries_per_pass}
    report.counters = pass_counters[0]
    report.notes.append(f"{len(pass_counters)} full passes")
    drift = [number for number, counters in pass_counters.items()
             if counters != pass_counters[0]]
    if drift:
        report.notes.append(f"work counters of passes {drift} differ from "
                            f"pass 0 (a time budget was hit)")
    report.notes.append("rows " + ",".join(str(spec.number) for spec in specs)
                        + "; setups " + ",".join(f"{value:.3f}"
                                                 for value in setup_runs))

    if not trace:
        # First queries are timed apart: the latency metrics cover the
        # later misses, so the two cost classes never mix in one quantile.
        label, value, beyond = tail(later)
        report.set("setup_s", setup_s, f"median of {len(setup_runs)} set-ups")
        report.set("throughput_qps", len(latency) / window,
                   f"{len(latency)} queries in {window:.2f} s")
        report.set("latency_p50_ms", p50_ms(later),
                   f"n={len(later)} later misses")
        report.set("latency_tail_ms", value * 1000.0,
                   f"{label}, n={len(later)} later misses, {beyond} beyond")
        # Each drawn scene's first queries cost differently: a pooled
        # median would flip between scenes from seed to seed, so each
        # scene's median counts once in a mean over the scenes.
        per_scene: dict[int, list] = {}
        for (_, scene_index, goal_index, _), elapsed in zip(records, latency):
            if goal_index == 0:
                per_scene.setdefault(scene_index, []).append(elapsed)
        scene_medians = [median(values) for values in per_scene.values()]
        report.set("first_query_ms",
                   sum(scene_medians) / len(scene_medians) * 1000.0,
                   f"mean over {len(scene_medians)} scenes of each scene's "
                   f"median first query, "
                   f"{sum(map(len, per_scene.values()))} samples")
        report.set("sustained_qps", len(latency) / window,
                   "closed loop, one caller: equals throughput")
        report.not_applicable.add("sustained_qps")
        report.set("mrr", sum(reciprocal) / len(reciprocal),
                   f"{len(reciprocal)} Table 2 goals, first pass")
        report.set("peak_rss_mb", own_peak_rss_mb(), "this process")
        return report

    shared = sorted(set(untraced_by_key) & set(traced_by_key))
    overhead_ms = (median([value for key in shared
                           for value in traced_by_key[key]])
                   - median([untraced_by_key[key] for key in shared])) * 1000
    _per_layer(report, tracer, first_requests, later_requests,
               (overhead_ms, len(shared)))
    tracer.write(span_path(report))
    return report


def _per_layer(report: Report, tracer: Tracer, first_requests,
               later_requests, overhead: tuple[float, int]) -> None:
    counters = report.counters
    for name in PER_LAYER:
        report.na(name)
    ms = 1000.0
    report.set("javamodel.scene_build_ms",
               median(tracer.durations("javamodel.build_scene")) * ms,
               "median per scene")
    report.set("engine.prepare_ms",
               median(tracer.durations("engine.prepare")) * ms,
               f"median of {len(tracer.durations('engine.prepare'))}")
    report.set("engine.cache_hit_ratio",
               counters["engine.cache_hits"] / max(counters["queries"], 1),
               "first pass")
    for name in ("engine.cache_hits", "engine.cache_misses",
                 "core.explore_nodes", "core.explore_edges", "core.patterns",
                 "core.recon_enqueued", "core.recon_emitted",
                 "core.truncated", "ranking.reordered"):
        report.set(name, counters[name], "exact, first pass")
    report.set("core.recon_yield", counters["core.recon_emitted"]
               / max(counters["core.recon_enqueued"], 1), "emitted/enqueued")
    report.set("core.prove_ms",
               median(tracer.durations("core.prove", later_requests)) * ms,
               f"n={len(later_requests)} later misses")
    report.set("core.recon_ms",
               median(tracer.durations("core.reconstruct",
                                 later_requests)) * ms)
    report.set("core.first_prove_ms",
               median(tracer.durations("core.prove", first_requests)) * ms,
               f"n={len(first_requests)} first queries")
    report.set("core.first_recon_ms",
               median(tracer.durations("core.reconstruct",
                                 first_requests)) * ms)
    reranks = tracer.durations("ranking.rerank")
    report.set("ranking.rerank_us", median(reranks) * 1e6,
               f"n={len(reranks)}")
    report.set("ranking.reordered_share",
               counters["ranking.reordered"] / max(counters["queries"], 1),
               "first pass")
    report.set("trace.overhead_ms", overhead[0],
               f"traced minus untraced engine.complete medians over "
               f"{overhead[1]} shared queries")
    report.counters["trace.spans"] = len(tracer.spans)
    operations = len(first_requests) + len(later_requests)
    for name, value in self_time_metrics(tracer, operations).items():
        report.set(name, value, "self time per op")
