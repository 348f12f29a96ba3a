"""Command-line interface: InSynth as a terminal tool.

The subcommands mirror the library's main entry points::

    python -m repro.cli synthesize SCENE.ins [--n 10] [--variant full]
    python -m repro.cli batch SCENE.ins [SCENE2.ins ...] [--goals T1,T2]
    python -m repro.cli edit-session SCENE.ins --script STEPS.json
    python -m repro.cli warm SCENE.ins [--goals T1,T2] [--variants ...]
    python -m repro.cli serve [--port 8777] [--workers N] [--snapshot F]
    python -m repro.cli route [--backends N] [--journal F] [--snapshot-dir D]
    python -m repro.cli loadgen [--chaos] [--check BENCH_serve.json]
    python -m repro.cli bench [--rows 9,15,44] [--variants full,no_corpus]
    python -m repro.cli stats [--host H] [--port P] [--json]
    python -m repro.cli corpus-stats

``synthesize`` loads a scene written in the declaration language (see
`repro.lang`), runs the requested algorithm variant and prints the ranked
suggestions — the closest a terminal gets to the paper's Ctrl+Space.
``batch`` serves many goals over many scenes in one invocation through the
:class:`~repro.engine.CompletionEngine` (optionally on a process pool);
with ``-`` (or ``--stdin``) it instead reads one JSON query per stdin
line — ``{"scene": "a.ins", "goal": "Reader", "variant": "full", "n": 5}``
— which is how the load tools pipe workloads in.  ``edit-session``
replays a scripted incremental session (`repro.incremental`): it opens
the scene as a :class:`~repro.incremental.SceneSession`, then walks a
JSON list of ``{"edit": [ops]}`` / ``{"complete": {...}}`` steps,
printing each delta outcome and ranked completion; with
``--connect HOST:PORT`` the same script drives a running server or
router over protocol v2 (``/v1/edit-scene``) instead, and ``--stream``
consumes completions as NDJSON chunks as the backend emits them.
``warm`` pre-populates
the engine's result cache and reports the cold/warm speedup.  ``serve``
runs the long-lived asyncio completion server (`repro.server`); with
``--workers N`` cache-miss syntheses fan out over a process pool for real
CPU parallelism, and with ``--snapshot PATH`` the result cache persists
across restarts (restored at startup, re-saved as syntheses land).
``route`` runs the sharded router (`repro.server.router`): it spawns and
supervises N backend servers, routes scenes over a consistent hash ring,
journals every registration for replica warm-up, and aggregates backend
stats; ``--check-config`` validates the shard map and exits (CI's
fail-fast dry run).  ``loadgen`` is the trace-driven load/chaos/SLO
harness (`repro.loadgen`): it generates (or loads) a reproducible
workload trace, replays it against a spawned or attached topology,
optionally SIGKILLs backends mid-burst (``--chaos``), and emits/gates
the ``BENCH_serve.json`` report (``--output`` / ``--check``) — the
serving-side twin of ``repro.bench.core_bench``.  ``bench`` runs Table 2
rows; ``stats`` pretty-prints a
running server's ``/v1/stats`` (cache, intern-table and environment-arena
counters); ``corpus-stats`` prints the §7.3 marginals.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.config import SynthesisConfig
from repro.core.errors import ReproError
from repro.core.synthesizer import Synthesizer


def _add_context_flags(parser: argparse.ArgumentParser) -> None:
    """Per-query ranking hints (``CompletionContext``), shared by the
    commands that serve ranked snippets."""
    parser.add_argument("--receiver-type", default=None, metavar="TYPE",
                        help="ranking hint: the type of the receiver "
                             "expression at the cursor")
    parser.add_argument("--enclosing-class", default=None, metavar="NAME",
                        help="ranking hint: the class whose body holds "
                             "the cursor")
    parser.add_argument("--position-kind", default=None,
                        choices=("expression", "after_new",
                                 "member_access", "statement"),
                        help="ranking hint: what kind of hole the cursor "
                             "sits in")


def _context_from_args(args: argparse.Namespace):
    """Build a CompletionContext from the CLI hint flags, or None."""
    from repro.core.ranking import CompletionContext

    payload = {}
    if getattr(args, "receiver_type", None):
        payload["receiver_type"] = args.receiver_type
    if getattr(args, "enclosing_class", None):
        payload["enclosing_class"] = args.enclosing_class
    if getattr(args, "position_kind", None):
        payload["position_kind"] = args.position_kind
    if not payload:
        return None
    return CompletionContext.from_payload(payload)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Complete completion using types and weights "
                    "(PLDI 2013 reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    synthesize = commands.add_parser(
        "synthesize", help="synthesize snippets for a declaration-file scene")
    synthesize.add_argument("scene", help="path to a .ins environment file")
    synthesize.add_argument("--n", type=int, default=10,
                            help="number of snippets to return (default 10)")
    synthesize.add_argument("--variant", default="full",
                            choices=("full", "no_corpus", "no_weights"),
                            help="weight-policy variant (default full)")
    synthesize.add_argument("--goal", default=None,
                            help="override the file's goal type")
    synthesize.add_argument("--show-weights", action="store_true",
                            help="print each snippet's weight")
    synthesize.add_argument("--prover-limit", type=float, default=0.5,
                            help="prover time budget, seconds (default 0.5)")
    synthesize.add_argument("--recon-limit", type=float, default=7.0,
                            help="reconstruction budget, seconds (default 7)")
    synthesize.add_argument("--rerank", action="store_true",
                            help="apply the standard post-reconstruction "
                                 "weigher chain (any context hint flag "
                                 "implies this)")
    _add_context_flags(synthesize)

    batch = commands.add_parser(
        "batch", help="serve many goals/scenes in one engine invocation")
    batch.add_argument("scenes", nargs="*",
                       help="paths to .ins environment files; '-' reads "
                            "JSON queries (one per line) from stdin")
    batch.add_argument("--stdin", action="store_true",
                       help="read JSON queries from stdin (same as '-')")
    batch.add_argument("--goals", default=None,
                       help="comma-separated goal types queried on every "
                            "scene (default: each scene's own goal)")
    batch.add_argument("--n", type=int, default=10,
                       help="snippets per query (default 10)")
    batch.add_argument("--variant", default="full",
                       choices=("full", "no_corpus", "no_weights"),
                       help="weight-policy variant (default full)")
    batch.add_argument("--workers", type=int, default=1,
                       help="process-pool workers (default 1 = sequential)")
    batch.add_argument("--show-weights", action="store_true",
                       help="print each snippet's weight")

    edit_session = commands.add_parser(
        "edit-session",
        help="replay a scripted incremental edit/complete session")
    edit_session.add_argument("scene", help="path to the opening .ins scene")
    edit_session.add_argument("--script", required=True, metavar="PATH",
                              help="JSON session script: a list (or "
                                   "{\"steps\": [...]}) of {\"edit\": [ops]} "
                                   "/ {\"complete\": {...}} steps")
    edit_session.add_argument("--connect", default=None, metavar="HOST:PORT",
                              help="drive a running server/router over the "
                                   "wire protocol instead of an in-process "
                                   "engine session")
    edit_session.add_argument("--stream", action="store_true",
                              help="consume completions as NDJSON chunks "
                                   "(requires --connect)")
    edit_session.add_argument("--n", type=int, default=5,
                              help="snippets per completion unless the step "
                                   "overrides it (default 5)")
    edit_session.add_argument("--variant", default="full",
                              choices=("full", "no_corpus", "no_weights"),
                              help="weight-policy variant unless the step "
                                   "overrides it (default full)")
    _add_context_flags(edit_session)
    edit_session.add_argument("--show-weights", action="store_true",
                              help="print each snippet's weight")

    serve = commands.add_parser(
        "serve", help="run the long-lived asyncio completion server")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8777,
                       help="bind port; 0 picks an ephemeral port "
                            "(default 8777)")
    serve.add_argument("--scenes", nargs="*", default=[],
                       help=".ins files to pre-register at startup")
    serve.add_argument("--max-pending", type=int, default=64,
                       help="admission-control bound on queued syntheses "
                            "(default 64)")
    serve.add_argument("--max-scenes", type=int, default=32,
                       help="registered-scene LRU size (default 32)")
    serve.add_argument("--executor-workers", type=int, default=4,
                       help="synthesis executor threads (default 4)")
    serve.add_argument("--workers", type=int, default=1,
                       help="synthesis process-pool workers (default 1 = "
                            "threads only; N > 1 adds CPU throughput by "
                            "fanning cache misses over N processes)")
    serve.add_argument("--deadline-ms", type=int, default=None,
                       help="default per-request deadline when the client "
                            "sends none")
    serve.add_argument("--gc-tune", action="store_true",
                       help="tune the collector for serving: freeze each "
                            "prepared scene into the permanent generation "
                            "and raise the collection thresholds (gen-2 "
                            "pauses are the main warm-latency noise)")
    serve.add_argument("--gc-thresholds", default=None, metavar="G0[,G1,G2]",
                       help="collection thresholds applied with --gc-tune "
                            "(default 50000,25,25)")
    serve.add_argument("--snapshot", default=None, metavar="PATH",
                       help="result-cache snapshot file: restored at "
                            "startup (warm replica start) and re-saved "
                            "after syntheses and on shutdown")
    serve.add_argument("--snapshot-interval", type=float, default=0.0,
                       help="minimum seconds between snapshot saves "
                            "(default 0 = save after every synthesis)")
    serve.add_argument("--project-weights", default=None, metavar="PATH",
                       help="per-project weight tables JSON (a "
                            "ProjectWeightTables.save document) feeding the "
                            "ranking stage; the merged global table is the "
                            "fallback for unattributed scenes")
    serve.add_argument("--no-rerank", action="store_true",
                       help="serve base corpus-weight order (disable the "
                            "post-reconstruction weigher chain)")
    serve.add_argument("--inject-latency-ms", type=int, default=0,
                       help="debug fault injection: sleep this long before "
                            "serving each completion — a gray-failed "
                            "(alive but slow) backend for chaos tests "
                            "(default 0 = off)")

    route = commands.add_parser(
        "route", help="run the sharded completion router over N backends")
    route.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    route.add_argument("--port", type=int, default=8787,
                       help="bind port; 0 picks an ephemeral port "
                            "(default 8787)")
    route.add_argument("--backends", type=int, default=2,
                       help="backend server processes to spawn and "
                            "supervise (default 2)")
    route.add_argument("--attach", default=None, metavar="H:P[,H:P...]",
                       help="route over already-running backends instead "
                            "of spawning (comma-separated host:port)")
    route.add_argument("--journal", default=None, metavar="PATH",
                       help="durable scene journal (JSONL); replayed "
                            "into backends on restart/scale-up")
    route.add_argument("--snapshot-dir", default=None, metavar="DIR",
                       help="per-backend result-cache snapshot directory "
                            "so respawned replicas start warm")
    route.add_argument("--replication", type=int, default=2,
                       help="distinct ring owners per scene (default 2: "
                            "one SIGKILL never stalls a scene)")
    route.add_argument("--ring-replicas", type=int, default=64,
                       help="virtual nodes per backend on the hash ring "
                            "(default 64)")
    route.add_argument("--scenes", nargs="*", default=[],
                       help=".ins files to pre-register at startup")
    route.add_argument("--workers", type=int, default=None,
                       help="per-backend synthesis process-pool workers "
                            "(forwarded to each spawned repro serve)")
    route.add_argument("--max-scenes", type=int, default=None,
                       help="per-backend registered-scene LRU size "
                            "(forwarded to each spawned repro serve)")
    route.add_argument("--check-config", action="store_true",
                       help="validate the configuration (shard map, "
                            "journal, snapshot dir) and exit without "
                            "spawning anything — CI's fail-fast dry run")

    warm = commands.add_parser(
        "warm", help="pre-populate the engine result cache for a scene")
    warm.add_argument("scene", help="path to a .ins environment file")
    warm.add_argument("--goals", default=None,
                      help="comma-separated goal types (default: the "
                           "scene's own goal)")
    warm.add_argument("--variants", default="full",
                      help="comma-separated variants to warm (default full)")
    warm.add_argument("--n", type=int, default=10,
                      help="snippets per query (default 10)")

    bench = commands.add_parser("bench",
                                help="run Table 2 benchmark rows")
    bench.add_argument("--rows", default=None,
                       help="comma-separated row numbers (default: all 50)")
    bench.add_argument("--variants", default="no_weights,no_corpus,full",
                       help="comma-separated variants to run")
    bench.add_argument("--n", type=int, default=10)
    bench.add_argument("--repeats", type=int, default=3,
                       help="timing runs per row; the median-total run's "
                            "prove/recon/total is reported (default 3, "
                            "the re-baselining convention)")
    bench.add_argument("--csv", default=None, metavar="PATH",
                       help="also write the rows as CSV (how the committed "
                            "benchmarks/out/table2.csv is refreshed)")
    bench.add_argument("--json", default=None, metavar="PATH",
                       help="also write the rows as JSON (how the committed "
                            "benchmarks/out/table2.json is refreshed)")

    loadgen = commands.add_parser(
        "loadgen",
        help="trace-driven load, chaos, and SLO harness for the "
             "serving stack")
    loadgen.add_argument("--profile", default="ci",
                         choices=("smoke", "ci", "soak"),
                         help="workload scale preset (default ci — the "
                              "committed BENCH_serve.json workload)")
    loadgen.add_argument("--seed", type=int, default=None,
                         help="explicit trace seed threaded through every "
                              "stochastic path and into the report "
                              "(default: the profile's seed)")
    loadgen.add_argument("--emit-trace", default=None, metavar="PATH",
                         help="generate the trace, write it to PATH, and "
                              "exit without replaying (byte-identical for "
                              "identical seed/profile)")
    loadgen.add_argument("--trace", default=None, metavar="PATH",
                         help="replay this trace file instead of "
                              "generating one")
    loadgen.add_argument("--backends", type=int, default=2,
                         help="backends of the spawned router topology "
                              "(default 2)")
    loadgen.add_argument("--replication", type=int, default=2,
                         help="replica owners per scene in the spawned "
                              "topology (default 2)")
    loadgen.add_argument("--attach", default=None, metavar="HOST:PORT",
                         help="drive an already-running server/router "
                              "instead of spawning a topology (chaos "
                              "needs a supervised router)")
    loadgen.add_argument("--chaos", action="store_true",
                         help="SIGKILL backend(s) mid-burst and require "
                              "recovery inside the error budget with "
                              "post-respawn warm hits")
    loadgen.add_argument("--kills", type=int, default=1,
                         help="backends to kill with --chaos (default 1)")
    loadgen.add_argument("--slow", action="store_true",
                         help="with --chaos: SIGSTOP backend(s) mid-burst "
                              "instead of SIGKILL (the gray failure — "
                              "alive, accepting, stalled), SIGCONT after "
                              "--stall-s; recovery means rejoining, not "
                              "respawning")
    loadgen.add_argument("--stall-s", type=float, default=2.0,
                         help="SIGSTOP hold per --slow stall, scaled by "
                              "--time-scale (default 2.0)")
    loadgen.add_argument("--deadline-ms", type=int, default=None,
                         help="stamp this end-to-end deadline (and budget) "
                              "on every replayed completion; "
                              "deadline_exceeded answers land in their "
                              "own report bucket, not the error budget")
    loadgen.add_argument("--time-scale", type=float, default=1.0,
                         help="multiply trace timestamps (0.5 = replay "
                              "twice as fast; default 1.0)")
    loadgen.add_argument("--workdir", default=None, metavar="DIR",
                         help="journal/snapshot directory for the spawned "
                              "topology (default: a fresh temp dir)")
    loadgen.add_argument("--output", default=None, metavar="PATH",
                         help="write the measured BENCH_serve.json report "
                              "to this path")
    loadgen.add_argument("--check", default=None,
                         metavar="BENCH_serve.json",
                         help="compare against a committed report and fail "
                              "on p95 regression, SLO violation, or lost "
                              "chaos coverage")
    loadgen.add_argument("--max-regression", type=float, default=0.25,
                         help="allowed fractional summed-p95 regression "
                              "for --check (default 0.25)")

    stats = commands.add_parser(
        "stats", help="fetch and pretty-print a running server's /v1/stats")
    stats.add_argument("--host", default="127.0.0.1",
                       help="server address (default 127.0.0.1)")
    stats.add_argument("--port", type=int, default=8777,
                       help="server port (default 8777)")
    stats.add_argument("--json", action="store_true",
                       help="print the raw JSON payload instead")

    commands.add_parser("corpus-stats",
                        help="print the §7.3 corpus marginals")
    return parser


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from repro.bench.runner import policy_for
    from repro.lang.loader import load_environment_file
    from repro.lang.parser import parse_type

    loaded = load_environment_file(args.scene)
    goal = parse_type(args.goal) if args.goal else loaded.goal
    if goal is None:
        print("error: the scene has no goal; pass --goal TYPE",
              file=sys.stderr)
        return 2

    config = SynthesisConfig(max_snippets=args.n,
                             prover_time_limit=args.prover_limit,
                             reconstruction_time_limit=args.recon_limit)
    synthesizer = Synthesizer(loaded.environment,
                              policy=policy_for(args.variant),
                              config=config, subtypes=loaded.subtypes)
    result = synthesizer.synthesize(goal, n=args.n)

    try:
        context = _context_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reranked = False
    if args.rerank or context is not None:
        from repro.core.ranking import RankingPipeline

        outcome = RankingPipeline.standard().rerank(
            result, loaded.environment, context)
        result, reranked = outcome.result, outcome.applied

    print(f"goal: {goal}   ({len(loaded.environment)} declarations, "
          f"variant {args.variant})")
    if not result.inhabited:
        print("the goal type is not inhabited in this environment")
        return 1
    for snippet in result.snippets:
        if args.show_weights:
            print(f"{snippet.rank:>3}. [{snippet.weight:8.1f}] {snippet.code}")
        else:
            print(f"{snippet.rank:>3}. {snippet.code}")
    print(f"-- prove {result.prove_seconds * 1000:.0f} ms, "
          f"reconstruct {result.reconstruction_seconds * 1000:.0f} ms"
          f"{', reranked' if reranked else ''}")
    return 0


def _parse_goals(raw: Optional[str]):
    from repro.lang.parser import parse_type

    if not raw:
        return None
    return [parse_type(part.strip()) for part in raw.split(",")
            if part.strip()]


def _read_stdin_queries(stream) -> list[dict]:
    """Parse one JSON query object per line (blank lines skipped)."""
    import json

    from repro.engine.engine import VARIANTS as valid_variants

    entries = []
    for number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"stdin line {number}: invalid JSON: {exc}")
        if not isinstance(entry, dict) or "scene" not in entry:
            raise ValueError(
                f"stdin line {number}: expected an object with a 'scene' "
                f"path, got {line[:60]!r}")
        if not isinstance(entry["scene"], str):
            raise ValueError(
                f"stdin line {number}: 'scene' must be a path string")
        if not isinstance(entry.get("goal", ""), str):
            raise ValueError(
                f"stdin line {number}: 'goal' must be a type string")
        if entry.get("variant", "full") not in valid_variants:
            raise ValueError(
                f"stdin line {number}: 'variant' must be one of "
                f"{valid_variants}")
        n = entry.get("n", 1)
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(
                f"stdin line {number}: 'n' must be a positive integer")
        entries.append(entry)
    return entries


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.engine import CompletionEngine, EngineQuery
    from repro.lang.loader import load_environment_file
    from repro.lang.parser import parse_type

    use_stdin = args.stdin or "-" in args.scenes
    scene_paths = [path for path in args.scenes if path != "-"]
    if not use_stdin and not scene_paths:
        print("error: pass scene files, or '-'/--stdin for JSON queries "
              "on stdin", file=sys.stderr)
        return 2

    goals = _parse_goals(args.goals)
    engine = CompletionEngine()
    prepared_by_path: dict = {}

    def _prepared(path: str):
        prepared = prepared_by_path.get(path)
        if prepared is None:
            loaded = load_environment_file(path)
            prepared = engine.prepare(loaded.environment, loaded.subtypes,
                                      goal=loaded.goal, name=path)
            prepared_by_path[path] = prepared
        return prepared

    queries: list[EngineQuery] = []
    labels: list[tuple[str, object]] = []
    for path in scene_paths:
        prepared = _prepared(path)
        scene_goals = goals if goals is not None else [prepared.goal]
        for goal in scene_goals:
            if goal is None:
                print(f"error: scene {path} has no goal; pass --goals",
                      file=sys.stderr)
                return 2
            queries.append(EngineQuery(goal=goal, scene=prepared,
                                       variant=args.variant, n=args.n))
            labels.append((path, goal))

    if use_stdin:
        try:
            entries = _read_stdin_queries(sys.stdin)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for entry in entries:
            prepared = _prepared(entry["scene"])
            goal = (parse_type(entry["goal"]) if entry.get("goal")
                    else prepared.goal)
            if goal is None:
                print(f"error: stdin query for {entry['scene']} has no "
                      f"goal (scene defines none)", file=sys.stderr)
                return 2
            queries.append(EngineQuery(
                goal=goal, scene=prepared,
                variant=entry.get("variant", args.variant),
                n=entry.get("n", args.n)))
            labels.append((entry["scene"], goal))

    if not queries:
        print("error: no queries (stdin was empty?)", file=sys.stderr)
        return 2

    served = engine.complete_batch(queries, max_workers=args.workers)

    failures = 0
    for (path, goal), query, outcome in zip(labels, queries, served):
        result = outcome.result
        source = "cache" if outcome.cache_hit else "computed"
        print(f"== {path} :: goal {goal}  "
              f"[{query.variant}, {source}, "
              f"{result.total_seconds * 1000:.0f} ms]")
        if not result.inhabited:
            failures += 1
            print("   (not inhabited)")
            continue
        for snippet in result.snippets:
            if args.show_weights:
                print(f"  {snippet.rank:>3}. [{snippet.weight:8.1f}] "
                      f"{snippet.code}")
            else:
                print(f"  {snippet.rank:>3}. {snippet.code}")
    print(f"-- {len(served)} queries over {len(prepared_by_path)} scenes; "
          f"cache: {engine.cache_stats.as_text()}")
    return 1 if failures else 0


def _session_steps(raw) -> list[dict]:
    """Validate a session script into its step list, or raise ValueError."""
    steps = raw.get("steps") if isinstance(raw, dict) else raw
    if not isinstance(steps, list) or not steps:
        raise ValueError("session script must be a non-empty JSON list "
                         "(or {\"steps\": [...]}) of steps")
    for number, step in enumerate(steps, start=1):
        if (not isinstance(step, dict) or len(step) != 1
                or next(iter(step)) not in ("edit", "complete")):
            raise ValueError(
                f"step {number}: expected exactly one of 'edit' or "
                f"'complete', got {step!r}")
        kind, body = next(iter(step.items()))
        if kind == "edit" and not (isinstance(body, list) and body):
            raise ValueError(
                f"step {number}: 'edit' must be a non-empty list of "
                f"delta ops")
        if kind == "complete" and not isinstance(body, (dict, type(None))):
            raise ValueError(f"step {number}: 'complete' must be an object")
    return steps


def _print_ranked(snippets, show_weights: bool) -> None:
    """Print (rank, weight, code) triples — objects or wire dicts."""
    for snippet in snippets:
        if isinstance(snippet, dict):
            rank, weight, code = (snippet["rank"], snippet["weight"],
                                  snippet["code"])
        else:
            rank, weight, code = snippet.rank, snippet.weight, snippet.code
        if show_weights:
            print(f"  {rank:>3}. [{weight:8.1f}] {code}")
        else:
            print(f"  {rank:>3}. {code}")


def _step_context(args: argparse.Namespace, spec: dict):
    """The step's own ``context`` object, else the CLI hint flags."""
    from repro.core.ranking import CompletionContext

    raw = spec.get("context")
    if raw:
        return CompletionContext.from_payload(raw)
    return _context_from_args(args)


def _edit_session_offline(args: argparse.Namespace, steps: list[dict]) -> int:
    from repro.core.ranking import RankingPipeline
    from repro.engine import CompletionEngine
    from repro.lang.loader import load_environment_file
    from repro.lang.parser import parse_type

    loaded = load_environment_file(args.scene)
    # The CLI session is an editor front end, so it ranks like the
    # server: standard weigher chain over the base engine results.
    engine = CompletionEngine(ranking=RankingPipeline.standard())
    prepared = engine.prepare(loaded.environment, loaded.subtypes,
                              goal=loaded.goal, name=args.scene)
    session = engine.open_session(prepared, name=args.scene)
    print(f"session: {args.scene} ({len(session)} declarations, "
          f"goal {session.goal})")
    for number, step in enumerate(steps, start=1):
        kind, body = next(iter(step.items()))
        if kind == "edit":
            outcome = session.apply_delta(body)
            state = ("reused warm state" if outcome.reused else
                     f"re-prepared, {outcome.dirty_types} dirty type(s)")
            print(f"[{number}] edit +{list(outcome.added)} "
                  f"-{list(outcome.removed)} -> "
                  f"{outcome.declarations} declarations ({state})")
        else:
            spec = body or {}
            goal = parse_type(spec["goal"]) if spec.get("goal") else None
            if goal is None and session.goal is None:
                print(f"error: step {number}: the scene has no goal; give "
                      f"the step a \"goal\"", file=sys.stderr)
                return 2
            variant = spec.get("variant", args.variant)
            try:
                context = _step_context(args, spec)
            except ValueError as exc:
                print(f"error: step {number}: {exc}", file=sys.stderr)
                return 2
            served = session.complete(goal, variant=variant,
                                      n=spec.get("n", args.n),
                                      context=context)
            source = "cache" if served.cache_hit else "computed"
            print(f"[{number}] complete goal {goal or session.goal} "
                  f"[{variant}, {source}"
                  f"{', reranked' if served.reranked else ''}]")
            _print_ranked(served.result.snippets, args.show_weights)
    print(f"-- generation {session.generation}, "
          f"{session.ops_applied} ops applied; "
          f"cache: {engine.cache_stats.as_text()}")
    return 0


def _edit_session_live(args: argparse.Namespace, steps: list[dict],
                       host: str, port: int) -> int:
    import asyncio
    from pathlib import Path

    from repro.server.client import AsyncCompletionClient

    text = Path(args.scene).read_text(encoding="utf-8")

    async def _run() -> int:
        async with AsyncCompletionClient(host, port) as client:
            registered = await client.register_scene(text, name=args.scene)
            scene_id = registered["scene_id"]
            print(f"session: {args.scene} -> {scene_id} "
                  f"({registered['declarations']} declarations, "
                  f"goal {registered.get('goal')})")
            for number, step in enumerate(steps, start=1):
                kind, body = next(iter(step.items()))
                if kind == "edit":
                    response = await client.edit_scene(scene_id, body,
                                                       name=args.scene)
                    scene_id = response["scene_id"]
                    state = ("reused warm state" if response.get("reused")
                             else "re-prepared")
                    print(f"[{number}] edit +{response.get('added')} "
                          f"-{response.get('removed')} -> {scene_id} "
                          f"({response.get('declarations')} declarations, "
                          f"{state})")
                    continue
                spec = body or {}
                variant = spec.get("variant", args.variant)
                try:
                    context = _step_context(args, spec)
                except ValueError as exc:
                    print(f"error: step {number}: {exc}", file=sys.stderr)
                    return 2
                kwargs = dict(goal=spec.get("goal"), variant=variant,
                              n=spec.get("n", args.n), context=context)
                if args.stream:
                    print(f"[{number}] complete [{variant}, streaming]")
                    async for chunk in client.complete_stream(scene_id,
                                                              **kwargs):
                        if chunk["chunk"] == "snippet":
                            _print_ranked([chunk], args.show_weights)
                        elif chunk["chunk"] == "done":
                            source = ("cache" if chunk.get("cache_hit")
                                      else "computed")
                            print(f"  -- done: goal {chunk.get('goal')} "
                                  f"[{source}, "
                                  f"{len(chunk.get('snippets', []))} "
                                  f"snippets]")
                else:
                    response = await client.complete(scene_id, **kwargs)
                    source = ("cache" if response.get("cache_hit")
                              else "computed")
                    print(f"[{number}] complete goal {response.get('goal')} "
                          f"[{variant}, {source}]")
                    _print_ranked(response.get("snippets", []),
                                  args.show_weights)
        return 0

    return asyncio.run(_run())


def _cmd_edit_session(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    try:
        raw = json.loads(Path(args.script).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: cannot read session script: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: session script {args.script} is not valid JSON: "
              f"{exc}", file=sys.stderr)
        return 2
    try:
        steps = _session_steps(raw)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.connect is None:
        if args.stream:
            print("error: --stream needs --connect (streaming is a wire "
                  "feature; the in-process session ranks synchronously)",
                  file=sys.stderr)
            return 2
        return _edit_session_offline(args, steps)

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"error: --connect expects HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    return _edit_session_live(args, steps, host, int(port_text))


def _serve_until_stopped(serve_forever) -> "object":
    """Run an awaitable server loop until SIGTERM/SIGINT, then return.

    `asyncio.run` only turns SIGINT into KeyboardInterrupt; a plain
    SIGTERM (systemd stop, `process.terminate()` in the smoke harness)
    would kill the process before any `finally` runs — leaking supervised
    backend children and skipping the snapshot shutdown flush.  Where the
    platform supports it, both signals resolve to a clean return so the
    caller's `finally: close()` always executes.
    """
    import asyncio
    import signal

    async def _run():
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        hooked = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
                hooked.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass                        # non-main thread / platform
        serve_task = asyncio.ensure_future(serve_forever())
        stop_task = asyncio.ensure_future(stop.wait())
        try:
            await asyncio.wait({serve_task, stop_task},
                               return_when=asyncio.FIRST_COMPLETED)
            if serve_task.done():
                serve_task.result()         # surface server crashes
        finally:
            for task in (serve_task, stop_task):
                task.cancel()
            for signum in hooked:
                loop.remove_signal_handler(signum)

    return _run()


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from repro.server import AsyncCompletionServer, ServerConfig
    from repro.server.protocol import MAX_DEADLINE_MS

    if args.deadline_ms is not None and not (
            1 <= args.deadline_ms <= MAX_DEADLINE_MS):
        print(f"error: --deadline-ms must be between 1 and "
              f"{MAX_DEADLINE_MS}, got {args.deadline_ms}", file=sys.stderr)
        return 2
    for flag, value in (("--max-pending", args.max_pending),
                        ("--max-scenes", args.max_scenes),
                        ("--executor-workers", args.executor_workers),
                        ("--workers", args.workers)):
        if value < 1:
            print(f"error: {flag} must be at least 1, got {value}",
                  file=sys.stderr)
            return 2
    gc_thresholds = ServerConfig.gc_thresholds
    if args.gc_thresholds is not None:
        try:
            parts = [int(part) for part in args.gc_thresholds.split(",")]
        except ValueError:
            parts = []
        if not 1 <= len(parts) <= 3 or any(part < 1 for part in parts):
            print(f"error: --gc-thresholds expects 1-3 positive integers "
                  f"(G0[,G1,G2]), got {args.gc_thresholds!r}",
                  file=sys.stderr)
            return 2
        gc_thresholds = tuple(parts + list(gc_thresholds[len(parts):]))
        if not args.gc_tune:
            print("warning: --gc-thresholds has no effect without "
                  "--gc-tune", file=sys.stderr)
    if args.snapshot_interval < 0:
        print(f"error: --snapshot-interval must be >= 0, got "
              f"{args.snapshot_interval}", file=sys.stderr)
        return 2
    if args.inject_latency_ms < 0:
        print(f"error: --inject-latency-ms must be >= 0, got "
              f"{args.inject_latency_ms}", file=sys.stderr)
        return 2
    if args.project_weights is not None:
        # Fail fast with the CLI's usual error contract, before binding
        # the port; the server re-loads the file itself at start().
        from repro.corpus.mining import ProjectWeightTables
        try:
            ProjectWeightTables.load(args.project_weights)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    config = ServerConfig(host=args.host, port=args.port,
                          max_pending=args.max_pending,
                          max_scenes=args.max_scenes,
                          executor_workers=args.executor_workers,
                          workers=args.workers,
                          default_deadline_ms=args.deadline_ms,
                          gc_tune=args.gc_tune,
                          gc_thresholds=gc_thresholds,
                          snapshot_path=args.snapshot,
                          snapshot_interval=args.snapshot_interval,
                          inject_latency_ms=args.inject_latency_ms,
                          rerank=not args.no_rerank,
                          project_weights_path=args.project_weights)
    server = AsyncCompletionServer(config=config)

    # Read the preload scenes before binding the port, so a typo'd path
    # fails fast with the CLI's usual error contract.
    scene_texts = []
    for path in args.scenes:
        try:
            scene_texts.append((path, Path(path).read_text(encoding="utf-8")))
        except OSError as exc:
            print(f"error: cannot read scene {path}: {exc}", file=sys.stderr)
            return 2

    async def _run() -> None:
        try:
            await server.start()
            print(f"serving on http://{server.host}:{server.port}",
                  flush=True)
            if args.snapshot is not None:
                print(f"snapshot: restored "
                      f"{server.metrics.snapshot_restored} "
                      f"cached results from {args.snapshot}", flush=True)
            for path, text in scene_texts:
                scene, already = await server.register_scene_text(text,
                                                                  name=path)
                state = "already registered" if already else "registered"
                print(f"scene {scene.scene_id} {state}: {path} "
                      f"({scene.declarations} declarations)", flush=True)
            await _serve_until_stopped(server.serve_forever)
        finally:
            await server.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from repro.server.router import (CompletionRouter, RouterConfig,
                                     check_config)

    attach = tuple(part.strip() for part in (args.attach or "").split(",")
                   if part.strip())
    backend_args: list[str] = []
    for flag, value in (("--workers", args.workers),
                        ("--max-scenes", args.max_scenes)):
        if value is not None:
            if value < 1:
                print(f"error: {flag} must be at least 1, got {value}",
                      file=sys.stderr)
                return 2
            backend_args += [flag, str(value)]
    config = RouterConfig(host=args.host, port=args.port,
                          backends=args.backends, attach=attach,
                          journal_path=args.journal,
                          snapshot_dir=args.snapshot_dir,
                          ring_replicas=args.ring_replicas,
                          replication=args.replication,
                          backend_args=tuple(backend_args))

    # The dry run reads and validates the journal's contents; the real
    # startup path checks only paths/permissions — the router is about to
    # parse (and possibly compact) the file itself, so a second full read
    # would just double startup I/O.
    problems = check_config(config, read_journal=args.check_config)
    if args.check_config:
        mode = (f"attach {len(attach)} backend(s)" if attach
                else f"spawn {args.backends} backend(s)")
        print(f"router config: {mode}, replication {args.replication}, "
              f"ring replicas {args.ring_replicas}, journal "
              f"{args.journal or '(memory only)'}, snapshots "
              f"{args.snapshot_dir or '(disabled)'}")
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        print("config " + ("INVALID" if problems else "OK"))
        return 2 if problems else 0
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2

    # Read preload scenes before spawning anything, like `repro serve`.
    scene_texts = []
    for path in args.scenes:
        try:
            scene_texts.append((path, Path(path).read_text(encoding="utf-8")))
        except OSError as exc:
            print(f"error: cannot read scene {path}: {exc}", file=sys.stderr)
            return 2

    router = CompletionRouter(config=config)

    async def _run() -> None:
        # One enclosing try: a failure while spawning backend k must
        # still terminate backends 0..k-1, and a SIGTERM must reach the
        # close() that tears the supervised children down.
        try:
            await router.start()
            for backend in router.backends.values():
                print(f"backend {backend.backend_id}: "
                      f"http://{backend.host}:{backend.port}"
                      f"{'' if backend.managed else ' (attached)'}",
                      flush=True)
            if len(router.journal):
                print(f"journal: {len(router.journal)} scene(s), "
                      f"{router.replayed} replayed", flush=True)
            print(f"routing on http://{router.host}:{router.port}",
                  flush=True)
            for path, text in scene_texts:
                response = await router.register_text(text, name=path)
                print(f"scene {response['scene_id']} registered: {path}",
                      flush=True)
            await _serve_until_stopped(router.serve_forever)
        finally:
            await router.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import dataclasses
    import json
    import subprocess
    import tempfile
    from pathlib import Path

    from repro.loadgen.chaos import ChaosPlan
    from repro.loadgen.driver import DriverConfig, replay_trace
    from repro.loadgen.slo import (build_report, check_regression,
                                   load_report)
    from repro.loadgen.traces import (PROFILES, generate_trace, load_trace,
                                      trace_digest, write_trace)
    from repro.server.router import spawn_cli_server

    if args.kills < 1:
        print(f"error: --kills must be at least 1, got {args.kills}",
              file=sys.stderr)
        return 2
    if args.time_scale <= 0:
        print(f"error: --time-scale must be positive, got "
              f"{args.time_scale}", file=sys.stderr)
        return 2
    if args.slow and not args.chaos:
        print("error: --slow requires --chaos", file=sys.stderr)
        return 2
    if args.stall_s <= 0:
        print(f"error: --stall-s must be positive, got {args.stall_s}",
              file=sys.stderr)
        return 2
    if args.deadline_ms is not None and args.deadline_ms < 1:
        print(f"error: --deadline-ms must be at least 1, got "
              f"{args.deadline_ms}", file=sys.stderr)
        return 2

    if args.trace is not None:
        trace = load_trace(args.trace)
        if args.seed is not None and trace.spec.seed != args.seed:
            print(f"error: --seed {args.seed} contradicts the loaded "
                  f"trace's seed {trace.spec.seed} (the trace is the "
                  f"source of truth; drop --seed)", file=sys.stderr)
            return 2
    else:
        spec = PROFILES[args.profile]
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
        trace = generate_trace(spec)
    digest = trace_digest(trace)

    if args.emit_trace is not None:
        write_trace(trace, args.emit_trace)
        print(f"trace: {len(trace)} events over {len(trace.scenes)} "
              f"scenes ({trace.spec.profile}, seed {trace.spec.seed})")
        print(f"digest: {digest}")
        print(f"wrote {args.emit_trace}")
        return 0

    # -- topology ------------------------------------------------------------
    process = None
    if args.attach is not None:
        host, _, port_text = args.attach.rpartition(":")
        if not host or not port_text.isdigit():
            print(f"error: --attach expects HOST:PORT, got "
                  f"{args.attach!r}", file=sys.stderr)
            return 2
        host, port = host, int(port_text)
        if args.chaos:
            print("note: --chaos against an attached topology requires "
                  "it to be a supervised `repro route` (kills are "
                  "delivered to pids read off /healthz)")
    else:
        workdir = Path(args.workdir) if args.workdir else Path(
            tempfile.mkdtemp(prefix="repro-loadgen-"))
        workdir.mkdir(parents=True, exist_ok=True)
        topology_args = ("--backends", str(args.backends),
                         "--replication", str(args.replication),
                         "--journal", str(workdir / "journal.jsonl"),
                         "--snapshot-dir", str(workdir / "snapshots"))
        print(f"spawning router topology: {args.backends} backend(s), "
              f"replication {args.replication}, state under {workdir}",
              flush=True)
        process, host, port = spawn_cli_server("route", topology_args,
                                               label="loadgen-route")

    chaos_plan = (ChaosPlan(kills=args.kills, seed=trace.spec.seed,
                            mode="slow" if args.slow else "kill",
                            stall_s=args.stall_s)
                  if args.chaos else None)
    config = DriverConfig(host=host, port=port,
                          time_scale=args.time_scale, chaos=chaos_plan,
                          deadline_ms=args.deadline_ms)

    try:
        result = asyncio.run(replay_trace(trace, config))
    finally:
        if process is not None:
            process.terminate()
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

    chaos_doc = result.chaos.to_doc() if result.chaos is not None else None
    report = build_report(result.accountant, trace_doc=trace.to_doc(),
                          trace_digest=digest,
                          topology=result.topology_doc, chaos=chaos_doc)

    # -- human summary -------------------------------------------------------
    print(f"replayed {len(trace)} events over {len(trace.scenes)} scenes "
          f"in {result.wall_seconds:.1f} s "
          f"(profile {trace.spec.profile}, seed {trace.spec.seed})")
    for name, phase in report["phases"].items():
        print(f"  {name:<9} {phase['requests']:>5} req  "
              f"p50 {phase['p50_ms']} ms  p95 {phase['p95_ms']} ms  "
              f"p99 {phase['p99_ms']} ms  "
              f"errors {phase['errors']} ({phase['error_rate']:.2%})  "
              f"hit rate {phase['cache_hit_rate']}")
    failed = [verdict for verdict in report["slo"] if not verdict["ok"]]
    for verdict in report["slo"]:
        marker = "PASS" if verdict["ok"] else "FAIL"
        detail = ("" if verdict["ok"]
                  else " — " + "; ".join(verdict["failures"]))
        print(f"  SLO {verdict['slo']['name']}: {marker}{detail}")
    exit_code = 0
    if chaos_doc is not None:
        if chaos_doc.get("mode") == "slow":
            hedges = chaos_doc.get("observed_hedges") or {}
            print(f"  chaos(slow): {chaos_doc['stalls']} stall(s), "
                  f"resumed: {chaos_doc.get('resumed')}, "
                  f"hedges {hedges.get('fired')} "
                  f"(won {hedges.get('won')}), "
                  f"deadline_exceeded "
                  f"{chaos_doc.get('observed_deadline_exceeded')}, "
                  f"slow timeouts "
                  f"{chaos_doc.get('observed_slow_timeouts')}, "
                  f"ejections {chaos_doc.get('observed_ejections')}")
        else:
            print(f"  chaos: {chaos_doc['kills']} kill(s), "
                  f"{chaos_doc['observed_restarts']} respawn(s), "
                  f"{chaos_doc.get('observed_failovers')} failover(s), "
                  f"{chaos_doc.get('degraded_served')} degraded, "
                  f"reregistration storm bounded: "
                  f"{chaos_doc['reregistration_storm_bounded']}")
        if not chaos_doc.get("recovered"):
            fault = ("stall was never resumed"
                     if chaos_doc.get("mode") == "slow"
                     else "kill was never recovered (no respawn observed)")
            print(f"FAIL: chaos {fault}", file=sys.stderr)
            exit_code = 1
        if chaos_doc.get("reregistration_storm_bounded") is False:
            print("FAIL: re-registration storm exceeded the journaled "
                  "scene population per kill", file=sys.stderr)
            exit_code = 1
    if failed:
        print(f"FAIL: {len(failed)} SLO(s) violated", file=sys.stderr)
        exit_code = 1

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")

    if args.check:
        committed = load_report(args.check)
        findings = check_regression(committed, report,
                                    args.max_regression)
        for finding in findings:
            print(f"FAIL: {finding}", file=sys.stderr)
        if findings:
            exit_code = 1
        else:
            print(f"regression check passed (within "
                  f"{args.max_regression:.0%} of the committed summed "
                  f"p95)")
    return exit_code


def _cmd_warm(args: argparse.Namespace) -> int:
    import time

    from repro.engine import CompletionEngine
    from repro.lang.loader import load_environment_file

    variants = tuple(part.strip() for part in args.variants.split(",")
                     if part.strip())
    loaded = load_environment_file(args.scene)
    goals = _parse_goals(args.goals) or [loaded.goal]
    if any(goal is None for goal in goals):
        print("error: the scene has no goal; pass --goals TYPES",
              file=sys.stderr)
        return 2

    engine = CompletionEngine()
    prepared = engine.prepare(loaded.environment, loaded.subtypes,
                              goal=loaded.goal, name=args.scene)

    cold_start = time.perf_counter()
    computed = engine.warm(prepared, goals, variants=variants, n=args.n)
    cold_seconds = time.perf_counter() - cold_start

    warm_start = time.perf_counter()
    hits = 0
    for goal in goals:
        for variant in variants:
            served = engine.complete(prepared, goal, variant=variant,
                                     n=args.n)
            hits += 1 if served.cache_hit else 0
    warm_seconds = time.perf_counter() - warm_start

    entries = len(goals) * len(variants)
    print(f"warmed {computed} entries "
          f"({len(goals)} goal(s) x {len(variants)} variant(s)) "
          f"in {cold_seconds * 1000:.1f} ms")
    print(f"re-served all {entries} from cache: {hits}/{entries} hits "
          f"in {warm_seconds * 1000:.1f} ms")
    if warm_seconds > 0 and cold_seconds > 0:
        print(f"speedup: {cold_seconds / warm_seconds:.0f}x")
    print(f"cache: {engine.cache_stats.as_text()}")
    return 0 if hits == entries else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.export import write_csv, write_json
    from repro.bench.reporting import format_table, summarize
    from repro.bench.runner import run_suite

    numbers = None
    if args.rows:
        numbers = [int(part) for part in args.rows.split(",") if part.strip()]
    variants = tuple(part.strip() for part in args.variants.split(",")
                     if part.strip())
    results = run_suite(numbers=numbers, variants=variants, n=args.n,
                        timing_repeats=args.repeats)
    print(format_table(results))
    if set(variants) == {"no_weights", "no_corpus", "full"}:
        print()
        print(summarize(results).as_text())
    if args.csv:
        write_csv(results, args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        write_json(results, args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.server.client import AsyncCompletionClient

    async def _fetch() -> dict:
        async with AsyncCompletionClient(args.host, args.port,
                                         timeout=10.0) as client:
            return await client.stats()

    try:
        payload = asyncio.run(_fetch())
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    server = payload.get("server", {})
    engine = payload.get("engine", {})
    core = payload.get("core", {})
    executor = payload.get("executor", {})
    scenes = payload.get("scenes", {})
    print(f"server at http://{args.host}:{args.port}")
    latency = server.get("latency", {})
    for window in ("complete", "warm", "synthesis"):
        row = latency.get(window) or {}
        print(f"  {window:<9} count={row.get('count', 0):<7} "
              f"p50={row.get('p50_ms')} ms  p95={row.get('p95_ms')} ms")
    print(f"  completions={server.get('completions', 0)} "
          f"cache_hits={server.get('cache_hits', 0)} "
          f"coalesced={server.get('coalesced', 0)} "
          f"rejected={server.get('rejected_overload', 0)}")
    print(f"executor: threads={executor.get('threads')} "
          f"workers={executor.get('workers')} "
          f"process_pool={executor.get('process_pool')}")
    result_stats = engine.get("result_stats", {})
    print(f"engine: results {engine.get('result_entries')}/"
          f"{engine.get('result_capacity')} "
          f"(hit rate {result_stats.get('hit_rate')}), "
          f"{engine.get('prepared_scenes')} prepared scenes")
    print(f"scenes: {scenes.get('count')}/{scenes.get('limit')} registered, "
          f"{scenes.get('evictions')} evictions, "
          f"{scenes.get('releases')} releases")
    ranking = payload.get("ranking")
    if ranking:
        weighers = ", ".join(ranking.get("weighers") or []) or "(empty chain)"
        print(f"ranking: {weighers}")
        print(f"  reranks={ranking.get('reranks')} "
              f"reordered={ranking.get('reordered')}")
        for weigher, moved in sorted(
                (ranking.get("adjustments") or {}).items()):
            print(f"  weigher {weigher}: adjusted={moved}")
    router = payload.get("router")
    if router:
        journal = router.get("journal", {})
        print(f"router: {router.get('backends')} backends "
              f"({router.get('healthy')} healthy), "
              f"replication {router.get('replication')}, "
              f"journal {journal.get('scenes')} scenes"
              f"{' (durable)' if journal.get('durable') else ''}, "
              f"replayed {router.get('replayed')}, "
              f"reregistrations {router.get('reregistrations')}, "
              f"restarts {router.get('restarts')}")
        budget = router.get("retry_budget") or {}
        print(f"  resilience: failovers={router.get('failovers')} "
              f"degraded={router.get('degraded_served')} "
              f"drains={router.get('drains')} "
              f"lkg_entries={router.get('lkg_entries')} "
              f"retry_budget {budget.get('tokens')}/{budget.get('burst')} "
              f"tokens (granted={budget.get('granted')} "
              f"denied={budget.get('denied')})")
        hedges = router.get("hedges") or {}
        print(f"  gray: deadline_exceeded="
              f"{router.get('deadline_exceeded')} "
              f"slow_timeouts={router.get('slow_timeouts')} "
              f"hedges={hedges.get('fired')} (won={hedges.get('won')}) "
              f"ejections={router.get('ejections')} "
              f"ejected={router.get('ejected')} "
              f"rebalances={router.get('rebalances')}")
        for backend_id, breaker in sorted(
                (router.get("breakers") or {}).items()):
            window = (router.get("backend_latency") or {}).get(
                backend_id) or {}
            print(f"  breaker {backend_id}: {breaker.get('state')} "
                  f"(consecutive_failures="
                  f"{breaker.get('consecutive_failures')}, "
                  f"opened_total={breaker.get('opened_total')}) "
                  f"latency p95={window.get('p95_ms')} ms "
                  f"ewma={window.get('ewma_ms')} ms")
    interned = core.get("interned_types", {})
    print(f"interned types: size={interned.get('size')} "
          f"limit={interned.get('limit')} "
          f"evictions={interned.get('evictions')} "
          f"ids_assigned={interned.get('type_ids_assigned')}")
    simple = core.get("simple_types", {})
    print(f"simple-type ids: size={simple.get('size')} "
          f"ids_assigned={simple.get('ids_assigned')}")
    arena = core.get("env_arena", {})
    print(f"env arena: live={arena.get('live_arenas')} "
          f"envs={arena.get('env_count')} "
          f"transition_hits={arena.get('transition_memo_hits')} "
          f"misses={arena.get('transition_memo_misses')} "
          f"merges={arena.get('index_merges')} "
          f"retired={arena.get('retired_arenas')}")
    gc_stats = payload.get("gc", {})
    if gc_stats:
        print(f"gc: tuned={gc_stats.get('tuned')} "
              f"thresholds={gc_stats.get('thresholds')} "
              f"frozen={gc_stats.get('frozen')} "
              f"collections={gc_stats.get('collections')}")
    return 0


def _cmd_corpus_stats() -> int:
    from repro.corpus.projects import CORPUS_PROJECTS
    from repro.corpus.synthetic import default_frequencies

    table = default_frequencies()
    summary = table.summary()
    print(f"corpus projects: {len(CORPUS_PROJECTS)} (Table 3) "
          "+ Scala standard library")
    print(f"{summary}")
    print("ten most used symbols:")
    for symbol, count in table.most_common(10):
        print(f"  {count:>6}  {symbol}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "synthesize":
            return _cmd_synthesize(args)
        if args.command == "batch":
            return _cmd_batch(args)
        if args.command == "edit-session":
            return _cmd_edit_session(args)
        if args.command == "warm":
            return _cmd_warm(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "route":
            return _cmd_route(args)
        if args.command == "loadgen":
            return _cmd_loadgen(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "corpus-stats":
            return _cmd_corpus_stats()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable: argparse enforces the command set")


if __name__ == "__main__":
    sys.exit(main())
