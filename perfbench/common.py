"""Shared pieces of the completion-stack benchmark.

Statistics (median, tail percentile with its sample count), the span
recorder behind the traced run, answer checks, peak-memory probes and the
report printer.  Everything here is workload-agnostic; the three workload
modules import it.
"""

from __future__ import annotations

import contextvars
import json
import math
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Optional, Sequence

#: Checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Where runs leave span files and per-run reports (git-ignored).
OUT_DIR = ROOT / ".perfbench_out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Snippets per completion: the server's default and Table 2's N.
N_SNIPPETS = 10

#: Percentiles tried for the tail, highest first.  Capped at p99: with
#: thousands of samples a p99.9 rests on the same ten samples a p99 of a
#: thousand does, and moves as much between runs.
_TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 66.0)

#: End-to-end metrics emitted in the JSON line: name -> unit.  These hold
#: steady between runs on every workload of a 2-vCPU box.
END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "mrr": "ratio",
    "peak_rss_mb": "MB",
}
#: End-to-end metrics printed in the table but left out of the JSON line:
#: on zipf-serve, latencies through the router and its backends swing
#: between runs with how fast the host wakes idle vCPUs, by more than any
#: bound allows.  ``error_rate`` reads 0 on a healthy stack and travels as
#: the JSON line's ``attempted`` and ``failed``.
PRINTED_ONLY = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "first_query_ms": "ms",
    "sustained_qps": "1/s",
}

#: Per-layer metrics: name -> unit.  A workload that never crosses a layer
#: reports 0 for it and marks it ``n/a`` in the table.
PER_LAYER = {
    "javamodel.scene_build_ms": "ms",
    "lang.parse_ms": "ms",
    "engine.prepare_ms": "ms",
    "engine.hit_us": "us",
    "engine.cache_hit_ratio": "ratio",
    "engine.cache_hits": "count",
    "engine.cache_misses": "count",
    "core.prove_ms": "ms",
    "core.recon_ms": "ms",
    "core.first_prove_ms": "ms",
    "core.first_recon_ms": "ms",
    "core.explore_nodes": "count",
    "core.explore_edges": "count",
    "core.patterns": "count",
    "core.recon_enqueued": "count",
    "core.recon_emitted": "count",
    "core.recon_yield": "ratio",
    "core.truncated": "count",
    "ranking.rerank_us": "us",
    "ranking.reordered_share": "ratio",
    "ranking.reordered": "count",
    "incremental.delta_ms": "ms",
    "incremental.reused_share": "ratio",
    "incremental.reused": "count",
    "protocol.encode_us": "us",
    "protocol.decode_us": "us",
    "server.http_ms": "ms",
    "server.overloaded": "count",
    "router.hop_ms": "ms",
    "router.retries": "count",
    "loadgen.lateness_ms": "ms",
    "trace.overhead_ms": "ms",
    "self.op_ms": "ms",
    "self.client_ms": "ms",
    "self.engine_ms": "ms",
    "self.core_ms": "ms",
    "self.ranking_ms": "ms",
    "self.incremental_ms": "ms",
    "self.protocol_ms": "ms",
}


class Unmeasurable(Exception):
    """No valid numbers: sources missing, or the generator fell behind."""


def bootstrap() -> None:
    """Put the checkout's ``src`` on ``sys.path``; fail when it is missing."""
    import sys

    if not (SRC / "repro" / "__init__.py").is_file():
        raise Unmeasurable(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- statistics --------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of *values*."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> tuple[str, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(label, value, samples beyond)``; below thirty samples no
    percentile qualifies and the maximum is reported as ``max``.
    """
    count = len(values)
    if not count:
        return "none", 0.0, 0
    for pct in _TAIL_LADDER:
        beyond = count - math.ceil(pct / 100.0 * count)
        if beyond >= 10:
            return f"p{pct:g}", percentile(values, pct), beyond
    return "max", max(values), 0


def p50_ms(seconds: Sequence[float]) -> float:
    """Median of latencies given in seconds, in milliseconds."""
    return median(seconds) * 1000.0


# -- spans --------------------------------------------------------------------

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span",
                                                          default=None)


class Tracer:
    """In-memory spans recorded around calls into the program.

    Each span is ``[id, name, start, end, parent id, request id]``; spans of
    one request share the request id.  The current span lives in a
    context variable, so nesting works in plain code and across asyncio
    tasks alike.  A disabled tracer records nothing and costs one branch.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._request = 0

    def new_request(self) -> int:
        self._request += 1
        return self._request

    @contextmanager
    def span(self, name: str, request_id: Optional[int] = None):
        if not self.enabled:
            yield
            return
        parent = _CURRENT.get()
        if request_id is None and parent is not None:
            request_id = self.spans[parent][5]
        record = [len(self.spans), name, time.perf_counter(), None,
                  parent, request_id]
        self.spans.append(record)
        token = _CURRENT.set(record[0])
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            _CURRENT.reset(token)

    def durations(self, name: str, requests=None) -> list[float]:
        """Durations (seconds) of the finished spans called *name*.

        With *requests*, only spans whose request id is in it count.
        """
        return [end - start for _, span_name, start, end, _, request
                in self.spans
                if span_name == name and end is not None
                and (requests is None or request in requests)]

    def self_times(self, skip=frozenset()) -> dict[str, float]:
        """Total self time (seconds) per span name.

        A span's self time is its duration minus the part of its interval
        covered by its children (overlapping children counted once).
        Spans whose request id is in *skip* are left out.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, float] = {}
        for span_id, name, start, end, _, request in self.spans:
            if end is None or request in skip:
                continue
            covered, cursor = 0.0, start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            totals[name] = totals.get(name, 0.0) + (end - start - covered)
        return totals

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, request in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name,
                    "start_us": round((start - origin) * 1e6, 1),
                    "end_us": (None if end is None
                               else round((end - origin) * 1e6, 1)),
                    "parent": parent, "request": request}) + "\n")


#: Span-name prefix -> the ``self.*`` metric its self time feeds.
SELF_GROUPS = (
    ("op", "self.op_ms"), ("client.", "self.client_ms"),
    ("engine.", "self.engine_ms"), ("core.", "self.core_ms"),
    ("ranking.", "self.ranking_ms"), ("incremental.", "self.incremental_ms"),
    ("protocol.", "self.protocol_ms"),
)


def self_time_metrics(tracer: Tracer, operations: int) -> dict[str, float]:
    """``self.*`` metrics: each layer's self time per operation, in ms.

    Spans of set-up requests are left out: set-up has its own metrics.
    """
    setup = {request for _, name, _, _, _, request in tracer.spans
             if name == "setup"}
    metrics = {name: 0.0 for name in PER_LAYER if name.startswith("self.")}
    for span_name, seconds in tracer.self_times(skip=setup).items():
        for prefix, metric in SELF_GROUPS:
            if span_name == prefix or (prefix.endswith(".")
                                       and span_name.startswith(prefix)):
                metrics[metric] += seconds * 1000.0 / max(operations, 1)
                break
    return metrics


# -- answer checks ------------------------------------------------------------


class SceneChecker:
    """Type-checks snippets against one scene with the §6 judgement."""

    def __init__(self, base_environment, subtypes):
        self.variable_types = {decl.name: decl.type
                               for decl in base_environment}
        self.subtypes = subtypes

    def failures(self, snippets: Iterable, goal) -> int:
        """How many *snippets* fail ``check_lnf_subsumed`` against *goal*."""
        from repro.core.errors import TypeCheckError, UnknownDeclarationError
        from repro.core.typecheck import check_lnf_subsumed

        failed = 0
        for snippet in snippets:
            try:
                check_lnf_subsumed(snippet.surface_term, goal,
                                   self.variable_types, self.subtypes)
            except (TypeCheckError, UnknownDeclarationError):
                failed += 1
        return failed


def reciprocal_rank(rank: Optional[int]) -> float:
    return 1.0 / rank if rank else 0.0


# -- composed calls (traced runs) ---------------------------------------------


def compose_completion(prepared, engine, goal, tracer: Tracer):
    """The engine's miss path as separate public calls, each in a span.

    Prove (explore + pattern generation), reconstruct, then rerank: the
    result must equal ``engine.complete`` on the same scene and goal.
    Returns the rerank outcome and whether a time budget cut the work.
    """
    from repro.core.reconstruct import Reconstructor
    from repro.core.subtyping import erase_coercions
    from repro.core.synthesizer import Snippet, SynthesisResult
    from repro.core.terms import canonicalize_lnf
    from repro.lang.printer import render_snippet

    policy, config = engine.default_policy, engine.default_config
    synthesizer = prepared.synthesizer(policy, config)
    with tracer.span("core.prove"):
        space, patterns = synthesizer.prove(goal)
    result = SynthesisResult(inhabited=patterns.is_inhabited(space.root))
    with tracer.span("core.reconstruct"):
        if result.inhabited:
            reconstructor = Reconstructor(
                patterns, prepared.environment, policy,
                max_steps=config.max_reconstruction_steps,
                time_limit=config.reconstruction_time_limit,
                max_term_size=config.max_term_size)
            seen, snippets = set(), []
            for raw in reconstructor.enumerate(goal):
                surface = erase_coercions(raw.term)
                canonical = canonicalize_lnf(surface)
                if canonical in seen:
                    continue
                seen.add(canonical)
                snippets.append(Snippet(
                    raw.term, surface, raw.weight, len(snippets) + 1,
                    render_snippet(surface, prepared.environment)))
                if len(snippets) >= N_SNIPPETS:
                    break
            result.snippets = snippets
    with tracer.span("ranking.rerank"):
        outcome = engine.ranking.rerank(result, prepared.environment)
    truncated = space.truncated or (result.inhabited
                                    and reconstructor.stats.truncated)
    return outcome, truncated


def truncated(result) -> bool:
    """Whether a time budget cut the prover or reconstruction short."""
    return result.explore_truncated or result.reconstruction_truncated


def work_counters(served_results) -> dict[str, int]:
    """Exact work counters summed over engine results."""
    counters = {"core.explore_nodes": 0, "core.explore_edges": 0,
                "core.patterns": 0, "core.recon_enqueued": 0,
                "core.recon_emitted": 0, "core.truncated": 0,
                "engine.cache_hits": 0, "engine.cache_misses": 0,
                "ranking.reranked": 0, "queries": 0}
    for served in served_results:
        result = served.result
        counters["core.explore_nodes"] += result.nodes_explored
        counters["core.explore_edges"] += result.edges_found
        counters["core.patterns"] += result.pattern_count
        counters["core.recon_enqueued"] += result.reconstruction_enqueued
        counters["core.recon_emitted"] += result.reconstruction_emitted
        counters["core.truncated"] += int(truncated(result))
        counters["engine.cache_hits" if served.cache_hit
                 else "engine.cache_misses"] += 1
        counters["ranking.reranked"] += int(served.reranked)
        counters["queries"] += 1
    return counters


def answer(result) -> list[tuple[str, float]]:
    """A result's ranked snippets as comparable (code, weight) pairs."""
    return [(snippet.code, round(snippet.weight, 9))
            for snippet in result.snippets]


def span_path(report: Report) -> Path:
    return OUT_DIR / f"spans-{report.workload}-seed{report.seed}.jsonl"


# -- memory -------------------------------------------------------------------


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another process, in MB (0 when it cannot be read)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


# -- reporting ----------------------------------------------------------------


class Report:
    """What one run measured: metrics, sample counts, counters and notes."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, str] = {}
        self.not_applicable: set[str] = set()
        self.counters: dict[str, int] = {}
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0

    def set(self, name: str, value: float, samples: str = "") -> None:
        self.metrics[name] = value
        self.not_applicable.discard(name)
        if samples:
            self.samples[name] = samples
        else:
            self.samples.pop(name, None)

    def na(self, name: str) -> None:
        """Record a metric this workload does not exercise: 0, marked n/a."""
        self.metrics[name] = 0.0
        self.not_applicable.add(name)
        self.samples.pop(name, None)

    def fail(self, count: int = 1, why: str = "") -> None:
        self.failed += count
        if why:
            self.notes.append(f"FAILED: {why}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def document(self) -> dict:
        return {"workload": self.workload, "seed": self.seed,
                "trace": int(self.trace), "attempted": self.attempted,
                "failed": self.failed, "error_rate": self.error_rate,
                "metrics": self.metrics, "samples": self.samples,
                "not_applicable": sorted(self.not_applicable),
                "counters": self.counters, "notes": self.notes}

    def emit(self) -> None:
        """Print the table, save the run's document, then the JSON line."""
        units = PER_LAYER if self.trace else END_TO_END
        printed = PER_LAYER if self.trace else END_TO_END | PRINTED_ONLY
        print(f"== {self.workload} seed={self.seed} trace={int(self.trace)}")
        for name, unit in printed.items():
            mark = " (n/a)" if name in self.not_applicable else ""
            print(f"  {name:28s} {self.metrics[name]:14.4f} {unit:6s}"
                  f"{mark} {self.samples.get(name, '')}")
        if not self.trace:
            print(f"  {'error_rate':28s} {self.error_rate:14.4f} ratio "
                  f" {self.failed}/{self.attempted} failed")
        for name, value in sorted(self.counters.items()):
            print(f"  counter {name:36s} {value}")
        for note in self.notes:
            print(f"  note: {note}")
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / (f"{self.workload}-seed{self.seed}"
                          f"-trace{int(self.trace)}.json")
        path.write_text(json.dumps(self.document(), indent=1, sort_keys=True))
        print(json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": float(self.metrics[name]),
                               "unit": unit}
                        for name, unit in units.items()},
        }))


def timed_setups(build, repeats: int = SETUP_REPEATS):
    """Run *build* ``repeats`` times.

    Returns the last state, the median duration and every duration.
    Earlier states are dropped before the next build, so peak memory sees
    one set-up at a time.
    """
    import gc

    durations, state = [], None
    for _ in range(repeats):
        state = None
        gc.collect()
        start = time.perf_counter()
        state = build()
        durations.append(time.perf_counter() - start)
    return state, statistics.median(durations), durations
