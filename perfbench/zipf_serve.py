"""``zipf-serve``: the wire path under mostly-cache-hit traffic.

Topology: ``repro route`` over the two ``repro serve`` backends it
spawns with their default configuration, so the default replication of
two is live.  One generator process drives it through
:class:`~repro.server.client.AsyncCompletionClient` on two connections
(the reference box has two cores).

Traffic follows the repository's own serving model, the default
:class:`~repro.loadgen.traces.TraceSpec` that ``repro loadgen`` replays:
a population of tenant variants of the shipped ``examples/scenes/*.ins``
texts, its hot set primed during set-up, scenes drawn with
:class:`~repro.loadgen.arrivals.ZipfSampler`, and churn arrivals that
register a fresh tenant (first completion timed apart as
``first_query_ms``) or release the oldest churned one.  Each variant
adds one tenant-specific local of an otherwise unused type, so its cache
keys are its own while its answers equal the base scene's: the cold part
of the population and every churned tenant are result-cache misses the
first time.  No measurement of how often editor requests carry a
``context`` hint exists, so each completion draws uniformly from no hint
and one hint per position kind the protocol defines.

Phases, each with its own seeded request stream:

* saturation: closed loop on both connections, in slices spread over the
  run; the median slice's completed rate is ``throughput_qps``, the
  capacity of the stack;
* reference: open-loop Poisson arrivals
  (:func:`~repro.loadgen.arrivals.poisson_arrivals`) at half that
  capacity; latencies are measured from each request's due time;
* ladder: fixed rates at rising shares of the capacity, climbed until
  two rungs in a row exceed a 50 ms tail, fail a request or leave a
  backlog; ``sustained_qps`` is the highest rate passed.  A rung on which
  the generator itself ran late, while requests were not waiting for the
  stack, makes the run unmeasurable.

Why Table 2 scenes are absent: ``serialize_environment`` followed by
``load_environment_text`` fails on every Table 2 scene (the parser
rejects names such as ``java.lang.Object.new()``), so they cannot be put
on the wire until that round trip is fixed.
"""

from __future__ import annotations

import asyncio
import os
import random
import subprocess
import sys
import threading
import time

from common import (N_SNIPPETS, PER_LAYER, ROOT, SRC, Report,
                    Tracer, Unmeasurable, median, p50_ms, percentile,
                    process_peak_rss_mb, reciprocal_rank, self_time_metrics,
                    span_path, tail, timed_setups)

SCENES_DIR = ROOT / "examples" / "scenes"
#: Hand-written expected top completion of each shipped scene's goal,
#: copied from the scene files' header comments.
EXPECTED = {
    "file_writer": "new PrintWriter(new FileWriter(path))",
    "swing_label": "new JLabel(message)",
    "url_reader":
        "new BufferedReader(new InputStreamReader(url.openStream()))",
}
#: Generator connections (one per core of the reference box).
CONNECTIONS = 2
#: Share of the window given to the closed-loop saturation phase, run as
#: slices spread over the run: ``throughput_qps`` is their median rate, so
#: a few seconds in which the host starves the VM move one slice only.
SATURATION_SHARE = 0.35
SATURATION_SLICES = 12
#: Share of the window given to the Poisson reference phase, and its
#: offered load as a share of the saturated rate.
REFERENCE_SHARE = 0.25
REFERENCE_LOAD = 0.5
#: Fixed-rate ladder, as shares of the saturated rate, climbed until two
#: rungs in a row fail (one stall in a rung does not end the climb); then
#: the gap above the highest rung passed is halved ``REFINE_STEPS`` times.
LADDER = (0.6, 0.75, 0.9, 1.05, 1.2)
REFINE_STEPS = 2
#: Share of the window each ladder rung runs for.
RUNG_SHARE = 0.04
TAIL_LIMIT_MS = 50.0
#: A rung whose dispatch lateness (p99) exceeds this, while requests did
#: not wait for the stack, measured the generator, not the stack.
LATENESS_LIMIT_MS = 10.0
#: Hit keys timed closed loop per path in the traced run.
TRACED_KEYS = 300
#: Requests of the reference stream replayed in-process for the exact
#: counters; the stream is seeded, so the prefix is the same every run.
REPLAY_REQUESTS = 1000


# -- inputs -------------------------------------------------------------------


def base_scenes() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(SCENES_DIR.glob("*.ins"))}


def tenant_text(base: str, text: str, tenant: int) -> str:
    """A tenant's own copy of a base scene: same answers, new content."""
    return (f"# tenant {tenant} of {base}\n{text}\n"
            f"local tenant_{tenant}_id : TenantId\n")


def contexts() -> tuple:
    """No hint, then one hint per position kind the protocol defines."""
    from repro.core.ranking import POSITION_KINDS

    return (None,) + tuple({"position_kind": kind}
                           for kind in POSITION_KINDS)


class Inputs:
    """The seeded tenant population and its request streams.

    A request is ``(kind, scene index, goal, context)`` with kind
    ``complete``, ``new`` (register a fresh tenant, then complete its
    goal) or ``release``.
    """

    def __init__(self, seed: int):
        from repro.lang.loader import load_environment_text
        from repro.loadgen.arrivals import ZipfSampler
        from repro.loadgen.traces import TraceSpec

        self.seed = seed
        self.spec = TraceSpec()
        self.bases = base_scenes()
        self.names = sorted(self.bases)
        self.goals = {name: str(load_environment_text(text).goal)
                      for name, text in self.bases.items()}
        self.contexts = contexts()
        #: (base name, text) of every scene; the population comes first,
        #: in popularity-rank order, as ``generate_trace`` lays it out.
        self.scenes = []
        for index in range(self.spec.scenes):
            name = self.names[index % len(self.names)]
            self.scenes.append((name, tenant_text(name, self.bases[name],
                                                  index)))
        self.popularity = ZipfSampler(self.spec.scenes,
                                      self.spec.zipf_exponent)

    def prime(self) -> list[tuple]:
        """Set-up traffic: the hot set completed twice, as the trace does."""
        hot = range(self.spec.hot_scenes)
        return [("complete", index, self.goals[self.scenes[index][0]], None)
                for _ in range(2) for index in hot]

    def stream(self, phase: str):
        """An endless request stream, determined by the seed and *phase*."""
        rng = random.Random(f"{self.seed}/{phase}/requests")
        live_churn: list[int] = []
        churned = 0
        while True:
            if rng.random() < self.spec.churn_probability:
                # Release or register with even odds, as generate_trace does.
                if live_churn and rng.random() < 0.5:
                    yield ("release", live_churn.pop(0), None, None)
                    continue
                name = self.names[churned % len(self.names)]
                churned += 1
                self.scenes.append((name, tenant_text(
                    name, self.bases[name], len(self.scenes))))
                live_churn.append(len(self.scenes) - 1)
                yield ("new", len(self.scenes) - 1, self.goals[name], None)
                continue
            index = self.popularity.sample(rng)
            yield ("complete", index, self.goals[self.scenes[index][0]],
                   rng.choice(self.contexts))

    def poisson(self, phase: str, rate: float, seconds: float) -> list:
        from repro.loadgen.arrivals import poisson_arrivals

        requests = self.stream(phase)
        return [(due, next(requests)) for due in poisson_arrivals(
            rate, seconds, random.Random(f"{self.seed}/{phase}/arrivals"))]

    def fixed(self, phase: str, rate: float, seconds: float) -> list:
        requests = self.stream(phase)
        return [(index / rate, next(requests))
                for index in range(int(rate * seconds))]


# -- topology -----------------------------------------------------------------


class Topology:
    """``repro route`` and the backends it supervises."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                        if env.get("PYTHONPATH") else "")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "route", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=str(ROOT))
        self.port = None
        self.output: list[str] = []
        self._drain = None
        for line in self.process.stdout:
            self.output.append(line)
            if line.startswith("routing on http://"):
                self.port = int(line.rsplit(":", 1)[1])
                break
        if self.port is None:
            self.close()
            raise Unmeasurable("router exited before listening: "
                               + "".join(self.output[-5:]))
        self._drain = threading.Thread(target=self._read_rest, daemon=True)
        self._drain.start()
        self.backends: list[dict] = []

    def _read_rest(self) -> None:
        for line in self.process.stdout:
            self.output.append(line)

    def peak_rss_mb(self) -> float:
        pids = [self.process.pid] + [backend["pid"]
                                     for backend in self.backends
                                     if backend.get("pid")]
        return sum(process_peak_rss_mb(pid) for pid in pids)

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        if self._drain is not None:
            self._drain.join(timeout=10)
        self.process.stdout.close()


def _client(port: int):
    from repro.server.client import AsyncCompletionClient

    return AsyncCompletionClient("127.0.0.1", port, max_idle_connections=1)


async def _prime(topology: Topology, inputs: Inputs) -> list[str]:
    """Register the population and warm its hot set; return the ids."""
    from repro.server.client import wait_until_healthy

    client = _client(topology.port)
    try:
        await wait_until_healthy(client)
        topology.backends = await client.backends()
        ids = [(await client.register_scene(text))["scene_id"]
               for _, text in inputs.scenes[:inputs.spec.scenes]]
        for _, index, goal, _ in inputs.prime():
            await client.complete(ids[index], goal=goal, n=N_SNIPPETS)
        return ids
    finally:
        await client.close()


# -- the generator ------------------------------------------------------------


class Phase:
    """What one phase measured."""

    def __init__(self, name: str):
        self.name = name
        self.latency: list[float] = []
        self.first: list[float] = []
        self.lateness: list[float] = []
        self.waits: list[float] = []
        self.answers: list[tuple] = []     # (request, snippets codes)
        self.failures: list[str] = []
        self.drain_s = 0.0
        self.elapsed_s = 0.0
        self.attempted = 0

    def completed_rate(self) -> float:
        """Requests that succeeded per second of the phase."""
        done = self.attempted - len(self.failures)
        return done / self.elapsed_s if self.elapsed_s else 0.0

    def lateness_p99_ms(self) -> float:
        return percentile(self.lateness, 99) * 1000 if self.lateness else 0.0

    def wait_p99_ms(self) -> float:
        return percentile(self.waits, 99) * 1000 if self.waits else 0.0

    def stack_ok(self) -> bool:
        return (not self.failures
                and tail(self.latency)[1] * 1000 <= TAIL_LIMIT_MS
                and self.drain_s * 1000 <= TAIL_LIMIT_MS)

    def generator_behind(self) -> bool:
        return (self.lateness_p99_ms() > LATENESS_LIMIT_MS
                and self.lateness_p99_ms() > self.wait_p99_ms())


async def _perform(client, ids: dict, registered: dict, inputs: Inputs,
                   request, phase: Phase, tracer: Tracer) -> None:
    kind, index, goal, context = request
    if kind == "release":
        # A tenant is released after its registration, even when another
        # connection is still sending that registration.
        if index in registered:
            await registered[index].wait()
        with tracer.span("client.router"):
            await client.release_scene(ids[index])
        return
    if kind == "new":
        with tracer.span("client.router"):
            response = await client.register_scene(inputs.scenes[index][1])
        ids[index] = response["scene_id"]
        began = time.perf_counter()
        with tracer.span("client.router"):
            response = await client.complete(ids[index], goal=goal,
                                             n=N_SNIPPETS)
        phase.first.append(time.perf_counter() - began)
    else:
        with tracer.span("client.router"):
            response = await client.complete(ids[index], goal=goal,
                                             n=N_SNIPPETS, context=context)
    phase.answers.append((request, tuple(snippet["code"] for snippet
                                         in response["snippets"])))


async def _send(client, ids: dict, registered: dict, inputs: Inputs,
                request, phase: Phase, tracer: Tracer) -> None:
    """Send one request; a failure is recorded, not raised."""
    from repro.core.errors import ReproError

    if request[0] == "new":
        registered[request[1]] = asyncio.Event()
    phase.attempted += 1
    request_id = tracer.new_request() if tracer.enabled else None
    try:
        with tracer.span("op", request_id):
            await _perform(client, ids, registered, inputs, request, phase,
                           tracer)
    except (ReproError, KeyError) as exc:
        phase.failures.append(f"{request[0]} {request[2]}: {exc}")
    finally:
        if request[0] == "new":
            registered[request[1]].set()


async def open_loop(port: int, ids: dict, inputs: Inputs, schedule,
                    phase: Phase, tracer: Tracer) -> Phase:
    """Send *schedule* on time over two connections; time from due."""
    queue: asyncio.Queue = asyncio.Queue()
    clients = [_client(port) for _ in range(CONNECTIONS)]
    registered: dict = {}
    last_done = [0.0]

    async def worker(client) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            due, enqueued, request = item
            phase.waits.append(time.perf_counter() - enqueued)
            await _send(client, ids, registered, inputs, request, phase,
                        tracer)
            done = time.perf_counter()
            phase.latency.append(done - due)
            last_done[0] = max(last_done[0], done)

    tasks = [asyncio.ensure_future(worker(client)) for client in clients]
    try:
        start = time.perf_counter() + 0.005
        for offset, request in schedule:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            now = time.perf_counter()
            phase.lateness.append(max(now - due, 0.0))
            queue.put_nowait((due, now, request))
        for _ in tasks:
            queue.put_nowait(None)
        await asyncio.gather(*tasks)
        if schedule:
            phase.drain_s = max(last_done[0] - (start + schedule[-1][0]), 0.0)
        phase.elapsed_s = max(last_done[0] - start, 0.0)
    finally:
        for task in tasks:
            task.cancel()
        for client in clients:
            await client.close()
    return phase


async def closed_loop(port: int, ids: dict, inputs: Inputs, seconds: float,
                      phase: Phase, tracer: Tracer) -> Phase:
    """Keep both connections busy for *seconds* with the phase's stream."""
    requests = inputs.stream(phase.name)
    clients = [_client(port) for _ in range(CONNECTIONS)]
    registered: dict = {}
    start = time.perf_counter()
    end = start + seconds

    async def worker(client) -> None:
        while time.perf_counter() < end:
            began = time.perf_counter()
            await _send(client, ids, registered, inputs, next(requests),
                        phase, tracer)
            phase.latency.append(time.perf_counter() - began)

    try:
        await asyncio.gather(*(worker(client) for client in clients))
        phase.elapsed_s = time.perf_counter() - start
    finally:
        for client in clients:
            await client.close()
    return phase


# -- answer checks ------------------------------------------------------------


class Oracle:
    """An in-process engine over the same scene texts, goal and n."""

    def __init__(self, inputs: Inputs, tracer: Tracer):
        from repro.core.ranking import RankingPipeline
        from repro.engine import CompletionEngine

        self.inputs = inputs
        self.tracer = tracer
        self.engine = CompletionEngine(ranking=RankingPipeline.standard())
        self.prepared: dict[int, object] = {}

    def scene(self, index: int):
        from repro.lang.loader import load_environment_text

        prepared = self.prepared.get(index)
        if prepared is None:
            with self.tracer.span("lang.load_environment_text"):
                loaded = load_environment_text(self.inputs.scenes[index][1])
            with self.tracer.span("engine.prepare"):
                prepared = self.engine.prepare(
                    loaded.environment, loaded.subtypes, goal=loaded.goal,
                    name=self.inputs.scenes[index][0])
            self.prepared[index] = prepared
        return prepared

    def complete(self, request):
        from repro.core.ranking import CompletionContext
        from repro.lang.parser import parse_type

        _, index, goal, context = request
        hint = CompletionContext.from_payload(context) if context else None
        return self.engine.complete(self.scene(index), parse_type(goal),
                                    n=N_SNIPPETS, context=hint)


def check_answers(phases, oracle: Oracle, report: Report) -> list[float]:
    """Compare every served answer with the oracle; return reciprocal ranks."""
    from repro.bench.matching import find_rank

    reciprocal = []
    for phase in phases:
        report.attempted += phase.attempted
        for failure in phase.failures:
            report.fail(why=f"{phase.name}: {failure}")
        for request, codes in phase.answers:
            served = oracle.complete(request)
            if codes != tuple(snippet.code for snippet in served.snippets):
                report.fail(why=f"{phase.name}: answer for {request[2]} "
                                f"differs from the in-process engine")
            if phase.name == "reference":
                base = oracle.inputs.scenes[request[1]][0]
                prepared = oracle.scene(request[1])
                rank = find_rank(served.snippets, EXPECTED[base],
                                 prepared.environment)
                reciprocal.append(reciprocal_rank(rank))
    return reciprocal


def replay_counters(seed: int) -> dict[str, int]:
    """Exact counters of set-up plus the reference stream's first requests.

    Replayed in order on one in-process engine, so they measure the work
    the seeded traffic asks for, not how the served stack spread it over
    its backends; the served stack's own counts are the ``served.*``
    counters.
    """
    inputs = Inputs(seed)
    oracle = Oracle(inputs, Tracer(False))
    for request in inputs.prime():
        oracle.complete(request)
    hits = misses = hinted = 0
    requests = inputs.stream("reference")
    counts = {"complete": 0, "new": 0, "release": 0}
    for _ in range(REPLAY_REQUESTS):
        request = next(requests)
        counts[request[0]] += 1
        if request[0] == "release":
            continue
        hinted += request[3] is not None
        served = oracle.complete(request)
        hits += served.cache_hit
        misses += not served.cache_hit
    stats = oracle.engine.ranking_stats()
    return {"replay.cache_hits": hits, "replay.cache_misses": misses,
            "replay.hinted": hinted,
            "replay.reranks": stats["reranks"],
            "replay.reordered": stats["reordered"],
            "replay.requests": REPLAY_REQUESTS,
            "replay.new_tenants": counts["new"],
            "replay.releases": counts["release"]}


# -- the workload -------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool) -> Report:
    report = Report("zipf-serve", seed, trace)
    tracer = Tracer(False)
    inputs = Inputs(seed)
    slice_s = seconds * SATURATION_SHARE / SATURATION_SLICES
    reference_s = seconds * REFERENCE_SHARE

    state = {}

    def setup():
        previous = state.pop("topology", None)
        if previous is not None:
            previous.close()
        topology = Topology()
        state["topology"] = topology
        ids = asyncio.run(_prime(topology, inputs))
        return topology, ids

    try:
        (topology, population_ids), setup_s, setup_runs = timed_setups(setup)
        ids = dict(enumerate(population_ids))
        slices: list[Phase] = []

        def saturate(count: int = 1) -> None:
            """Closed-loop slices; they are spread over the run."""
            for _ in range(min(count, SATURATION_SLICES - len(slices))):
                slices.append(asyncio.run(closed_loop(
                    topology.port, ids, inputs, slice_s,
                    Phase(f"saturation {len(slices)}"), Tracer(False))))

        def capacity() -> float:
            return median([phase.completed_rate() for phase in slices])

        saturate(2)
        reference = inputs.poisson("reference", capacity() * REFERENCE_LOAD,
                                   reference_s)
        before = asyncio.run(_stats(topology.port))
        phases = [asyncio.run(open_loop(topology.port, ids, inputs, reference,
                                        Phase("reference"), tracer))]
        served = _delta(before, asyncio.run(_stats(topology.port)))
        saturate(2)

        if trace:
            tracer = Tracer(True)
            traced_schedule = inputs.poisson(
                "traced", capacity() * REFERENCE_LOAD, reference_s)
            phases.append(asyncio.run(open_loop(
                topology.port, ids, inputs, traced_schedule,
                Phase("traced"), tracer)))
            _traced_paths(topology, ids, inputs, reference,
                          Oracle(inputs, tracer), tracer, report)
        else:
            sustained = _ladder(topology, ids, inputs, seconds, capacity(),
                                phases, saturate, report)
        saturate(SATURATION_SLICES)
        phases.extend(slices)
        peak_rss = topology.peak_rss_mb()
        server_stats = asyncio.run(_stats(topology.port))
    finally:
        topology = state.pop("topology", None)
        if topology is not None:
            topology.close()

    reciprocal = check_answers(phases, Oracle(inputs, Tracer(False)), report)
    report.counters = replay_counters(seed)
    for name, value in served.items():
        report.counters[f"served.{name}"] = value
    report.counters["router.failovers"] = server_stats["failovers"]
    report.counters["router.hedges"] = server_stats["hedges"]
    report.counters["server.overloaded"] = server_stats["overloaded"]
    report.notes.append("setups " + ",".join(f"{value:.3f}"
                                             for value in setup_runs))
    for phase in slices:
        report.notes.append(
            f"{phase.name}: {phase.completed_rate():.1f}/s, "
            f"{phase.attempted} requests in {phase.elapsed_s:.2f} s "
            f"closed loop, p50 {p50_ms(phase.latency):.2f} ms")
    ref = phases[0]
    if ref.generator_behind():
        raise Unmeasurable(
            f"generator lateness p99 {ref.lateness_p99_ms():.1f} ms on the "
            f"reference phase")

    if trace:
        _per_layer(report, tracer, phases, served, server_stats)
        tracer.write(span_path(report))
        return report

    label, value, beyond = tail(ref.latency)
    first = [seconds for phase in phases
             if not phase.name.startswith("rung") or phase.stack_ok()
             for seconds in phase.first]
    report.set("setup_s", setup_s, f"median of {len(setup_runs)} set-ups")
    report.set("throughput_qps", capacity(),
               f"median of {len(slices)} closed-loop slices of "
               f"{slice_s:.1f} s on {CONNECTIONS} connections, "
               f"{sum(len(phase.latency) for phase in slices)} requests")
    report.set("latency_p50_ms", p50_ms(ref.latency),
               f"n={len(ref.latency)}, from due time, Poisson at "
               f"{REFERENCE_LOAD:g} x throughput")
    report.set("latency_tail_ms", value * 1000.0,
               f"{label}, n={len(ref.latency)}, {beyond} beyond")
    report.set("first_query_ms", p50_ms(first),
               f"n={len(first)} first completions after registration")
    report.set("sustained_qps", sustained,
               f"ladder, tail <= {TAIL_LIMIT_MS:g} ms, no backlog")
    report.set("mrr", sum(reciprocal) / max(len(reciprocal), 1),
               f"{len(reciprocal)} reference-phase answers")
    report.set("peak_rss_mb", peak_rss, "router + backends VmHWM")
    return report


def _ladder(topology, ids, inputs, seconds, capacity, phases, between,
            report: Report) -> float:
    """Climb the fixed-rate ladder; return the highest rate passed.

    *between* runs after each rung.
    """
    rung_s = max(1.0, seconds * RUNG_SHARE)

    def passes(rate: float) -> bool:
        name = f"rung {rate:.1f}"
        schedule = inputs.fixed(name, rate, rung_s)
        phase = asyncio.run(open_loop(topology.port, ids, inputs, schedule,
                                      Phase(name), Tracer(False)))
        phases.append(phase)
        between()
        label, value, _ = tail(phase.latency)
        report.notes.append(
            f"rung {rate:.1f}/s: n={len(phase.latency)} p50 "
            f"{p50_ms(phase.latency):.2f} ms {label} {value * 1000:.2f} ms "
            f"drain {phase.drain_s * 1000:.1f} ms lateness p99 "
            f"{phase.lateness_p99_ms():.2f} ms queue wait p99 "
            f"{phase.wait_p99_ms():.2f} ms failed {len(phase.failures)}")
        if phase.stack_ok():
            return True
        if phase.generator_behind():
            raise Unmeasurable(
                f"generator fell behind at {rate:.1f}/s, not the stack: "
                + "; ".join(report.notes))
        return False

    sustained, failed_at = 0.0, None
    for share in LADDER:
        rate = share * capacity
        if passes(rate):
            sustained, failed_at = rate, None
        elif failed_at is None:
            failed_at = rate
        else:
            break
    if failed_at is None:
        report.notes.append("the top ladder rung passed; sustained_qps is "
                            "a lower bound")
        return sustained
    low, high = sustained, failed_at
    for _ in range(REFINE_STEPS if low else 0):
        middle = (low + high) / 2
        if passes(middle):
            low = middle
        else:
            high = middle
    return low


async def _stats(port: int) -> dict:
    """Counters from the router's merged ``/v1/stats``."""
    client = _client(port)
    try:
        stats = await client.stats()
    finally:
        await client.close()
    router = stats.get("router", {})
    cache = stats.get("engine", {}).get("result_stats", {})
    ranking = [shard.get("stats", {}).get("ranking", {})
               for shard in stats.get("shards", [])]
    return {"failovers": router.get("failovers", 0),
            "hedges": router.get("hedges", {}).get("fired", 0),
            "overloaded": stats.get("server", {}).get("rejected_overload", 0),
            "cache_hits": cache.get("hits", 0),
            "cache_misses": cache.get("misses", 0),
            "reranks": sum(section.get("reranks", 0) for section in ranking),
            "reordered": sum(section.get("reordered", 0)
                             for section in ranking)}


def _delta(before: dict, after: dict) -> dict[str, int]:
    """The served stack's cache and ranking counts between two reads."""
    return {name: after[name] - before[name]
            for name in ("cache_hits", "cache_misses", "reranks",
                         "reordered")}


# -- traced run ---------------------------------------------------------------


def _traced_paths(topology, ids, inputs, reference, oracle: Oracle,
                  tracer: Tracer, report: Report) -> None:
    """Time the same hit keys routed, direct to a backend and in-process."""
    keys = [request for _, request in reference
            if request[0] == "complete"][:TRACED_KEYS]
    scenes = sorted({request[1] for request in keys})

    async def closed_loop(port: int, span: str, register: bool) -> None:
        client = _client(port)
        try:
            local = dict(ids)
            if register:
                for index in scenes:
                    local[index] = (await client.register_scene(
                        inputs.scenes[index][1]))["scene_id"]
            for _, index, goal, context in keys:     # warm: all hits after
                await client.complete(local[index], goal=goal, n=N_SNIPPETS,
                                      context=context)
            for _, index, goal, context in keys:
                with tracer.span("op", tracer.new_request()):
                    with tracer.span(span):
                        await client.complete(local[index], goal=goal,
                                              n=N_SNIPPETS, context=context)
        finally:
            await client.close()

    asyncio.run(closed_loop(topology.port, "client.router_hit", False))
    backend = topology.backends[0]["address"].rsplit(":", 1)
    asyncio.run(closed_loop(int(backend[1]), "client.backend_hit", True))

    from repro.core.ranking import CompletionContext, RankingPipeline
    from repro.engine import CompletionEngine
    from repro.lang.parser import parse_type
    from repro.server import protocol

    base_engine = CompletionEngine(ranking=RankingPipeline.empty())
    pipeline = RankingPipeline.standard()
    mismatches = 0
    for request in keys:                               # warm both engines
        oracle.complete(request)
        base_engine.complete(oracle.scene(request[1]), parse_type(request[2]),
                             n=N_SNIPPETS)
    for request in keys:
        _, index, goal, context = request
        prepared = oracle.scene(index)
        goal_type = parse_type(goal)
        hint = CompletionContext.from_payload(context) if context else None
        with tracer.span("op", tracer.new_request()):
            with tracer.span("engine.complete_hit"):
                served = oracle.engine.complete(prepared, goal_type,
                                                n=N_SNIPPETS, context=hint)
            with tracer.span("engine.lookup_base"):
                cached = base_engine.complete(prepared, goal_type,
                                              n=N_SNIPPETS)
            with tracer.span("ranking.rerank"):
                outcome = pipeline.rerank(cached.result,
                                          prepared.environment, context=hint)
            with tracer.span("protocol.encode"):
                body = protocol.encode_body(protocol.completion_payload(
                    scene_id=str(index), goal=goal_type, variant="full",
                    result=outcome.result, cache_hit=True, coalesced=False,
                    deadline_ms=None, server_seconds=0.0,
                    reranked=outcome.applied))
            with tracer.span("protocol.decode"):
                decoded = protocol.decode_body(body)
        codes = [snippet.code for snippet in served.snippets]
        if codes != [snippet.code for snippet in outcome.result.snippets] \
                or codes != [snippet["code"] for snippet
                             in decoded["snippets"]]:
            mismatches += 1
    report.attempted += len(keys)
    if mismatches:
        report.fail(mismatches, "composed lookup/rerank/encode/decode "
                                "differs from engine.complete")


def _per_layer(report: Report, tracer: Tracer, phases, served: dict,
               server_stats: dict) -> None:
    for name in PER_LAYER:
        report.na(name)
    named = {phase.name: phase for phase in phases}
    untraced, traced = named["reference"], named["traced"]
    ms, us = 1000.0, 1e6
    routed = median(tracer.durations("client.router_hit"))
    direct = median(tracer.durations("client.backend_hit"))
    engine_hit = median(tracer.durations("engine.complete_hit"))
    parses = tracer.durations("lang.load_environment_text")
    report.set("lang.parse_ms", median(parses) * ms,
               f"median of {len(parses)} scene texts")
    report.set("engine.prepare_ms",
               median(tracer.durations("engine.prepare")) * ms)
    report.set("engine.hit_us", engine_hit * us,
               f"n={len(tracer.durations('engine.complete_hit'))}")
    lookups = served["cache_hits"] + served["cache_misses"]
    source = "served stack, router /v1/stats over the reference phase"
    report.set("engine.cache_hit_ratio",
               served["cache_hits"] / max(lookups, 1), source)
    report.set("engine.cache_hits", served["cache_hits"], source)
    report.set("engine.cache_misses", served["cache_misses"], source)
    report.set("ranking.rerank_us",
               median(tracer.durations("ranking.rerank")) * us)
    report.set("ranking.reordered", served["reordered"], source)
    report.set("ranking.reordered_share",
               served["reordered"] / max(served["reranks"], 1),
               f"of {served['reranks']} reranks, {source}")
    report.set("protocol.encode_us",
               median(tracer.durations("protocol.encode")) * us)
    report.set("protocol.decode_us",
               median(tracer.durations("protocol.decode")) * us)
    report.set("server.http_ms", (direct - engine_hit) * ms,
               "direct-to-backend hit minus engine.hit_us, same keys")
    report.set("server.overloaded", server_stats["overloaded"], "429s")
    report.set("router.hop_ms", (routed - direct) * ms,
               "routed minus direct, same keys")
    report.set("router.retries", server_stats["failovers"]
               + server_stats["hedges"], "failovers + hedges")
    report.set("loadgen.lateness_ms", traced.lateness_p99_ms(),
               f"p99 of {len(traced.lateness)} traced-phase sends")
    report.set("trace.overhead_ms",
               p50_ms(traced.latency) - p50_ms(untraced.latency),
               f"traced p50 n={len(traced.latency)} minus untraced p50 "
               f"n={len(untraced.latency)}")
    report.counters["trace.spans"] = len(tracer.spans)
    operations = len({span[5] for span in tracer.spans})
    for name, value in self_time_metrics(tracer, operations).items():
        report.set(name, value, "self time per op")
