"""Declaration-level deltas: op parsing and incremental re-prepare.

The load-bearing invariant everywhere here is *content addressing*: the
environment produced by a delta must be indistinguishable — fingerprint,
name table, Select index, rankings — from an environment freshly built
over the same final declaration list, because every cache key and scene
id downstream hangs off that identity.
"""

import pytest

from repro.core.environment import Environment
from repro.engine import CompletionEngine
from repro.incremental import (DeltaError, DeltaOp, apply_scene_delta,
                               parse_delta_ops)
from repro.lang.loader import load_environment_text

SCENE = """
subtype FileWriter <: Writer
local path : String
imported java.io.FileWriter.new : String -> FileWriter \
[freq=118] [style=constructor] [display=FileWriter]
imported java.io.PrintWriter.new : Writer -> PrintWriter \
[freq=102] [style=constructor] [display=PrintWriter]
goal PrintWriter
"""

EXTRA_LINE = "local label : String"
READER_LINE = ("imported java.io.FileReader.new : String -> FileReader "
               "[freq=74] [style=constructor] [display=FileReader]")


def _prepared(engine=None, text=SCENE):
    engine = engine or CompletionEngine()
    loaded = load_environment_text(text)
    return engine, engine.prepare(loaded.environment, loaded.subtypes,
                                  goal=loaded.goal, name="scene-under-edit")


class TestDeltaOp:
    def test_add_parses_the_declaration_line(self):
        op = DeltaOp.add(EXTRA_LINE)
        assert op.op == "add"
        assert op.name == "label"
        assert op.declaration is not None
        assert op.line == EXTRA_LINE

    def test_add_rejects_garbage(self):
        with pytest.raises(DeltaError, match="unparsable"):
            DeltaOp.add("local oops : ")
        with pytest.raises(DeltaError):
            DeltaOp.add("goal PrintWriter")      # not a declaration line

    def test_payload_round_trip(self):
        for op in (DeltaOp.add(EXTRA_LINE), DeltaOp.remove("path")):
            assert DeltaOp.from_payload(op.to_payload()) == op

    def test_from_payload_validation(self):
        with pytest.raises(DeltaError, match="must be an object"):
            DeltaOp.from_payload("add label")
        with pytest.raises(DeltaError, match="'op' must be one of"):
            DeltaOp.from_payload({"op": "rename", "name": "path"})
        with pytest.raises(DeltaError, match="requires 'decl'"):
            DeltaOp.from_payload({"op": "add"})
        with pytest.raises(DeltaError, match="requires 'name'"):
            DeltaOp.from_payload({"op": "remove", "name": "  "})

    def test_parse_delta_ops(self):
        ops = parse_delta_ops([{"op": "add", "decl": EXTRA_LINE},
                               {"op": "remove", "name": "path"}])
        assert [op.op for op in ops] == ["add", "remove"]


class TestApplySceneDelta:
    def test_add_appends_in_declaration_order(self):
        engine, prepared = _prepared()
        outcome = apply_scene_delta(engine, prepared, [DeltaOp.add(EXTRA_LINE)])
        names = [decl.name for decl in outcome.prepared.base_environment]
        assert names[-1] == "label"
        assert outcome.added == ("label",)
        assert outcome.removed == ()
        assert not outcome.reused
        assert outcome.declarations == len(prepared.base_environment) + 1

    def test_remove_drops_the_declaration(self):
        engine, prepared = _prepared()
        outcome = apply_scene_delta(engine, prepared,
                                    [DeltaOp.remove("path")])
        assert "path" not in outcome.prepared.base_environment
        assert outcome.removed == ("path",)

    def test_errors_are_atomic(self):
        engine, prepared = _prepared()
        table_before = len(engine.scenes)
        with pytest.raises(DeltaError, match="already declared"):
            apply_scene_delta(engine, prepared,
                              [DeltaOp.add(EXTRA_LINE),
                               DeltaOp.add("local path : String")])
        with pytest.raises(DeltaError, match="not declared"):
            apply_scene_delta(engine, prepared, [DeltaOp.remove("ghost")])
        with pytest.raises(DeltaError, match="empty delta"):
            apply_scene_delta(engine, prepared, [])
        assert len(engine.scenes) == table_before

    def test_indexes_match_a_fresh_environment(self):
        """The incremental name/Select index maintenance must be
        indistinguishable from regrouping the final declaration list."""
        engine, prepared = _prepared()
        outcome = apply_scene_delta(engine, prepared, [
            DeltaOp.add(EXTRA_LINE),
            DeltaOp.remove("path"),
            DeltaOp.add(READER_LINE),
        ])
        edited = outcome.prepared.base_environment
        fresh = Environment(tuple(edited))
        assert edited.fingerprint() == fresh.fingerprint()
        assert edited._by_name == fresh._by_name
        assert edited._by_succinct == fresh._by_succinct
        assert edited.succinct_environment() == fresh.succinct_environment()

    def test_add_then_remove_same_declaration_reuses_the_scene(self):
        engine, prepared = _prepared()
        outcome = apply_scene_delta(engine, prepared, [
            DeltaOp.add(EXTRA_LINE),
            DeltaOp.remove("label"),
        ])
        assert outcome.reused
        assert outcome.prepared.fingerprint == prepared.fingerprint
        assert outcome.added == ("label",)
        assert outcome.removed == ("label",)

    def test_round_trip_script_reattaches_the_original_scene(self):
        engine, prepared = _prepared()
        there = apply_scene_delta(engine, prepared, [DeltaOp.add(EXTRA_LINE)])
        assert not there.reused
        back = apply_scene_delta(engine, there.prepared,
                                 [DeltaOp.remove("label")])
        assert back.reused
        assert back.prepared.fingerprint == prepared.fingerprint

    def test_dirty_types_counts_distinct_sigma_images(self):
        engine, prepared = _prepared()
        outcome = apply_scene_delta(engine, prepared, [
            DeltaOp.add("local first : String"),
            DeltaOp.add("local second : String"),   # same sigma image
            DeltaOp.add(READER_LINE),               # a new one
        ])
        assert outcome.dirty_types == 2

    def test_weight_memos_transplant_except_dirty(self):
        engine, prepared = _prepared()
        # Warm the donor's memos with a real completion.
        engine.complete(prepared, prepared.goal, n=3)
        donor = prepared.environment
        assert donor._weight_memos, "completion should have warmed memos"
        outcome = apply_scene_delta(engine, prepared, [DeltaOp.add(EXTRA_LINE)])
        adopted = outcome.prepared.environment._weight_memos
        dirty = DeltaOp.add(EXTRA_LINE).declaration.succinct_type
        for policy, memo in adopted.items():
            assert dirty not in memo
            donor_memo = donor._weight_memos.get(policy, {})
            for stype, weight in memo.items():
                assert donor_memo.get(stype) == weight

    def test_rankings_match_a_fresh_engine_on_the_edited_content(self):
        engine, prepared = _prepared()
        outcome = apply_scene_delta(engine, prepared, [
            DeltaOp.remove("path"),
            DeltaOp.add("local stream_name : String"),
        ])
        served = engine.complete(outcome.prepared, outcome.prepared.goal,
                                 n=6)
        fresh_engine = CompletionEngine()
        fresh = fresh_engine.prepare(
            Environment(tuple(outcome.prepared.base_environment)),
            outcome.prepared.subtypes, goal=outcome.prepared.goal)
        baseline = fresh_engine.complete(fresh, fresh.goal, n=6)
        assert ([(s.rank, s.code, s.weight) for s in served.snippets]
                == [(s.rank, s.code, s.weight) for s in baseline.snippets])


class TestWarmDonor:
    """What a delta carries over from a donor scene that has completed."""

    def _warm(self):
        engine, prepared = _prepared()
        engine.complete(prepared, prepared.goal, n=3)
        return engine, prepared

    def test_kept_signature_is_the_arena_object(self):
        engine, prepared = self._warm()
        donor_signature = prepared.environment.succinct_environment()
        outcome = apply_scene_delta(engine, prepared, [DeltaOp.add(EXTRA_LINE)])
        edited = outcome.prepared.environment
        # String was already in the signature: same set, same object.
        assert edited.succinct_environment() is donor_signature
        arena = edited.succinct_arena()
        root = arena.intern(edited.succinct_environment())
        assert arena.members(root) is edited.succinct_environment()

    def test_changed_signature_is_the_arena_object(self):
        engine, prepared = self._warm()
        donor_signature = prepared.environment.succinct_environment()
        outcome = apply_scene_delta(engine, prepared,
                                    [DeltaOp.add(READER_LINE)])
        edited = outcome.prepared.environment
        assert edited.succinct_environment() != donor_signature
        arena = edited.succinct_arena()
        root = arena.intern(edited.succinct_environment())
        assert arena.members(root) is edited.succinct_environment()

    def test_outcome_counts_kept_and_dropped_memo_entries(self):
        engine, prepared = self._warm()
        memo = prepared.environment.candidate_list_memo(
            engine.default_policy)
        dirty = DeltaOp.add(EXTRA_LINE).declaration.succinct_type
        touching = sum(dirty in key[1] for key in memo)
        assert touching and touching < len(memo)
        outcome = apply_scene_delta(engine, prepared, [DeltaOp.add(EXTRA_LINE)])
        assert outcome.recon_memo_dropped == touching
        assert outcome.recon_memo_kept == len(memo) - touching
        carried = outcome.prepared.environment.candidate_list_memo(
            engine.default_policy)
        assert set(carried) == {key for key in memo if dirty not in key[1]}

    def test_requery_builds_lists_only_for_dirty_keys(self):
        engine, prepared = self._warm()
        dirty = DeltaOp.add(EXTRA_LINE).declaration.succinct_type
        outcome = apply_scene_delta(engine, prepared, [DeltaOp.add(EXTRA_LINE)])
        memo = outcome.prepared.environment.candidate_list_memo(
            engine.default_policy)
        carried = dict(memo)
        served = engine.complete(outcome.prepared, outcome.prepared.goal, n=3)
        assert not served.cache_hit
        built = set(memo) - set(carried)
        assert built, "the re-query should rebuild the dirty lists"
        assert all(dirty in key[1] for key in built)
        # Carried entries are reused as they are, never rebuilt.
        assert all(memo[key] is entry for key, entry in carried.items())

    def test_reused_scene_reports_no_memo_transfer(self):
        engine, prepared = self._warm()
        outcome = apply_scene_delta(engine, prepared, [
            DeltaOp.add(EXTRA_LINE), DeltaOp.remove("label")])
        assert outcome.reused
        assert (outcome.recon_memo_kept, outcome.recon_memo_dropped) == (0, 0)


def test_deltas_survive_concurrent_completions():
    """A completion thread fills the donor's memos while the delta copies
    them (the ``/v1/edit-scene`` race): 1,000 deltas, no error.  A short
    switch interval makes thread switches inside the copy likely."""
    import sys
    import threading

    engine, prepared = _prepared()
    current = [prepared]
    stop = threading.Event()
    errors: list = []

    def complete_current():
        while not stop.is_set():
            try:
                scene = current[0]
                engine.complete(scene, scene.goal, n=3)
            except Exception as exc:             # pragma: no cover
                errors.append(exc)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    worker = threading.Thread(target=complete_current, daemon=True)
    worker.start()
    try:
        for index in range(1000):
            ops = [DeltaOp.add(f"local churn_{index} : String")]
            if index:
                ops.append(DeltaOp.remove(f"churn_{index - 1}"))
            outcome = apply_scene_delta(engine, current[0], ops)
            current[0] = outcome.prepared
    finally:
        stop.set()
        worker.join()
        sys.setswitchinterval(interval)
    assert not errors, errors
