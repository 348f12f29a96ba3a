"""Delta parity: edit scripts vs fresh builds of the same final text.

The incremental subsystem's acceptance property: for ANY valid edit
script, the delta-edited scene must be byte-identical — fingerprint,
scene identity, and complete rankings — to a scene freshly loaded from
the serialized final text.  Scripts are generated against a simulated
name table so every op is valid by construction, and deliberately
include add-then-remove-the-same-declaration churn (the editor's
keystroke-undo pattern), which must land back on previously prepared
states and reuse them.

Every intermediate scene is completed before the next edit, so each
delta starts from a warm donor whose reconstruction memos carry over.
The scripts mix edits that keep the succinct signature with edits that
change it, and add declarations named in the binder namespace (``x0``,
``x1``), so a carried candidate list that drew the wrong number of
fresh names would show as a renamed lambda in the rankings.
"""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.environment import Environment
from repro.engine import CompletionEngine
from repro.incremental import apply_scene_delta, parse_delta_ops
from repro.lang.loader import load_environment_file, load_environment_text
from repro.lang.serializer import serialize_environment

SCENES_DIR = Path(__file__).resolve().parents[2] / "examples/scenes"

BASE_SCENE = """
subtype FileWriter <: Writer
subtype BufferedWriter <: Writer
subtype PrintWriter <: Writer
local path : String
imported java.io.FileWriter.new : String -> FileWriter \
[freq=118] [style=constructor] [display=FileWriter]
imported java.io.BufferedWriter.new : Writer -> BufferedWriter \
[freq=95] [style=constructor] [display=BufferedWriter]
imported java.io.PrintWriter.new : Writer -> PrintWriter \
[freq=102] [style=constructor] [display=PrintWriter]
imported java.io.PrintWriter.lazy : (String -> Writer) -> PrintWriter \
[freq=300] [style=static_method] [display=lazy]
literal "out.txt" : String
goal PrintWriter
"""

BASE_NAMES = ("path", "java.io.FileWriter.new", "java.io.BufferedWriter.new",
              "java.io.PrintWriter.new", "java.io.PrintWriter.lazy",
              '"out.txt"')

#: Candidate additions: (name, declaration line).  A mix of sigma images
#: that already exist in the base scene (the signature is kept) and ones
#: that do not (it changes), two of them named like fresh binders.
ADDABLE = (
    ("banner", "local banner : String"),
    ("x0", "local x0 : String"),
    ("x1", "local x1 : String -> Writer"),
    ("backup_path", "local backup_path : String"),
    ("writer_cache", "local writer_cache : Writer"),
    ("java.io.FileReader.new",
     "imported java.io.FileReader.new : String -> FileReader "
     "[freq=74] [style=constructor] [display=FileReader]"),
    ("java.io.PrintWriter.println",
     "imported java.io.PrintWriter.println : PrintWriter -> String -> Unit "
     "[freq=210] [style=method] [display=println]"),
)

ADDABLE_BY_NAME = dict(ADDABLE)


@st.composite
def edit_scripts(draw):
    """A multi-batch edit script, valid against the simulated name table."""
    current = set(BASE_NAMES)
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        batch = []
        for _ in range(draw(st.integers(1, 3))):
            addable = sorted(name for name, _ in ADDABLE
                             if name not in current)
            removable = sorted(current)
            kinds = (["add"] if addable else []) + \
                    (["remove"] if removable else [])
            kind = draw(st.sampled_from(kinds))
            if kind == "add":
                name = draw(st.sampled_from(addable))
                batch.append({"op": "add", "decl": ADDABLE_BY_NAME[name]})
                current.add(name)
            else:
                name = draw(st.sampled_from(removable))
                batch.append({"op": "remove", "name": name})
                current.remove(name)
        batches.append(batch)
    return batches


def _rankings(engine, prepared, n=5):
    served = engine.complete(prepared, prepared.goal, n=n)
    return [(s.rank, s.code, round(s.weight, 6))
            for s in served.result.snippets]


def _assert_parity(prepared, engine):
    """delta-edited *prepared* ≡ a fresh build of its serialized text."""
    text = serialize_environment(prepared.base_environment,
                                 prepared.subtypes, prepared.goal)
    reloaded = load_environment_text(text)
    fresh_engine = CompletionEngine()
    fresh = fresh_engine.prepare(reloaded.environment, reloaded.subtypes,
                                 goal=reloaded.goal)
    assert (prepared.base_environment.fingerprint()
            == fresh.base_environment.fingerprint())
    assert prepared.fingerprint == fresh.fingerprint
    assert _rankings(engine, prepared) == _rankings(fresh_engine, fresh)


@settings(max_examples=30, deadline=None)
@given(script=edit_scripts())
def test_any_edit_script_matches_a_fresh_build(script):
    engine = CompletionEngine()
    loaded = load_environment_text(BASE_SCENE)
    prepared = engine.prepare(loaded.environment, loaded.subtypes,
                              goal=loaded.goal, name="parity")
    _rankings(engine, prepared)          # warm the first donor
    seen = {prepared.fingerprint: prepared}
    for batch in script:
        outcome = apply_scene_delta(engine, prepared,
                                    parse_delta_ops(batch), name="parity")
        if outcome.prepared.fingerprint in seen:
            # Revisited content must reattach, never rebuild.
            assert outcome.reused or outcome.prepared is prepared
        seen[outcome.prepared.fingerprint] = outcome.prepared
        prepared = outcome.prepared
        # Completing here warms the donor of the next delta.
        _assert_parity(prepared, engine)


@settings(max_examples=15, deadline=None)
@given(index=st.integers(0, len(ADDABLE) - 1),
       repeats=st.integers(1, 3))
def test_add_then_remove_same_declaration_is_a_no_op(index, repeats):
    """Keystroke churn: N rounds of add X / remove X must land back on
    the opening scene and re-hit its warm cache entries."""
    engine = CompletionEngine()
    loaded = load_environment_text(BASE_SCENE)
    prepared = engine.prepare(loaded.environment, loaded.subtypes,
                              goal=loaded.goal)
    opening = prepared.fingerprint
    baseline = _rankings(engine, prepared)
    name, line = ADDABLE[index]
    current = prepared
    for _ in range(repeats):
        there = apply_scene_delta(engine, current, parse_delta_ops(
            [{"op": "add", "decl": line}]))
        back = apply_scene_delta(engine, there.prepared, parse_delta_ops(
            [{"op": "remove", "name": name}]))
        assert back.reused
        assert back.prepared.fingerprint == opening
        current = back.prepared
    served = engine.complete(current, current.goal, n=5)
    assert served.cache_hit
    assert _rankings(engine, current) == baseline


def test_every_example_scene_holds_parity_under_edits():
    """The shipped scenes are the acceptance corpus: one add + one
    remove each, then full parity against a fresh build."""
    from repro.incremental import DeltaOp

    for path in sorted(SCENES_DIR.glob("*.ins")):
        engine = CompletionEngine()
        loaded = load_environment_file(path)
        prepared = engine.prepare(loaded.environment, loaded.subtypes,
                                  goal=loaded.goal, name=path.name)
        first_name = next(iter(prepared.base_environment)).name
        outcome = apply_scene_delta(engine, prepared, [
            DeltaOp.add("local parity_probe : String"),
            DeltaOp.remove(first_name),
        ])
        _assert_parity(outcome.prepared, engine)


def test_table2_row_edits_from_a_warm_donor_match_a_fresh_engine():
    """Row 9 (3,246 declarations) under a chain of edits, each from the
    warm scene the previous completion left: the top 10 must equal a
    fresh engine's over the same declarations.  The fresh side is built
    from the declaration list, not from text: the serializer round trip
    fails on Table 2 names such as ``java.net.DatagramSocket.new()``."""
    from repro.bench.suite import BENCHMARKS, build_scene
    from repro.incremental import DeltaOp

    scene = build_scene(BENCHMARKS[8])
    engine = CompletionEngine()
    prepared = engine.prepare_scene(scene)
    _rankings(engine, prepared, n=10)
    script = [
        DeltaOp.add("local parity_socket : DatagramSocket"),   # kept
        DeltaOp.add("local x0 : int"),                         # kept
        DeltaOp.remove("java.lang.Integer.MIN_VALUE"),         # kept
        DeltaOp.add("local parity_only : ParityOnly"),         # changed
        DeltaOp.remove("java.net.DatagramSocket.new()"),       # changed
    ]
    kept_any = False
    for op in script:
        outcome = apply_scene_delta(engine, prepared, [op])
        assert not outcome.reused
        kept_any = kept_any or outcome.recon_memo_kept > 0
        prepared = outcome.prepared
        fresh_engine = CompletionEngine()
        fresh = fresh_engine.prepare(
            Environment(tuple(prepared.base_environment)),
            prepared.subtypes, goal=prepared.goal)
        assert (_rankings(engine, prepared, n=10)
                == _rankings(fresh_engine, fresh, n=10))
    assert kept_any, "no delta carried a reconstruction memo"
