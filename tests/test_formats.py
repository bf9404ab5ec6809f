import itertools
import json
import random
import time
import tracemalloc

import pytest

from causalcalc import (
    Atom,
    Model,
    OverrideEquation,
    RewriteAtom,
    VarId,
    active_variables,
    compile_lba,
    compile_lba_monolithic,
    compile_ntm,
    compile_tm,
    expand_tree,
)
from causalcalc.errors import (
    FormatError,
    InterventionSyntax,
    InvalidMachineKind,
    OutOfRangeValue,
    UnknownVariable,
)
from causalcalc.formats import (
    dumps_canonical,
    machine_from_json,
    machine_to_json,
    model_from_json,
    model_to_json,
    parse_atoms,
    parse_rewrites,
    parse_root,
    parse_steps,
    parse_timed,
    parse_value_text,
    parse_variable_patterns,
    resolve_value,
    tree_to_json,
    value_from_json,
    value_to_json,
)

X = VarId("X")


# ---------------------------------------------------------- values

def test_value_round_trip():
    for v in (0, -3, "q0", (), ("q", "#", 1), ("a", ("b", 2))):
        assert value_from_json(value_to_json(v)) == v


def test_booleans_and_floats_are_rejected():
    with pytest.raises(FormatError):
        value_to_json(True)
    with pytest.raises(FormatError):
        value_from_json(False)
    with pytest.raises(FormatError):
        value_from_json(1.5)
    with pytest.raises(FormatError):
        value_to_json(None)


# ---------------------------------------------------------- machines

def test_machine_file_round_trip(parity_spec, tm_spec, ntm_spec):
    for spec in (parity_spec, tm_spec, ntm_spec):
        dump = dumps_canonical(machine_to_json(spec))
        loaded = machine_from_json(json.loads(dump))
        assert loaded == spec
        assert dumps_canonical(machine_to_json(loaded)) == dump


def test_machine_file_defaults_and_guards(tm_spec):
    data = machine_to_json(tm_spec)
    del data["blank"]
    assert machine_from_json(data).blank == "#"

    data = machine_to_json(tm_spec)
    data["left_marker"] = ">"
    with pytest.raises(FormatError):
        machine_from_json(data)

    data = machine_to_json(tm_spec)
    data["colour"] = "red"
    with pytest.raises(FormatError):
        machine_from_json(data)

    data = machine_to_json(tm_spec)
    data["kind"] = "pda"
    with pytest.raises(InvalidMachineKind):
        machine_from_json(data)


def test_machine_moves_are_checked_per_kind(tm_spec):
    data = machine_to_json(tm_spec)
    data["transitions"][0]["move"] = 0  # tm has no stay move
    with pytest.raises(FormatError):
        machine_from_json(data)
    data["transitions"][0]["move"] = True
    with pytest.raises(FormatError):
        machine_from_json(data)
    data["transitions"][0]["move"] = "1"
    with pytest.raises(FormatError):
        machine_from_json(data)


# ---------------------------------------------------------- models

def test_plain_model_round_trip(counter, two_var):
    for model in (counter, two_var):
        dump = dumps_canonical(model_to_json(model))
        loaded = model_from_json(json.loads(dump))
        assert loaded == model
        assert dumps_canonical(model_to_json(loaded)) == dump


def test_compiled_model_round_trip(tm_spec, ntm_spec, parity_spec):
    calcs = [
        compile_tm(tm_spec),
        compile_ntm(ntm_spec),
        compile_lba(parity_spec, 2),
        compile_lba_monolithic(parity_spec, 2),
    ]
    for calc in calcs:
        dump = dumps_canonical(model_to_json(calc))
        loaded = model_from_json(json.loads(dump))
        assert loaded == calc
        assert dumps_canonical(model_to_json(loaded)) == dump


def test_compiled_model_files_carry_builtin_equation_names(parity_spec):
    data = model_to_json(compile_lba(parity_spec, 2))
    assert data["equations"]["X"] == {"builtin": "lba_window_step"}
    assert data["meta"]["kind"] == "lba"
    assert data["meta"]["tape_len"] == 2
    assert data["meta"]["machine_hash"].startswith("sha256:")


def test_tampered_meta_hash_is_refused(parity_spec):
    data = model_to_json(compile_lba(parity_spec, 2))
    data["meta"]["machine_hash"] = "sha256:" + "0" * 64
    with pytest.raises(FormatError):
        model_from_json(data)


def test_tampered_body_is_refused(parity_spec):
    data = model_to_json(compile_lba(parity_spec, 2))
    data["equations"]["X"] = {"builtin": "tm_state_step"}
    with pytest.raises(FormatError):
        model_from_json(data)
    data = model_to_json(compile_lba(parity_spec, 2))
    data["variables"][0]["default"] = ">"
    with pytest.raises(FormatError):
        model_from_json(data)


def test_model_file_shape_guards(counter):
    good = model_to_json(counter)

    data = json.loads(dumps_canonical(good))
    data["extra"] = 1
    with pytest.raises(FormatError):
        model_from_json(data)

    data = json.loads(dumps_canonical(good))
    data["variables"] = [{"name": "V", "range": {"size": 3}}]
    with pytest.raises(FormatError):
        model_from_json(data)

    data = json.loads(dumps_canonical(good))
    data["equations"]["X"] = {"builtin": "lba_window_step"}
    with pytest.raises(FormatError):
        model_from_json(data)

    data = json.loads(dumps_canonical(good))
    data["domains"]["X"] = ["Nope"]
    with pytest.raises(FormatError):
        model_from_json(data)

    data = json.loads(dumps_canonical(good))
    data["variables"].append(data["variables"][0])  # duplicate name
    with pytest.raises(FormatError):
        model_from_json(data)


def test_family_file_fields(ntm_spec):
    data = model_to_json(compile_ntm(ntm_spec))
    (entry,) = data["variables"]
    assert entry["family"] == "X"
    assert entry["index_range"] == "unbounded"
    assert entry["default"] == "#"
    assert "0" in entry["overrides"]

    bad = json.loads(dumps_canonical(data))
    bad["variables"][0]["index_range"] = [0]
    with pytest.raises(FormatError):
        model_from_json(bad)
    bad = json.loads(dumps_canonical(data))
    bad["variables"][0]["overrides"] = {"zero": []}
    with pytest.raises(FormatError):
        model_from_json(bad)


def test_override_equations_have_no_file_form(counter):
    hacked = Model(
        counter.signature,
        {"X": OverrideEquation(counter, "X", {(None, (3,)): {7}})},
    )
    with pytest.raises(FormatError):
        model_to_json(hacked)


# ---------------------------------------------------------- trees

def test_tree_serialization(counter):
    root = counter.configuration({X: 8})
    tree = expand_tree(counter, root, 1, labeler=lambda p, c: c.get(X) - p.get(X))
    assert tree_to_json(tree) == {
        "depth": 1,
        "truncated": False,
        "nodes": [
            {"id": 0, "depth": 0, "assign": {"X": 8}},
            {"id": 1, "depth": 1, "assign": {"X": 0}},
            {"id": 2, "depth": 1, "assign": {"X": 9}},
        ],
        "edges": [
            {"from": 0, "to": 1, "label": -8},
            {"from": 0, "to": 2, "label": 1},
        ],
    }


# ---------------------------------------------------------- grammar

def test_atom_parsing(counter):
    assert parse_atoms(counter, "X@1=5") == [Atom(X, 1, 5)]
    assert parse_atoms(counter, " X@0=9 , X@2=0 ") == [Atom(X, 0, 9), Atom(X, 2, 0)]
    assert parse_timed(counter, "X@2=9") == [(X, 2, 9)]


def test_tuple_values_and_render_matching(parity_spec):
    calc = compile_lba(parity_spec, 2)
    (atom,) = parse_atoms(calc.model, "X_0@1=(even,>,1)")
    assert atom == Atom(VarId("X", 0), 1, ("even", ">", 1))
    # "1" denotes the tape symbol here, not the integer
    (atom,) = parse_atoms(calc.model, "X_1@1=1")
    assert atom.value == "1"


def test_rewrite_parsing(constant_one):
    (atom,) = parse_rewrites(constant_one, "X@3(X=1)=0")
    assert atom == RewriteAtom(X, 3, ((X, 1),), 0)
    with pytest.raises(InterventionSyntax):
        parse_rewrites(constant_one, "X@3=0")
    with pytest.raises(InterventionSyntax):
        parse_atoms(constant_one, "X@3(X=1)=0")


def test_syntax_errors_carry_positions(counter):
    with pytest.raises(InterventionSyntax) as err:
        parse_atoms(counter, "X@@1=5")
    assert err.value.position == 2
    with pytest.raises(InterventionSyntax) as err:
        parse_atoms(counter, "@1=5")
    assert err.value.position == 0
    with pytest.raises(InterventionSyntax) as err:
        parse_atoms(counter, "X@1=5,,X@2=1")
    assert err.value.position == 6
    with pytest.raises(InterventionSyntax) as err:
        parse_atoms(counter, "X@1=(0,1")
    assert err.value.position == len("X@1=(0,1")


def test_value_text_forms():
    assert parse_value_text("()") == ()
    assert parse_value_text(" -3 ") == -3
    assert parse_value_text("(a,(b,2))") == ("a", ("b", 2))
    with pytest.raises(InterventionSyntax):
        parse_value_text("")


def test_out_of_range_values_are_not_syntax_errors(counter):
    with pytest.raises(OutOfRangeValue):
        parse_atoms(counter, "X@1=zz")
    with pytest.raises(OutOfRangeValue):
        resolve_value(counter.signature, X, "77")


def test_root_parsing(counter):
    assert parse_root(counter, {"X": 8}) == counter.configuration({X: 8})
    with pytest.raises(FormatError):
        parse_root(counter, [8])
    with pytest.raises(UnknownVariable):
        parse_root(counter, {"Y": 8})


def test_variable_pattern_selection(parity_spec):
    calc = compile_lba(parity_spec, 2)
    root = calc.initial("1")
    universe = active_variables(calc.model, root)

    def renders(text):
        return [v.render() for v in parse_variable_patterns(calc.model, universe, text)]

    assert renders("X_0..X_2") == ["X_0", "X_1", "X_2"]
    assert renders("X_*") == [v.render() for v in universe]
    assert renders("X_1,X_1") == ["X_1"]
    assert renders("X_-1,X_1") == ["X_-1", "X_1"]
    with pytest.raises(UnknownVariable):
        renders("Y_*")
    with pytest.raises(UnknownVariable):
        renders("X_99")
    with pytest.raises(UnknownVariable):
        renders("X_0..0")


def test_variable_ranges_need_family_members(tm_spec):
    calc = compile_tm(tm_spec)
    root = calc.initial("0")
    universe = active_variables(calc.model, root)
    with pytest.raises(InterventionSyntax):
        parse_variable_patterns(calc.model, universe, "S..X_0")
    assert parse_variable_patterns(calc.model, universe, "S") == [VarId("S")]


def test_step_selection():
    assert parse_steps("3") == [3]
    assert parse_steps("0..4") == [0, 1, 2, 3, 4]
    assert parse_steps("1,3..5,4") == [1, 3, 4, 5]
    for bad in ("5..2", "x", "-1", "0..x"):
        with pytest.raises(InterventionSyntax):
            parse_steps(bad)


def test_step_selection_is_held_as_ranges():
    rng = random.Random(3)
    for _ in range(300):
        parts, want = [], set()
        for _ in range(rng.randint(1, 4)):
            lo = rng.randint(0, 12)
            hi = lo + rng.randint(0, 5)
            parts.append(f"{lo}..{hi}" if rng.random() < 0.6 else str(lo))
            want.update(range(lo, hi + 1) if ".." in parts[-1] else [lo])
        got = parse_steps(",".join(parts))
        assert list(got) == sorted(want) and got == sorted(want)
        assert all(a.stop < b.start for a, b in zip(got.runs, got.runs[1:]))
    started = time.perf_counter()
    parse_steps("0..999999")
    assert time.perf_counter() - started < 0.01
    tracemalloc.start()
    try:
        assert list(itertools.islice(parse_steps("7,0..99999999"), 3)) == [0, 1, 2]
        assert tracemalloc.get_traced_memory()[1] < 10**6
    finally:
        tracemalloc.stop()
