import time

import pytest

from causalcalc import (
    ACCEPT,
    NO_ACCEPT_WITHIN_BUDGET,
    REJECT_EXHAUSTED,
    LbaConfig,
    MachineSpec,
    TapeConfig,
    Transition,
    compile_lba,
    expand_tree,
    initial_machine_config,
    machine_step,
    machine_tree,
    run_machine,
    validate_machine,
)
from causalcalc.errors import (
    BudgetExceeded,
    InputNotInAlphabet,
    InputTooLong,
    MalformedConfig,
    StuckConfiguration,
    ValidationFailed,
)
from conftest import guess_ntm, sweep_lba, walkback_lba

T = Transition


def lba(**kw):
    base = dict(
        kind="lba",
        states=("q", "f"),
        initial="q",
        finals=frozenset({"f"}),
        input_alphabet=("a",),
        transitions=(),
    )
    base.update(kw)
    return MachineSpec(**base)


def codes(spec):
    return {d.code for d in validate_machine(spec)}


# ---------------------------------------------------------- validation

def test_fixture_machines_are_valid(tm_spec, parity_spec, abc_spec):
    for spec in (tm_spec, parity_spec, abc_spec, guess_ntm(), sweep_lba(), walkback_lba()):
        assert validate_machine(spec) == []


def test_state_set_defects():
    assert codes(lba(kind="pda")) == {"BadKind"}
    assert "NoStates" in codes(lba(states=()))
    assert "DuplicateState" in codes(lba(states=("q", "q", "f")))
    assert "BadInitial" in codes(lba(initial="nope"))
    assert "BadFinal" in codes(lba(finals=frozenset({"ghost"})))
    assert "AllFinal" in codes(lba(finals=frozenset({"q", "f"})))
    assert "BadToken" in codes(lba(states=("q", "f", "two words")))


def test_symbol_defects():
    assert "DuplicateSymbol" in codes(lba(input_alphabet=("a", "a")))
    assert "SymbolClash" in codes(lba(input_alphabet=("a", "#")))
    assert "SymbolClash" in codes(lba(blank=">"))
    assert "BadToken" in codes(lba(input_alphabet=("a,b",)))


def test_transition_defects():
    t = T("q", "a", "q", "a", 1)
    assert "DuplicateTransition" in codes(lba(transitions=(t, t)))
    assert "UnknownState" in codes(lba(transitions=(T("z", "a", "q", "a", 1),)))
    assert "DeltaFromFinal" in codes(lba(transitions=(T("f", "a", "q", "a", 1),)))
    assert "UnknownSymbol" in codes(lba(transitions=(T("q", "z", "q", "a", 1),)))
    assert "BadMove" in codes(lba(transitions=(T("q", "a", "q", "a", 2),)))


def test_lba_marker_walls():
    leave_left = T("q", ">", "q", ">", -1)
    rewrite_left = T("q", ">", "q", "#", 1)
    leave_right = T("q", "<", "q", "<", 1)
    write_inward = T("q", "a", "q", "<", 1)
    for t in (leave_left, rewrite_left, leave_right, write_inward):
        assert "MarkerViolation" in codes(lba(transitions=(t,)))
    fine = T("q", ">", "q", ">", 1)
    assert "MarkerViolation" not in codes(lba(transitions=(fine,)))


def test_tm_delta_must_be_total_and_single_valued(tm_spec):
    missing = MachineSpec(
        kind="tm",
        states=("q", "f"),
        initial="q",
        finals=frozenset({"f"}),
        input_alphabet=("a",),
        transitions=(T("q", "a", "f", "a", 1),),  # no row for (q, "#")
    )
    assert "MissingDelta" in codes(missing)
    doubled = MachineSpec(
        kind="tm",
        states=("q", "f"),
        initial="q",
        finals=frozenset({"f"}),
        input_alphabet=("a",),
        transitions=(
            T("q", "a", "f", "a", 1),
            T("q", "a", "q", "a", -1),
            T("q", "#", "f", "#", 1),
        ),
    )
    assert "NondeterministicDelta" in codes(doubled)
    assert validate_machine(tm_spec) == []


def test_tm_moves_exclude_stay(tm_spec):
    stay = MachineSpec(
        kind="tm",
        states=tm_spec.states,
        initial=tm_spec.initial,
        finals=tm_spec.finals,
        input_alphabet=tm_spec.input_alphabet,
        transitions=tm_spec.transitions + (T("ra", "0", "ra", "0", 0),),
    )
    found = codes(stay)
    assert "BadMove" in found and "NondeterministicDelta" in found


def test_fingerprint_tracks_content(parity_spec):
    fp = parity_spec.fingerprint()
    assert fp.startswith("sha256:")
    assert fp == parity_spec.fingerprint()
    other = MachineSpec(
        kind=parity_spec.kind,
        states=parity_spec.states,
        initial=parity_spec.initial,
        finals=parity_spec.finals,
        input_alphabet=parity_spec.input_alphabet,
        transitions=parity_spec.transitions[:-1],
    )
    assert other.fingerprint() != fp


# ---------------------------------------------------------- configurations

def test_lba_initial_tape_layout(parity_spec):
    cfg = initial_machine_config(parity_spec, "10", tape_len=4)
    assert cfg == LbaConfig("even", 0, (">", "1", "0", "#", "#", "<"))
    assert initial_machine_config(parity_spec, "").tape == (">", "#", "<")
    with pytest.raises(InputTooLong):
        initial_machine_config(parity_spec, "101", tape_len=2)
    with pytest.raises(InputNotInAlphabet):
        initial_machine_config(parity_spec, "102")


def test_unbounded_initial_config_drops_blanks(tm_spec):
    cfg = initial_machine_config(tm_spec, "01")
    assert cfg == TapeConfig("s", ((0, "0"), (1, "1")))
    assert initial_machine_config(tm_spec, "") == TapeConfig("s", ())
    assert cfg.cell(0, "#") == "0"
    assert cfg.cell(99, "#") == "#"


def test_machine_step_rejects_mismatched_configs(parity_spec, tm_spec):
    with pytest.raises(MalformedConfig):
        machine_step(parity_spec, TapeConfig("even", ()))
    with pytest.raises(MalformedConfig):
        machine_step(tm_spec, LbaConfig("s", 0, (">", "<")))
    with pytest.raises(MalformedConfig):
        machine_step(parity_spec, LbaConfig("even", 9, (">", "1", "<")))


def test_final_states_self_loop(parity_spec):
    cfg = LbaConfig("acc", 1, (">", "1", "<"))
    ((nxt, t, d),) = machine_step(parity_spec, cfg)
    assert nxt == cfg and d == 0
    assert (t.src, t.dst) == ("acc", "acc")


def test_tm_step_is_head_relative(tm_spec):
    cfg = initial_machine_config(tm_spec, "01")
    ((nxt, t, d),) = machine_step(tm_spec, cfg)
    assert (t.dst, d) == ("e1", 1)
    assert nxt == TapeConfig("e1", ((-1, "0"), (0, "1")))


def test_stuck_tm_step_raises():
    broken = MachineSpec(
        kind="tm",
        states=("q", "f"),
        initial="q",
        finals=frozenset({"f"}),
        input_alphabet=("a",),
        transitions=(T("q", "a", "q", "a", 1),),  # invalid: (q, "#") missing
    )
    with pytest.raises(StuckConfiguration):
        machine_step(broken, TapeConfig("q", ()))


def test_run_machine_insists_on_a_valid_spec():
    with pytest.raises(ValidationFailed) as err:
        run_machine(lba(kind="pda"), "a", 5)
    assert err.value.defects[0].code == "BadKind"


# ---------------------------------------------------------- runs

def test_alternating_input_accepts_at_depth_five(tm_spec):
    tree, verdict = run_machine(tm_spec, "0101", 10)
    assert verdict == ACCEPT
    assert tree.node_count == 6
    assert max(tree.depth_of) == 5
    assert tree.nodes[5].state == "acc"
    assert [t.dst for t, _ in (tree.labels[i] for i in range(1, 6))] == [
        "e1",
        "e0",
        "e1",
        "e0",
        "acc",
    ]


def test_repeated_symbol_closes_as_a_loop(tm_spec):
    tree, verdict = run_machine(tm_spec, "0011", 50)
    assert verdict == REJECT_EXHAUSTED
    # s -> e1 -> ra -> rb, then the bounce revisits the ra configuration
    assert tree.node_count == 4
    assert [n.state for n in tree.nodes] == ["s", "e1", "ra", "rb"]


def test_budget_runs_out_before_the_loop_closes(tm_spec):
    tree, verdict = run_machine(tm_spec, "0011", 3)
    assert verdict == NO_ACCEPT_WITHIN_BUDGET


def test_parity_lba_runs(parity_spec):
    _, verdict = run_machine(parity_spec, "11", 20)
    assert verdict == ACCEPT
    tree, verdict = run_machine(parity_spec, "1", 20)
    assert verdict == REJECT_EXHAUSTED
    assert [n.state for n in tree.nodes] == ["even", "even", "odd"]
    _, verdict = run_machine(parity_spec, "", 20)
    assert verdict == ACCEPT


def test_guessing_machine_branches(ntm_spec):
    _, verdict = run_machine(ntm_spec, "01", 10)
    assert verdict == ACCEPT
    tree, verdict = run_machine(ntm_spec, "10", 10)
    assert verdict == REJECT_EXHAUSTED
    _, verdict = run_machine(ntm_spec, "110", 10)
    assert verdict == REJECT_EXHAUSTED


def test_abc_machine_decides_equal_blocks(abc_spec):
    for word, expected in [
        ("abc", ACCEPT),
        ("aabbcc", ACCEPT),
        ("", ACCEPT),
        ("aabbc", REJECT_EXHAUSTED),
        ("acb", REJECT_EXHAUSTED),
        ("ba", REJECT_EXHAUSTED),
    ]:
        _, verdict = run_machine(abc_spec, word, 200)
        assert verdict == expected, word


def test_walkback_path_labels():
    tree, verdict = run_machine(walkback_lba(), "aa", 10)
    assert verdict == ACCEPT
    nid = tree.nodes.index(LbaConfig("acc", 1, (">", "a", "b", "<")))
    moves = []
    while tree.parent[nid] is not None:
        moves.append(tree.labels[nid][1])
        nid = tree.parent[nid]
    assert moves[::-1] == [1, 1, -1, 0]


def test_machine_tree_keeps_exact_depth(parity_spec):
    tree = machine_tree(parity_spec, "11", 6)
    # acc is reached at step 4 and self-loops; the chain never forks
    assert tree.node_count == 7
    assert [n.state for n in tree.nodes] == [
        "even",
        "even",
        "odd",
        "even",
        "acc",
        "acc",
        "acc",
    ]
    assert tree.nodes[5] == tree.nodes[4]


def test_run_node_cap(abc_spec):
    with pytest.raises(BudgetExceeded) as err:
        run_machine(abc_spec, "aabbcc", 200, node_cap=5)
    assert err.value.partial.node_count == 5


def test_dead_runs_stop_at_the_last_live_level(parity_spec):
    # parity gets stuck on "1" at the right end of a one-cell tape, so every
    # tree is a 3-node chain however deep it was asked to go
    start = time.perf_counter()
    tree = machine_tree(parity_spec, "1", 10**9)
    assert (tree.node_count, tree.depth) == (3, 10**9)
    calc = compile_lba(parity_spec, 1)
    tree = expand_tree(calc.model, calc.initial("1"), 10**9)
    assert (tree.node_count, tree.depth) == (3, 10**9)
    tree, verdict = run_machine(parity_spec, "1", 10**9)
    assert verdict == REJECT_EXHAUSTED
    assert time.perf_counter() - start < 5
