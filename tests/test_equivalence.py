import collections
import dataclasses
import random

import pytest

from causalcalc import (
    ACCEPT,
    REJECT_EXHAUSTED,
    MachineSpec,
    Model,
    OverrideEquation,
    Transition,
    VarId,
    calc_accepts,
    check_acceptance_matrix,
    check_equivalence,
    compile_lba,
    compile_lba_monolithic,
    compile_ntm,
    compile_tm,
    expand_tree,
    machine_tree,
    run_machine,
)
from causalcalc import core, reference
from causalcalc.errors import KindMismatch
from conftest import sweep_lba, walk_lba
from test_closure import random_spec


def corrupted(calc, row, outputs):
    """The same calculator with one window-equation row forced elsewhere."""
    hacked = Model(
        calc.model.signature,
        {"X": OverrideEquation(calc.model, "X", {(0, row): outputs})},
    )
    return dataclasses.replace(calc, model=hacked)


ROOT_ROW = ("#", ("even", ">", 0), "1")  # (X_-1, X_0, X_1) at parity's start on "1"


def test_deterministic_walk_translates_every_step(tm_spec):
    report = check_equivalence(tm_spec, compile_tm(tm_spec), "0101", 8)
    assert report.equivalent
    assert report.counterexample is None
    assert (report.kind, report.input, report.depth) == ("tm", "0101", 8)
    assert report.machine_nodes == [1] * 9
    assert report.calc_nodes == [1] * 9
    assert report.rechecked >= 1


def test_branching_walk_matches_level_by_level(sweep_spec):
    calc = compile_lba(sweep_spec, 2)
    report = check_equivalence(sweep_spec, calc, "ab", 6)
    assert report.equivalent
    assert report.machine_nodes == [1, 1, 2, 2, 1, 1, 1]
    assert report.machine_nodes == report.calc_nodes


def test_ntm_walk(ntm_spec):
    report = check_equivalence(ntm_spec, compile_ntm(ntm_spec), "01", 4)
    assert report.equivalent
    assert report.machine_nodes == [1, 1, 2, 1, 1]


def test_monolithic_walk_stops_when_all_branches_die(parity_spec):
    calc = compile_lba_monolithic(parity_spec, 2)
    report = check_equivalence(parity_spec, calc, "1", 10)
    assert report.equivalent
    assert report.machine_nodes == [1, 1, 1, 1, 0]


def test_full_recheck_covers_every_visited_node(tm_spec, sweep_spec):
    report = check_equivalence(
        tm_spec, compile_tm(tm_spec), "0101", 5, recheck_fraction=1.0
    )
    assert report.rechecked == 6
    calc = compile_lba(sweep_spec, 2)
    report = check_equivalence(sweep_spec, calc, "ab", 6, recheck_fraction=1.0)
    assert report.rechecked == 1 + sum(report.calc_nodes[1:])


def test_a_tm_spec_relabeled_ntm_runs_the_same(tm_spec):
    lifted = dataclasses.replace(tm_spec, kind="ntm")
    calc = compile_ntm(lifted)
    report = check_equivalence(lifted, calc, "0101", 6)
    assert report.equivalent
    assert report.machine_nodes == [1] * 7
    matrix = check_acceptance_matrix(
        lifted, calc, ["", "0", "01", "0101", "0011"], 50
    )
    assert matrix.all_agree
    for row in matrix.rows:
        _, tm_verdict = run_machine(tm_spec, row.input, 50)
        assert row.machine_verdict == tm_verdict


def test_kind_and_provenance_guards(tm_spec, parity_spec):
    with pytest.raises(KindMismatch):
        check_equivalence(parity_spec, compile_tm(tm_spec), "0", 3)
    other = compile_lba(sweep_lba(), 2)
    with pytest.raises(KindMismatch):
        check_equivalence(parity_spec, other, "1", 3)


def test_single_corrupted_row_breaks_equivalence(parity_spec):
    calc = compile_lba(parity_spec, 2)
    mutant = corrupted(calc, ROOT_ROW, {("odd", "1", 1)})
    report = check_equivalence(parity_spec, mutant, "1", 3)
    assert not report.equivalent
    assert report.counterexample.kind == "successor_mismatch"
    assert report.counterexample.path_text() == "<root>"

    pristine = check_equivalence(parity_spec, calc, "1", 3)
    assert pristine.equivalent


def test_tm_mutant_is_reported_at_the_parent_pair(tm_spec):
    calc = compile_tm(tm_spec)
    # on "0101" the machine is in e1 over "1" after one step; send it to ra
    equations = dict(calc.model.equations)
    equations["S"] = OverrideEquation(calc.model, "S", {(None, ("e1", "1")): {"ra"}})
    mutant = dataclasses.replace(calc, model=Model(calc.model.signature, equations))
    report = check_equivalence(tm_spec, mutant, "0101", 6)
    assert not report.equivalent
    assert report.counterexample.kind == "successor_mismatch"
    assert report.counterexample.path == (1,)
    assert report.counterexample.machine_config.state == "e1"
    assert report.machine_nodes == report.calc_nodes == [1, 1]


def test_corruption_that_breaks_decoding(parity_spec):
    calc = compile_lba(parity_spec, 2)
    mutant = corrupted(calc, ROOT_ROW, {("even", ">", -1)})
    report = check_equivalence(parity_spec, mutant, "1", 3)
    assert not report.equivalent
    assert report.counterexample.kind == "undecodable"
    assert report.counterexample.path == (-1,)


def test_reference_interpreter_sees_the_corruption(parity_spec):
    calc = compile_lba(parity_spec, 2)
    mutant = corrupted(calc, ROOT_ROW, {("odd", "1", 1)})
    root = mutant.initial("1")
    ref = reference.expand(mutant, root, 2)
    assert not reference.matches_tree(ref, expand_tree(mutant.model, root, 2))
    assert reference.matches_tree(
        reference.expand(calc, root, 2), expand_tree(calc.model, root, 2)
    )


def test_reference_tree_survives_deep_runs(parity_spec):
    # deeper than Python's recursion limit: parity on "11" accepts at step 4
    # and then self-loops, so the tree is a 1,501-node chain
    mono = compile_lba_monolithic(parity_spec, 2)
    root = mono.initial("11")
    ref = reference.expand(mono, root, 1500)
    tree = expand_tree(mono.model, root, 1500)
    assert tree.node_count == 1501
    assert reference.matches_tree(ref, tree)


def test_walk_node_cap_is_reported_not_raised(sweep_spec, tm_spec):
    calc = compile_lba(sweep_spec, 2)
    report = check_equivalence(sweep_spec, calc, "ab", 6, node_cap=3)
    assert not report.equivalent
    assert report.counterexample.kind == "node_cap"
    report = check_equivalence(tm_spec, compile_tm(tm_spec), "01", 5, node_cap=3)
    assert report.counterexample.kind == "node_cap"


def test_acceptance_matrix_rows(parity_spec):
    calc = compile_lba(parity_spec, 3)
    words = ["", "1", "11", "10", "111", "101"]
    matrix = check_acceptance_matrix(parity_spec, calc, words, 30)
    assert matrix.all_agree
    byword = {r.input: r.machine_verdict for r in matrix.rows}
    assert byword["11"] == ACCEPT
    assert byword["101"] == ACCEPT
    assert byword["1"] == REJECT_EXHAUSTED
    assert all(r.agree for r in matrix.rows)


def test_acceptance_matrix_flags_a_lying_calculator(parity_spec):
    calc = compile_lba(parity_spec, 2)
    mutant = corrupted(calc, ROOT_ROW, {("odd", "1", 1)})
    matrix = check_acceptance_matrix(parity_spec, mutant, ["1"], 30)
    assert not matrix.all_agree
    (row,) = matrix.rows
    assert (row.machine_verdict, row.calc_verdict) == (REJECT_EXHAUSTED, ACCEPT)


def test_machine_nodes_count_walk_pairs_not_machine_tree_nodes():
    # two moves from q0 on a blank tape reach the same head-relative configuration
    spec = MachineSpec(
        kind="ntm",
        states=("q0", "acc"),
        initial="q0",
        finals=frozenset({"acc"}),
        input_alphabet=("a",),
        transitions=(Transition("q0", "#", "acc", "#", -1), Transition("q0", "#", "acc", "#", 1)),
    )
    report = check_equivalence(spec, compile_ntm(spec), "", 3)
    assert report.equivalent
    assert report.machine_nodes == report.calc_nodes == [1, 2, 2, 2]
    tree = machine_tree(spec, "", 3)
    assert [len(tree.nodes_at(step)) for step in range(4)] == [1, 1, 1, 1]


def test_calculator_expansions_reach_successor_choices_once_per_configuration(monkeypatch):
    calls = collections.Counter()
    original = core.successor_choices

    def spy(model, config, forced=None):
        calls[(config, frozenset(forced.items()) if forced else None)] += 1
        return original(model, config, forced)

    monkeypatch.setattr(core, "successor_choices", spy)
    spec = walk_lba()
    for calc in (compile_lba(spec, 4), compile_lba_monolithic(spec, 4)):
        calls.clear()
        report = check_equivalence(spec, calc, "ab", 8, recheck_fraction=1.0)
        assert report.equivalent
        assert calls and max(calls.values()) == 1, calc.kind
        calls.clear()
        calc_accepts(calc, "ab", 8)
        assert calls and max(calls.values()) == 1, calc.kind


def _reference_levels(calc, root, depth):
    """Level sizes of the reference interpreter's tree, empty levels dropped."""
    sizes, level = [], [reference.expand(calc, root, depth)]
    while level:
        sizes.append(len(level))
        level = [kid for node in level for kid in node["children"]]
    return sizes


def test_walks_on_random_machines_count_the_calculator_tree():
    rng = random.Random(20261018)
    cases = 0
    for kind in ("lba",) * 20 + ("ntm",) * 16:
        spec = random_spec(rng, kind)
        word = "".join(rng.choice("ab") for _ in range(rng.randint(0, 3)))
        if kind == "lba":
            tape_len = max(len(word), 1) + rng.randint(0, 1)
            calcs = [compile_lba(spec, tape_len), compile_lba_monolithic(spec, tape_len)]
        else:
            calcs = [compile_ntm(spec)]
        for calc in calcs:
            for depth in range(8):
                report = check_equivalence(spec, calc, word, depth, recheck_fraction=1.0)
                assert report.equivalent, (spec, calc.kind, word, depth)
                levels = _reference_levels(calc, calc.initial(word), depth)
                assert report.calc_nodes in (levels, levels + [0])
                assert report.machine_nodes == report.calc_nodes
                assert report.rechecked == sum(report.calc_nodes)
                cases += 1
    assert cases == 448
