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
from causalcalc import compilers, core, equivalence, machines, reference
from causalcalc.errors import CausalCalcError, KindMismatch, ValidationFailed
from conftest import alternation_tm, parity_lba, sweep_lba, walk_lba
import oracle_walk
from oracle_walk import lockstep_walk
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
    assert report.counterexample.detail == (
        "machine-only children [\"(1, LbaConfig(state='even', head=1, tape=('>', '1', '#', '<')))\"]; "
        "calculator-only [\"(1, LbaConfig(state='odd', head=1, tape=('1', '1', '#', '<')))\"]"
    )

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
    cells = "cells=((-2, '0'), (-1, '1'), (0, '0'), (1, '1'))"
    assert report.counterexample.detail == (
        f"machine-only children [\"(1, TapeConfig(state='e0', {cells}))\"]; "
        f"calculator-only [\"(1, TapeConfig(state='ra', {cells}))\"]"
    )
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


def _repeated_first(calc, word, depth):
    """Configurations held by several tree nodes of the first level that holds them."""
    layers = core.reach_layers(core.memo_successors(calc.model), calc.initial(word), depth)
    seen, out = set(), []
    for counts in layers.counts:
        out += [config for config, n in counts.items() if n > 1 and config not in seen]
        seen.update(counts)
    return out


def _row_mutant(rng, calc, word, cfg=None):
    """The calculator with one equation row forced elsewhere: ``cfg``'s row, or one
    its depth-4 tree uses."""
    model, spec = calc.model, calc.machine
    cfg = cfg or rng.choice(expand_tree(model, calc.initial(word), 4).nodes)
    if calc.kind == "lba_mono":
        var = VarId("V")
        whole = cfg.get(var)
        pool = [(q, h, *whole[2:]) for q in spec.states for h in range(calc.tape_len + 2)]
    elif calc.kind == "tm":
        var = rng.choice((VarId("S"), VarId("X", rng.choice((-1, 0, 1)))))
        pool = spec.states if var.name == "S" else spec.tape_alphabet
    else:
        var = VarId("X", 0)
        pool = sorted(model.signature.range_of(var))
    eq = model.equations[var.name]
    domain = model.domain_of(var)
    row = tuple(cfg.get(v) for v in domain)
    old = eq.outputs(var.index, dict(zip(domain, row)))
    new = {rng.choice([v for v in pool if v not in old])}
    if rng.random() < 0.3:
        new |= old  # an extra branch
    if rng.random() < 0.1:
        new = {"?"}  # outside the range: expanding the row raises
    mutant = OverrideEquation(model, var.name, {(var.index, row): new})
    hacked = Model(model.signature, dict(model.equations, **{var.name: mutant}))
    return dataclasses.replace(calc, model=hacked)


def _walk_cases(rng):
    """(spec, calculator, word): random lbas both ways, random ntms, the alternation tm
    and the reconverging walk, each pristine and with row mutants."""
    parity = parity_lba()
    yield parity, corrupted(compile_lba(parity, 2), ROOT_ROW, {("even", ">", -1)}), "1"
    for kind in ("lba",) * 4 + ("ntm",) * 4 + ("tm", "walk") * 2:
        if kind == "walk":
            spec, word = walk_lba(), rng.choice(("ab", "ba", "a"))
            calcs = [compile_lba(spec, 3), compile_lba_monolithic(spec, 3)]
        elif kind == "tm":
            spec = alternation_tm()
            word = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
            calcs = [compile_tm(spec)]
        else:
            spec = random_spec(rng, kind)
            word = "".join(rng.choice("ab") for _ in range(rng.randint(0, 3)))
            if kind == "lba":
                tape_len = max(len(word), 1) + rng.randint(0, 1)
                calcs = [compile_lba(spec, tape_len), compile_lba_monolithic(spec, tape_len)]
            else:
                calcs = [compile_ntm(spec)]
        for calc in calcs:
            yield spec, calc, word
            for _ in range(3):
                yield spec, _row_mutant(rng, calc, word), word
            if kind == "walk":  # its failing pairs sit at several nodes of their level
                for cfg in rng.sample(_repeated_first(calc, word, 8), 3):
                    yield spec, _row_mutant(rng, calc, word, cfg), word


def _outcome(walk, *args, **options):
    """(the walk's report or the error it raised, the kind of that outcome)."""
    try:
        report = walk(*args, **options)
    except CausalCalcError as exc:
        return (type(exc), str(exc)), type(exc).__name__
    return report, report.counterexample and report.counterexample.kind


@pytest.mark.parametrize("seed", range(3))
def test_pair_walk_reports_what_the_lockstep_walk_reports(seed):
    rng = random.Random(seed)
    kinds = collections.Counter()
    for spec, calc, word in _walk_cases(rng):
        for depth in range(9):
            options = {"recheck_fraction": rng.choice((0.1, 0.3, 1.0)), "seed": rng.randint(0, 99)}
            want, kind = _outcome(lockstep_walk, spec, calc, word, depth, **options)
            assert _outcome(check_equivalence, spec, calc, word, depth, **options)[0] == want
            kinds[kind] += 1
            size = sum(getattr(want, "calc_nodes", [9]))
            caps = [rng.randint(1, size + 1)] if depth % 2 else []
            if depth == 5:
                caps = range(1, size + 2) if size < 30 else rng.sample(range(1, size + 2), 30)
            for cap in caps:
                want, kind = _outcome(lockstep_walk, spec, calc, word, depth, node_cap=cap, **options)
                got, _ = _outcome(check_equivalence, spec, calc, word, depth, node_cap=cap, **options)
                assert got == want, (spec, calc.kind, word, depth, cap)
                kinds[kind] += 1
    wanted = (None, "node_cap", "successor_mismatch", "undecodable", "reference_disagreement")
    for kind in wanted + ("OutOfRangeValue",):
        assert kinds[kind], (kind, kinds)


def test_walk_work_is_counted_per_distinct_pair(monkeypatch):
    """Each distinct (machine, calculator) pair is stepped, expanded and decoded once."""
    # the lockstep walk decodes every tree edge; its spies note each one's parent pair
    edges, parent, checked = set(), {}, collections.Counter()
    decoded, stepped = collections.Counter(), collections.Counter()
    successor_set = reference.successor_set

    def oracle_step(spec, m):
        parent["m"] = m
        return machines.machine_step(spec, m)

    def oracle_expander(model, labeler):
        succ = core.memo_successors(model, labeler)

        def children(c, forced=None):
            parent["c"] = c
            return succ(c, forced)
        return children

    def oracle_decode(calc, child, offset=0, last_move=None):
        edges.add((parent["m"], parent["c"], child))
        return compilers.decode_config(calc, child, offset, last_move)

    def step(spec, m):
        stepped[m] += 1
        return machines.machine_step(spec, m)

    def decode(calc, child, offset=0, last_move=None):
        decoded[(child, offset, last_move)] += 1
        return compilers.decode_config(calc, child, offset, last_move)

    def recheck(calc, cfg):
        checked[cfg] += 1
        return successor_set(calc, cfg)

    monkeypatch.setattr(oracle_walk, "machine_step", oracle_step)
    monkeypatch.setattr(oracle_walk, "memo_successors", oracle_expander)
    monkeypatch.setattr(oracle_walk, "decode_config", oracle_decode)
    monkeypatch.setattr(equivalence, "machine_step", step)
    monkeypatch.setattr(equivalence, "decode_config", decode)
    monkeypatch.setattr(reference, "successor_set", recheck)
    spec = walk_lba()
    for calc in (compile_lba(spec, 4), compile_lba_monolithic(spec, 4)):
        for spy in (edges, parent, checked, decoded, stepped):
            spy.clear()
        parent.update(m=None, c=None)  # the root's decode
        want = lockstep_walk(spec, calc, "ab", 10)
        sampled = dict(checked)
        assert max(sampled.values()) > 1  # the sample holds repeats
        checked.clear()
        assert check_equivalence(spec, calc, "ab", 10) == want
        assert sum(decoded.values()) <= len(edges) < 441, calc.kind
        assert set(stepped) == {m for m, _, _ in edges if m is not None}
        assert max(stepped.values()) == 1
        assert checked.keys() == sampled.keys() and max(checked.values()) == 1


def test_a_spec_is_scanned_once_across_repeated_checks(monkeypatch):
    scans = collections.Counter()
    scan = machines.validate_machine

    def spy(spec):
        scans[id(spec)] += 1
        return scan(spec)

    monkeypatch.setattr(machines, "validate_machine", spy)
    spec = parity_lba()
    calc = compile_lba(spec, 2)
    for _ in range(3):
        assert check_equivalence(spec, calc, "11", 4).equivalent
    assert scans == {id(spec): 1}

    broken = dataclasses.replace(spec, initial="nowhere")
    raised = []
    for _ in range(3):
        with pytest.raises(ValidationFailed) as info:
            check_equivalence(broken, calc, "11", 4)
        raised.append(info.value)
        assert info.value.defects == [core.Defect("BadInitial", "nowhere", "initial state undeclared")]
        info.value.defects.clear()  # a caller's edits reach no later raise
    assert scans[id(broken)] == 1
    assert len({str(e) for e in raised}) == 1
    assert str(raised[0]) == "machine spec has 1 defect(s): BadInitial on nowhere"

