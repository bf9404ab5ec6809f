"""Closure runs visit each reachable configuration once.

``run_machine`` and ``calc_accepts`` write every configuration reachable
from the start as one node, at its breadth-first distance. Their verdicts
and node counts must match a plain breadth-first search over
``machine_step``, and machines must agree with their calculators, also on
machines whose branches reconverge.
"""

import random

import pytest

from causalcalc import (
    ACCEPT,
    NO_ACCEPT_WITHIN_BUDGET,
    REJECT_EXHAUSTED,
    MachineSpec,
    Transition,
    calc_accepts,
    compile_lba,
    compile_lba_monolithic,
    compile_machine,
    compile_ntm,
    initial_machine_config,
    machine_step,
    run_machine,
    validate_machine,
)
from conftest import (
    abc_lba,
    alternation_tm,
    guess_ntm,
    parity_lba,
    sweep_lba,
    walk_lba,
    walkback_lba,
)


def reachable(spec, word, budget, tape_len):
    """Breadth-first search to min(budget, first accepting level).

    Returns the number of distinct configurations seen, whether one of them
    is final, and whether the search ran out of new configurations short of
    ``budget`` without accepting.
    """
    root = initial_machine_config(spec, word, tape_len)
    seen, level, step = {root}, [root], 0
    accepted = root.state in spec.finals
    while level and step < budget and not accepted:
        following = []
        for config in level:
            for child, _, _ in machine_step(spec, config):
                if child not in seen:
                    seen.add(child)
                    following.append(child)
        level = following
        step += bool(level)
        accepted = any(c.state in spec.finals for c in level)
    return len(seen), accepted, not accepted and step < budget


def random_spec(rng, kind):
    """A valid lba or ntm over {a, b} with up to two moves per (state, symbol)."""
    states = tuple(f"q{i}" for i in range(rng.randint(1, 3))) + ("acc",)
    symbols = ("a", "b", "#")
    reads = symbols + ((">", "<") if kind == "lba" else ())
    rows = set()
    for src in states[:-1]:
        for read in reads:
            for _ in range(rng.choice((0, 1, 1, 2))):
                if read == ">":
                    write, move = ">", rng.choice((0, 1))
                elif read == "<":
                    write, move = "<", rng.choice((-1, 0))
                else:
                    write, move = rng.choice(symbols), rng.choice((-1, 0, 1))
                rows.add((src, read, rng.choice(states), write, move))
    spec = MachineSpec(
        kind=kind,
        states=states,
        initial="q0",
        finals=frozenset({"acc"}),
        input_alphabet=("a", "b"),
        transitions=tuple(Transition(*row) for row in sorted(rows)),
    )
    assert validate_machine(spec) == []
    return spec


def test_reconverging_walk_exhausts_on_the_machine_and_both_calculators():
    spec = walk_lba()
    tree, verdict = run_machine(spec, "ab", 20, tape_len=4)
    assert verdict == REJECT_EXHAUSTED
    assert tree.node_count == reachable(spec, "ab", 20, 4)[0]
    window, verdict = calc_accepts(compile_lba(spec, 4), "ab", 20)
    assert verdict == REJECT_EXHAUSTED
    whole, verdict = calc_accepts(compile_lba_monolithic(spec, 4), "ab", 20)
    assert verdict == REJECT_EXHAUSTED
    # the monolithic configuration is the machine configuration; the window
    # one also records the last move and stale wall cells
    assert whole.node_count == tree.node_count < window.node_count


def test_closure_runs_count_the_reachable_set_and_agree_with_calculators():
    rng = random.Random(20261018)
    verdicts = {ACCEPT: 0, REJECT_EXHAUSTED: 0, NO_ACCEPT_WITHIN_BUDGET: 0}
    for _ in range(150):
        kind = rng.choice(("lba", "ntm"))
        spec = random_spec(rng, kind)
        word = "".join(rng.choice("ab") for _ in range(rng.randint(0, 3)))
        tape_len = max(len(word), 1) + rng.randint(0, 1) if kind == "lba" else None
        budget = rng.randint(0, 10)
        tree, verdict = run_machine(spec, word, budget, tape_len=tape_len)
        count, accepted, ran_out = reachable(spec, word, budget, tape_len)
        assert tree.node_count == count
        assert (verdict == ACCEPT) == accepted
        assert (verdict == REJECT_EXHAUSTED) == ran_out
        if kind == "lba":
            calcs = [compile_lba(spec, tape_len), compile_lba_monolithic(spec, tape_len)]
        else:
            calcs = [compile_ntm(spec)]
        for calc in calcs:
            assert (calc_accepts(calc, word, budget)[1] == ACCEPT) == accepted
        verdicts[verdict] += 1
    assert min(verdicts.values()) >= 15, verdicts


@pytest.mark.parametrize(
    "make, tape_len, words",
    [
        (parity_lba, 3, ["", "1", "11", "101"]),
        (abc_lba, 3, ["", "abc", "aab", "cba"]),
        (sweep_lba, 3, ["", "ab", "bba"]),
        (walkback_lba, 3, ["a", "ab", "bab"]),
        (walk_lba, 4, ["ab", "b"]),
        (guess_ntm, None, ["", "01", "110"]),
        (alternation_tm, None, ["", "0101", "0110"]),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_closure_sizes_and_verdicts_need_no_per_node_lists(list_builds, make, tape_len, words):
    """``accepts``' node count and verdict on the fixture machines and their
    calculators are what the tree's lists say: every node counted, ACCEPT on
    a final node, REJECT_EXHAUSTED when the last node lies short of the budget."""
    spec = make()
    runs = [(lambda w, b: run_machine(spec, w, b, tape_len=tape_len), lambda c: c.state in spec.finals)]
    calcs = (
        [compile_lba(spec, tape_len), compile_lba_monolithic(spec, tape_len)]
        if tape_len else [compile_machine(spec)]
    )
    runs += [(lambda w, b, calc=calc: calc_accepts(calc, w, b), calc.accepting) for calc in calcs]
    for word in words:
        for budget in (0, 1, 2, 5, 40):
            for run, is_final in runs:
                tree, verdict = run(word, budget)
                count = tree.node_count
                assert list_builds == []
                want = (
                    ACCEPT if any(map(is_final, tree.nodes))
                    else REJECT_EXHAUSTED if tree.depth_of[-1] < budget
                    else NO_ACCEPT_WITHIN_BUDGET
                )
                assert (count, verdict) == (len(tree.nodes), want)
                list_builds.clear()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a window configuration also records the last move and keeps stale wall "
    "cells, so the window calculator's closure reaches a third node after its machine "
    "has run out of new configurations",
)
def test_window_calculator_verdict_matches_its_machine_on_a_stay_loop():
    spec = MachineSpec(
        kind="lba",
        states=("q0", "q1", "acc"),
        initial="q0",
        finals=frozenset({"acc"}),
        input_alphabet=("a",),
        transitions=(Transition("q0", ">", "q1", ">", 1), Transition("q1", "a", "q1", "a", 0)),
    )
    _, machine = run_machine(spec, "a", 2, tape_len=1)
    _, mono = calc_accepts(compile_lba_monolithic(spec, 1), "a", 2)
    if (machine, mono) != (REJECT_EXHAUSTED, REJECT_EXHAUSTED):
        # not an AssertionError, so the xfail does not absorb it
        pytest.fail(f"machine {machine}, monolithic calculator {mono}")
    _, window = calc_accepts(compile_lba(spec, 1), "a", 2)
    assert window == machine  # today NO_ACCEPT_WITHIN_BUDGET
