import collections
import contextlib
import io
import itertools
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from causalcalc import (
    Atom,
    Family,
    InterventionSpec,
    Model,
    PlainVar,
    RewriteAtom,
    RuleEquation,
    Signature,
    StructureInterventionSpec,
    TableEquation,
    VarId,
    apply_intervention,
    apply_structure_intervention,
    expand_tree,
    holds_at,
    is_cause,
    sweep,
)
from causalcalc import cli, compilers, core, formats, interventions
from causalcalc.cli import main
from causalcalc.compilers import TmCellRule, TmStateRule, compile_lba, compile_ntm, compile_tm
from causalcalc.errors import (
    BudgetExceeded,
    DuplicateAtom,
    OutOfRangeValue,
    RowDomainMismatch,
    StepBeyondDepth,
    UnknownVariable,
)
from causalcalc.formats import dumps_canonical, model_to_json
from causalcalc.interventions import _cone

import oracle_cause
import oracle_sweep
from test_layers import random_model

X = VarId("X")


def stay_zero_model():
    sig = Signature(
        plain=[PlainVar("X", frozenset({0, 1}))], domains={"X": (X,)}
    )
    return Model(sig, {"X": TableEquation({(0,): {0}, (1,): {0}})})


def chain_values(tree):
    """Values along a single-branch tree, by step."""
    path = next(tree.branches())
    assert tree.node_count == len(path)
    return [tree.nodes[n].get(X) for n in path]


# ---------------------------------------------------------- value pins

def test_pin_mid_step_replaces_the_choice_set(counter):
    root = counter.configuration({X: 8})
    spec = InterventionSpec([Atom(X, 1, 5)])
    tree = apply_intervention(counter, root, spec, 2)
    assert [c.get(X) for c in tree.nodes] == [8, 5, 0, 6]
    assert tree.parent == [None, 0, 1, 1]


def test_pin_at_step_zero_overrides_the_root(counter):
    root = counter.configuration({X: 8})
    tree = apply_intervention(counter, root, InterventionSpec([Atom(X, 0, 9)]), 3)
    assert [c.get(X) for c in tree.nodes] == [9, 9, 9, 9]


def test_empty_intervention_is_identity(counter):
    root = counter.configuration({X: 8})
    assert apply_intervention(counter, root, InterventionSpec([]), 2) == expand_tree(
        counter, root, 2
    )


def test_intervention_rejects_bad_atoms(counter):
    root = counter.configuration({X: 8})
    with pytest.raises(DuplicateAtom):
        InterventionSpec([Atom(X, 1, 5), Atom(X, 1, 6)])
    with pytest.raises(StepBeyondDepth):
        InterventionSpec([Atom(X, -1, 5)])
    with pytest.raises(StepBeyondDepth):
        apply_intervention(counter, root, InterventionSpec([Atom(X, 3, 5)]), 2)
    with pytest.raises(OutOfRangeValue):
        apply_intervention(counter, root, InterventionSpec([Atom(X, 1, 77)]), 2)
    with pytest.raises(UnknownVariable):
        apply_intervention(counter, root, InterventionSpec([Atom(VarId("Y"), 1, 0)]), 2)


def test_pins_on_two_variables_at_once(two_var):
    a, b = VarId("A"), VarId("B")
    root = two_var.configuration({a: 0, b: 0})
    spec = InterventionSpec([Atom(a, 1, 1), Atom(b, 2, 0)])
    tree = apply_intervention(two_var, root, spec, 2)
    # step 1 collapses to A=1 with B still branching; step 2 pins B back to 0
    level1 = [(tree.nodes[n].get(a), tree.nodes[n].get(b)) for n in tree.nodes_at(1)]
    assert level1 == [(1, 0), (1, 1)]
    level2 = {(tree.nodes[n].get(a), tree.nodes[n].get(b)) for n in tree.nodes_at(2)}
    assert level2 == {(0, 0), (1, 0)}


def test_pin_outside_the_active_window_widens_it():
    class Keep(RuleEquation):
        def domain_of(self, index):
            return (VarId("F", index),)

        def outputs(self, index, view):
            return frozenset({view[VarId("F", index)]})

    fam = Family("F", None, None, frozenset({0, 1}), 0)
    m = Model(Signature(families=[fam]), {"F": Keep()})
    root = m.configuration({})
    spec = InterventionSpec([Atom(VarId("F", 5), 1, 1)])
    tree = apply_intervention(m, root, spec, 3)
    assert [n.support for n in tree.nodes] == [
        (),
        ((VarId("F", 5), 1),),
        ((VarId("F", 5), 1),),
        ((VarId("F", 5), 1),),
    ]


# ---------------------------------------------------------- rewrites

def test_rewrite_first_shows_one_step_after_its_step():
    m = stay_zero_model()
    root = m.configuration({X: 0})
    spec = StructureInterventionSpec([RewriteAtom(X, 3, ((X, 0),), 1)])
    tree = apply_structure_intervention(m, root, spec, 6)
    # the rewrite governs whenever its row matches, so the value oscillates
    assert chain_values(tree) == [0, 0, 0, 0, 1, 0, 1]


def test_rewriting_every_row_forces_the_value_from_then_on(constant_one):
    root = constant_one.configuration({X: 1})
    spec = StructureInterventionSpec(
        [RewriteAtom(X, 3, ((X, 0),), 0), RewriteAtom(X, 3, ((X, 1),), 0)]
    )
    tree = apply_structure_intervention(constant_one, root, spec, 6)
    assert chain_values(tree) == [1, 1, 1, 1, 0, 0, 0]


def test_later_rewrite_of_the_same_row_wins():
    m = stay_zero_model()
    root = m.configuration({X: 0})
    spec = StructureInterventionSpec(
        [
            RewriteAtom(X, 1, ((X, 0),), 1),
            RewriteAtom(X, 3, ((X, 0),), 0),
        ]
    )
    tree = apply_structure_intervention(m, root, spec, 5)
    assert chain_values(tree) == [0, 0, 1, 0, 0, 0]


def test_rewrite_can_resurrect_a_dead_row():
    class DieOnOne(RuleEquation):
        def domain_of(self, index):
            return (VarId("P"),)

        def outputs(self, index, view):
            return frozenset() if view[VarId("P")] == 1 else frozenset({0, 1})

    p = VarId("P")
    sig = Signature(plain=[PlainVar("P", frozenset({0, 1}))])
    m = Model(sig, {"P": DieOnOne()})
    root = m.configuration({p: 0})
    bare = expand_tree(m, root, 3)
    assert bare.node_count == 7  # branches through 1 die

    spec = StructureInterventionSpec([RewriteAtom(p, 0, ((p, 1),), 0)])
    tree = apply_structure_intervention(m, root, spec, 3)
    assert tree.node_count == 11
    assert all(tree.children[n] for n in range(tree.node_count) if tree.depth_of[n] < 3)


def test_pin_overrides_a_dead_equation():
    # the pinned variable's equation is not evaluated, so a pin applies even
    # where that equation has no successor, as a rewrite of the row does
    class DieOnOne(RuleEquation):
        def domain_of(self, index):
            return (VarId("P"),)

        def outputs(self, index, view):
            return frozenset() if view[VarId("P")] == 1 else frozenset({0, 1})

    p = VarId("P")
    sig = Signature(plain=[PlainVar("P", frozenset({0, 1}))])
    m = Model(sig, {"P": DieOnOne()})
    root = m.configuration({p: 1})
    assert expand_tree(m, root, 2).node_count == 1

    tree = apply_intervention(m, root, InterventionSpec([Atom(p, 1, 0)]), 2)
    assert tree.node_count == 4
    assert [tree.nodes[n].get(p) for n in range(4)] == [1, 0, 0, 1]
    assert tree.depth_of == [0, 1, 2, 2]


def test_rewrite_row_must_match_the_domain(two_var):
    a = VarId("A")
    with pytest.raises(RowDomainMismatch):
        apply_structure_intervention(
            two_var,
            two_var.configuration({a: 0, VarId("B"): 0}),
            StructureInterventionSpec([RewriteAtom(a, 0, ((a, 0),), 1)]),
            2,
        )


def test_rewrite_spec_rejects_exact_duplicates():
    with pytest.raises(DuplicateAtom):
        StructureInterventionSpec(
            [RewriteAtom(X, 1, ((X, 0),), 1), RewriteAtom(X, 1, ((X, 0),), 0)]
        )
    # same step, different rows: fine
    StructureInterventionSpec(
        [RewriteAtom(X, 1, ((X, 0),), 1), RewriteAtom(X, 1, ((X, 1),), 0)]
    )


def test_rewrite_rendering():
    atom = RewriteAtom(X, 2, ((X, 0),), 1)
    assert atom.render() == "X@2(X=0)=1"
    assert Atom(X, 1, ("q", "#", 0)).render() == "X@1=(q,#,0)"


# ---------------------------------------------------------- but-for causes

def test_counter_reset_is_a_cause_of_missing_the_top(counter):
    root = counter.configuration({X: 8})
    verdict = is_cause(counter, root, [Atom(X, 0, 8)], [Atom(X, 2, 9)])
    assert verdict.is_cause
    assert verdict.failing_condition is None
    assert verdict.witness == {
        "preventing": {"X@0=8": "0"},
        "actual_branch": [0, 2, 5],
    }


def test_non_actual_candidate_fails_condition_one(counter):
    root = counter.configuration({X: 8})
    verdict = is_cause(counter, root, [Atom(X, 0, 7)], [Atom(X, 2, 9)])
    assert (verdict.is_cause, verdict.failing_condition) == (False, 1)


def test_same_branch_actuality_is_the_default(counter):
    root = counter.configuration({X: 8})
    # X@1=0 and X@2=9 both happen, but never on one branch
    strict = is_cause(counter, root, [Atom(X, 1, 0)], [Atom(X, 2, 9)])
    assert (strict.is_cause, strict.failing_condition) == (False, 1)
    loose = is_cause(
        counter, root, [Atom(X, 1, 0)], [Atom(X, 2, 9)], same_branch=False
    )
    assert loose.is_cause
    assert loose.witness["preventing"] == {"X@1=0": "1"}


def test_unpreventable_outcome_fails_condition_two(constant_one):
    root = constant_one.configuration({X: 1})
    verdict = is_cause(constant_one, root, [Atom(X, 0, 1)], [Atom(X, 1, 1)])
    assert (verdict.is_cause, verdict.failing_condition) == (False, 2)


def test_non_minimal_candidate_fails_condition_three(counter):
    root = counter.configuration({X: 8})
    verdict = is_cause(
        counter, root, [Atom(X, 0, 8), Atom(X, 1, 0)], [Atom(X, 2, 1)]
    )
    assert (verdict.is_cause, verdict.failing_condition) == (False, 3)
    assert verdict.witness == {
        "sufficient_subset": ["X@0=8"],
        "preventing": {"X@0=8": "9"},
    }


def test_cause_query_validates_its_atoms(counter):
    root = counter.configuration({X: 8})
    with pytest.raises(ValueError):
        is_cause(counter, root, [], [Atom(X, 1, 0)])
    with pytest.raises(ValueError):
        is_cause(counter, root, [Atom(X, 0, 8)], [])
    with pytest.raises(DuplicateAtom):
        is_cause(counter, root, [Atom(X, 0, 8), Atom(X, 0, 0)], [Atom(X, 1, 0)])
    with pytest.raises(OutOfRangeValue):
        is_cause(counter, root, [Atom(X, 0, 8)], [Atom(X, 1, 42)])


def test_cause_checks_its_outcome_as_sweep_does(counter):
    root = counter.configuration({X: 8})
    with pytest.raises(StepBeyondDepth):
        is_cause(counter, root, [Atom(X, 0, 8)], [Atom(X, -1, 2)])
    # a repeated outcome atom stays allowed in both queries
    twice = [Atom(X, 2, 9), Atom(X, 2, 9)]
    assert is_cause(counter, root, [Atom(X, 0, 8)], twice) == is_cause(
        counter, root, [Atom(X, 0, 8)], twice[:1]
    )
    assert sweep(counter, root, variables=[X], steps=[0], outcome=twice) == sweep(
        counter, root, variables=[X], steps=[0], outcome=twice[:1]
    )


def _count_trees(monkeypatch):
    """The depth of every tree ``interventions`` unfolds, in call order."""
    depths = []
    original = interventions.reach_layers

    def spy(succ, root, depth, **kwargs):
        depths.append(depth)
        return original(succ, root, depth, **kwargs)

    monkeypatch.setattr(interventions, "reach_layers", spy)
    return depths


def test_cause_builds_no_tree_for_pins_outside_the_outcome_cone(two_var, monkeypatch):
    """A reads B's old value, so A@0 is outside the cone of A@1: an alternative
    that moves A@0 alone leaves the outcome as it actually is."""
    A, B = VarId("A"), VarId("B")
    root = two_var.configuration({A: 0, B: 0})
    trees = _count_trees(monkeypatch)
    verdict = is_cause(two_var, root, [Atom(A, 0, 0)], [Atom(A, 1, 0)])
    assert (verdict.is_cause, verdict.failing_condition) == (False, 2)
    assert trees == [1]  # the actual tree only
    trees.clear()
    verdict = is_cause(two_var, root, [Atom(A, 0, 0), Atom(B, 0, 0)], [Atom(A, 1, 0)])
    assert (verdict.failing_condition, verdict.witness) == (
        3, {"sufficient_subset": ["B@0=0"], "preventing": {"B@0=0": "1"}}
    )
    # the actual tree and B@0=1's, which also answers (A@0=0, B@0=1); the
    # subset {A@0} builds none
    assert trees == [1, 1]


def test_cause_finishes_where_a_tree_per_alternative_outgrows_the_cap():
    """A branches only once it is 1 and never reaches O, so the alternative
    A@0=1 grows a tree of 10 nodes to step 3, past a cap of 5, while the
    actual tree has 4; pruned to the outcome's cone it builds none."""
    O, A = VarId("O"), VarId("A")
    sig = Signature(plain=[PlainVar(n, frozenset({0, 1})) for n in "OA"],
                    domains={"O": (O,), "A": (A,)})
    model = Model(sig, {"O": TableEquation({(0,): {0}, (1,): {1}}),
                        "A": TableEquation({(0,): {0}, (1,): {0, 1}})})
    root = model.configuration({O: 0, A: 0})
    with pytest.raises(BudgetExceeded):
        apply_intervention(model, root, InterventionSpec([Atom(A, 0, 1)]), 3, node_cap=5)
    verdict = is_cause(model, root, [Atom(A, 0, 0)], [Atom(O, 3, 0)], node_cap=5)
    task = _oracle_task(model, {"O": [0, 1], "A": [0, 1]})
    assert (verdict.is_cause, verdict.failing_condition) == oracle_cause.brute_is_cause(
        task, {"O": 0, "A": 0}, [("A", 0, 0)], [("O", 3, 0)]
    ) == (False, 2)


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _trees_per_alternative(model, root, candidate, outcome):
    """The trees a cause query costs with one tree per alternative: the actual
    tree, then one per alternative the but-for loop tries (conditions 2, 3)."""
    if not expand_tree(model, root, max(a.step for a in candidate + outcome)).holds(
        candidate + outcome
    ):
        return 1
    trees = 1

    def prevents(atoms):
        nonlocal trees
        depth = max(a.step for a in atoms + outcome)
        pools = [sorted(model.signature.range_of(a.var), key=core.value_key) for a in atoms]
        for combo in itertools.product(*pools):
            if combo != tuple(a.value for a in atoms):
                trees += 1
                pins = InterventionSpec([a._replace(value=v) for a, v in zip(atoms, combo)])
                if not apply_intervention(model, root, pins, depth).holds(outcome):
                    return True
        return False

    if prevents(candidate):
        for size in range(1, len(candidate)):
            if any(prevents(list(sub)) for sub in itertools.combinations(candidate, size)):
                break
    return trees


def test_bench_cause_lines_build_no_more_trees_than_one_per_alternative(monkeypatch, tmp_path):
    """Each of the benchmark's cause command lines, at five seeds, builds at
    most the trees that one tree per alternative costs, and pruned pins make
    it fewer on some lines."""
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    trees = _count_trees(monkeypatch)
    pkg = SimpleNamespace(cli=cli, compilers=compilers, core=core, formats=formats)
    lines = fewer = 0
    for seed in range(1, 6):
        work = tmp_path / str(seed)
        work.mkdir()
        for op in workloads.counterfactual(pkg, random.Random(seed), work):
            if op.argv is None or op.argv[0] != "cause":
                continue
            trees.clear()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(op.argv) == 0
            assert op.check(out.getvalue()), op.argv
            built = len(trees)
            args = cli._build_parser().parse_args(op.argv)
            calc, model = cli._load_model(args.model)
            budget = _trees_per_alternative(
                model,
                cli._make_root(calc, model, args),
                formats.parse_atoms(model, args.candidate),
                formats.parse_atoms(model, args.outcome),
            )
            assert built <= budget, op.argv
            lines += 1
            fewer += built < budget
    assert lines == 85 and fewer >= 10


def _oracle_task(model, ranges):
    return {
        "variables": ranges,
        "domains": {n: [d.name for d in model.domain_of(VarId(n))] for n in ranges},
        "tables": {n: model.equations[n].rows for n in ranges},
    }


def _oracle_is_cause(task, root, candidate, outcome, same_branch):
    """``oracle_cause.brute_is_cause``, with each side actual on its own branch
    unless ``same_branch``; candidates have at most two atoms."""
    if same_branch:
        return oracle_cause.brute_is_cause(task, root, candidate, outcome)
    depth = max(s for _, s, _ in candidate + outcome)
    if not all(oracle_cause.holds_somewhere(task, root, depth, t) for t in (candidate, outcome)):
        return False, 1
    if oracle_cause.prevented(task, root, candidate, outcome) is None:
        return False, 2
    if len(candidate) > 1 and any(oracle_cause.prevented(task, root, [a], outcome) for a in candidate):
        return False, 3
    return True, None


def test_cause_matches_the_oracle_where_the_cone_prunes_alternatives():
    """Random table models whose rows can die, one- and two-atom candidates
    (some pinned after the outcome), both actuality modes, random node caps."""
    rng = random.Random(20261021)
    answered = pruned = capped = 0
    for _ in range(400):
        model, root, ranges = random_model(rng)
        task, names = _oracle_task(model, ranges), sorted(ranges)
        start = {v.name: x for v, x in root.support}
        horizon = rng.randint(0, 3 if len(names) <= 2 else 2)
        branch = rng.choice(oracle_cause.branches(task, start, horizon + 1))

        def pick(max_step):
            step, name = rng.randint(0, max_step), rng.choice(names)
            if rng.random() < 0.6 and step < len(branch):
                return (name, step, branch[step][name])
            return (name, step, rng.choice(ranges[name]))

        outcome = [pick(horizon)]
        candidate = [pick(horizon + 1) for _ in range(rng.randint(1, 2))]
        if len(candidate) == 2 and candidate[0][:2] == candidate[1][:2]:
            candidate.pop()
        same_branch = rng.random() < 0.5
        node_cap = rng.randint(1, 60) if rng.random() < 0.3 else core.DEFAULT_NODE_CAP
        try:
            got = is_cause(
                model,
                root,
                [Atom(VarId(n), s, v) for n, s, v in candidate],
                [Atom(VarId(n), s, v) for n, s, v in outcome],
                same_branch=same_branch,
                node_cap=node_cap,
            )
        except BudgetExceeded:
            continue
        want = _oracle_is_cause(task, start, candidate, outcome, same_branch)
        assert (got.is_cause, got.failing_condition) == want, (task, start, candidate, outcome)
        answered += 1
        capped += node_cap < core.DEFAULT_NODE_CAP
        cone = _cone(model, [(VarId(n), s, v) for n, s, v in outcome], outcome[0][1])
        pruned += want[1] != 1 and any(
            s > outcome[0][1] or VarId(n) not in cone[s] for n, s, _ in candidate
        )
    assert answered > 300 and pruned > 60 and capped > 40


# ---------------------------------------------------------- sweeps

def test_sweep_classifies_counter_cells(counter):
    root = counter.configuration({X: 8})
    report = sweep(
        counter,
        root,
        variables=[X],
        steps=[0, 1],
        outcome=[(X, 2, 9)],
    )
    assert report.baseline_holds
    assert not report.truncated
    assert len(report.rows) == 20
    verdicts = {row.atoms[0].render(): row.classification for row in report.rows}
    # 9 stays reachable from 7, 8, 9 at step 0 and from 8, 9 at step 1
    for v in range(10):
        assert verdicts[f"X@0={v}"] == ("inert" if v >= 7 else "critical")
        assert verdicts[f"X@1={v}"] == ("inert" if v >= 8 else "critical")
    assert report.by_var() == {"X": "critical"}


def test_sweep_on_an_unbreakable_outcome_is_all_inert(constant_one):
    root = constant_one.configuration({X: 1})
    report = sweep(
        constant_one, root, variables=[X], steps=[0], outcome=[(X, 1, 1)]
    )
    assert report.baseline_holds
    assert all(r.classification == "inert" for r in report.rows)
    assert report.by_var() == {"X": "inert"}


def test_sweep_with_two_simultaneous_faults(counter):
    root = counter.configuration({X: 8})
    report = sweep(
        counter,
        root,
        variables=[X],
        steps=[0, 1],
        outcome=[(X, 2, 9)],
        k_faults=2,
    )
    # 10 x 10 value pairs over the two cells; same-cell pairs are skipped
    assert len(report.rows) == 100
    assert all(
        (r.atoms[0].var, r.atoms[0].step) != (r.atoms[1].var, r.atoms[1].step)
        for r in report.rows
    )
    verdicts = {
        (r.atoms[0].render(), r.atoms[1].render()): r.classification
        for r in report.rows
    }
    assert verdicts[("X@0=0", "X@1=0")] == "critical"
    assert verdicts[("X@0=0", "X@1=8")] == "inert"


def test_sweep_reports_truncation_under_a_tight_budget(counter):
    root = counter.configuration({X: 9})
    report = sweep(
        counter,
        root,
        variables=[X],
        steps=[0],
        outcome=[(X, 2, 9)],
        node_cap=6,
    )
    assert report.truncated
    assert report.rows == []


def test_sweep_argument_validation(counter):
    root = counter.configuration({X: 8})
    with pytest.raises(ValueError):
        sweep(counter, root, variables=[X], steps=[0], outcome=[(X, 1, 9)], k_faults=3)
    with pytest.raises(UnknownVariable):
        sweep(counter, root, variables=[], steps=[0], outcome=[(X, 1, 9)])
    with pytest.raises(UnknownVariable):
        sweep(counter, root, variables=[VarId("Z")], steps=[0], outcome=[(X, 1, 9)])


def test_holds_at_all_mode_drives_sweep_baselines(counter):
    root = counter.configuration({X: 9})
    report = sweep(
        counter,
        root,
        variables=[X],
        steps=[0],
        outcome=[(X, 2, 9)],
        mode="all",
    )
    assert report.baseline_holds
    by_render = {r.atoms[0].render(): r.classification for r in report.rows}
    assert by_render["X@0=9"] == "inert"
    assert by_render["X@0=0"] == "critical"


def test_sweep_rejects_outcomes_that_is_cause_rejects(counter, two_var):
    root = counter.configuration({X: 8})
    with pytest.raises(StepBeyondDepth):
        sweep(counter, root, variables=[X], steps=[0], outcome=[(X, -1, 2)])
    with pytest.raises(OutOfRangeValue):
        sweep(counter, root, variables=[X], steps=[0], outcome=[(X, 1, 10)])
    with pytest.raises(UnknownVariable):
        sweep(counter, root, variables=[X], steps=[0], outcome=[(VarId("Z"), 1, 0)])
    with pytest.raises(ValueError, match="outcome must be non-empty"):
        sweep(counter, root, variables=[X], steps=[0], outcome=[])
    with pytest.raises(StepBeyondDepth):
        sweep(counter, root, variables=[X], steps=[1, -1], outcome=[(X, 1, 9)])
    # B is outside the cone of A@0, but a negative step is still refused
    root = two_var.configuration({VarId("A"): 0, VarId("B"): 0})
    with pytest.raises(StepBeyondDepth):
        sweep(two_var, root, variables=[VarId("B")], steps=[-1], outcome=[(VarId("A"), 0, 0)])


def test_sweep_builds_each_cell_once(two_var):
    root = two_var.configuration({VarId("A"): 0, VarId("B"): 0})
    outcome = [(VarId("A"), 2, 1)]
    for k in (1, 2):
        once = sweep(two_var, root, variables=[VarId("B"), VarId("A")], steps=[1, 0],
                     outcome=outcome, k_faults=k)
        twice = sweep(two_var, root, variables=[VarId("A"), VarId("B"), VarId("B")],
                      steps=[0, 1, 0, 1], outcome=outcome, k_faults=k)
        assert twice == once
        assert len(once.rows) == (8 if k == 1 else 24)
    model = Model(
        Signature(plain=[PlainVar("X", frozenset({0, 1, 2}))], domains={"X": (X,)}),
        {"X": TableEquation({(0,): {0}, (1,): {1}, (2,): {2}})},
    )
    root = model.configuration({X: 0})
    assert len(sweep(model, root, variables=[X, X], steps=[0, 0], outcome=[(X, 1, 0)]).rows) == 3
    assert sweep(model, root, variables=[X, X], steps=[0, 0], outcome=[(X, 1, 0)],
                 k_faults=2).rows == []


def test_rows_pinned_past_the_outcome_build_no_tree(counter):
    """Pins after the outcome's last step cannot change the verdict, so those
    rows take the baseline's and cannot exhaust the node budget."""
    root = counter.configuration({X: 8})
    outcome = [(X, 2, 9)]
    report = sweep(counter, root, variables=[X], steps=range(60), outcome=outcome,
                   node_cap=40)
    assert not report.truncated and len(report.rows) == 600
    assert report.rows[:30] == sweep(counter, root, variables=[X], steps=[0, 1, 2],
                                     outcome=outcome).rows
    assert all(r.outcome_holds == report.baseline_holds for r in report.rows[30:])
    assert oracle_sweep.sweep(counter, root, variables=[X], steps=range(60),
                              outcome=outcome, node_cap=40).truncated


# ---------------------------------------------------------- work counts


def test_tm_two_fault_sweep_computes_each_domain_and_choice_set_once(
    tmp_path, monkeypatch, tm_spec
):
    """The benchmark's two-fault sweep on the compiled alternation TM.

    Domains are computed once per (model, index) and successor choice sets
    once per distinct (configuration, forced values) pair.
    """
    path = tmp_path / "tm.json"
    path.write_text(dumps_canonical(model_to_json(compile_tm(tm_spec))))
    domains = collections.Counter()
    for rule in (TmCellRule, TmStateRule):
        def spy_domain(self, index, original=rule.domain_of):
            domains[(id(self), index)] += 1
            return original(self, index)

        monkeypatch.setattr(rule, "domain_of", spy_domain)
    choices = collections.Counter()
    original_choices = core.successor_choices

    def spy_choices(model, config, forced=None):
        choices[(config, frozenset(forced.items()) if forced else None)] += 1
        return original_choices(model, config, forced)

    monkeypatch.setattr(core, "successor_choices", spy_choices)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["sweep", str(path), "--input", "0101", "--vars", "X_0..X_5", "--steps",
                     "0..1", "--outcome", "S@5=acc", "--k", "2"])
    assert code == 0
    rows = [line for line in out.getvalue().splitlines() if "@" in line]
    assert len(rows) == 594
    assert domains and max(domains.values()) == 1
    assert choices and max(choices.values()) == 1


# ------------------------------------------------ cone pruning against the oracle



def dying_outside_the_cone():
    """O keeps its value; D dies while E is 1 and E keeps its value.

    Neither D nor E is an ancestor of O, but a pin on D rescues the branch
    at its step, and a pin on E (D's parent) keeps D alive.
    """
    O, D, E = VarId("O"), VarId("D"), VarId("E")
    sig = Signature(
        plain=[PlainVar(n, frozenset({0, 1})) for n in "ODE"],
        domains={"O": (O,), "D": (E,), "E": (E,)},
    )
    model = Model(sig, {
        "O": TableEquation({(0,): {0}, (1,): {1}}),
        "D": TableEquation({(0,): {0}, (1,): set()}),
        "E": TableEquation({(0,): {0}, (1,): {1}}),
    })
    return model, model.configuration({O: 0, D: 0, E: 1})


def test_pins_that_rescue_a_dying_branch_stay_in_the_cone():
    model, root = dying_outside_the_cone()
    args = dict(variables=[VarId(n) for n in "ODE"], steps=[0, 1],
                outcome=[(VarId("O"), 1, 0)])
    for mode in ("some", "all"):
        report = sweep(model, root, mode=mode, **args)
        assert report == oracle_sweep.sweep(model, root, mode=mode, **args)
        assert not report.baseline_holds
        critical = {r.atoms[0].render() for r in report.rows if r.classification == "critical"}
        assert critical == {"D@1=0", "D@1=1", "E@0=0"}
        assert report.by_var() == {"O": "inert", "D": "critical", "E": "critical"}


def _check_against_oracle(model, root, **args):
    try:
        want = oracle_sweep.sweep(model, root, **args)
    except BudgetExceeded as exc:  # the baseline's own tree outgrows the cap
        with pytest.raises(BudgetExceeded) as err:
            sweep(model, root, **args)
        assert str(err.value) == str(exc)
        return None
    got = sweep(model, root, **args)
    if not want.truncated:
        assert got == want
        return got
    # rows the cone prunes build no tree: the pruned sweep may finish rows
    # the oracle cuts off, and those rows are the uncapped oracle's
    full = oracle_sweep.sweep(model, root, **dict(args, node_cap=10**9))
    assert got.baseline_holds == want.baseline_holds
    assert got.rows[: len(want.rows)] == want.rows
    assert got.rows == full.rows[: len(got.rows)]
    assert got.truncated == (len(got.rows) < len(full.rows))
    return got


def test_a_row_whose_live_pins_outgrow_the_cap_tries_its_own_tree():
    """A branches only while O is 1 and A was 1; A is not an ancestor of O.

    O@0=1 alone outgrows the cap, but A@0=0 with it does not: that row is
    finished, as one tree per row finishes it, before O@0=1 with A@0=1 cuts
    the sweep.
    """
    O, A = VarId("O"), VarId("A")
    sig = Signature(plain=[PlainVar(n, frozenset({0, 1})) for n in "OA"],
                    domains={"O": (O,), "A": (O, A)})
    model = Model(sig, {
        "O": TableEquation({(0,): {0}, (1,): {1}}),
        "A": TableEquation({(o, a): {0, 1} if o == a == 1 else {0}
                            for o in (0, 1) for a in (0, 1)}),
    })
    root = model.configuration({O: 0, A: 1})
    report = _check_against_oracle(model, root, variables=[O, A], steps=[0, 1],
                                   outcome=[(O, 2, 0)], k_faults=2, node_cap=5)
    assert report.truncated
    assert [r.atoms for r in report.rows][3] == (Atom(A, 0, 0), Atom(O, 0, 1))


def test_sweep_matches_the_oracle_on_random_table_models():
    rng = random.Random(20261020)
    pruned = in_horizon = rows = capped = 0
    for _ in range(300):
        model, root, ranges = random_model(rng)
        horizon = rng.randint(0, 3)
        names = sorted(ranges)
        outcome = [  # one atom at the horizon, sometimes another one earlier
            (VarId(name), step, rng.choice(ranges[name]))
            for step in sorted({horizon, rng.randint(0, horizon)})
            for name in [rng.choice(names)]
        ]
        args = dict(
            variables=[VarId(n) for n in rng.sample(names, rng.randint(1, len(names)))],
            steps=rng.sample(range(horizon + 3), rng.randint(1, 3)),
            outcome=outcome,
            mode=rng.choice(["some", "all"]),
            k_faults=rng.choice([1, 2]),
        )
        if rng.random() < 0.3:
            args["node_cap"] = rng.randint(1, 40)
            capped += 1
        report = _check_against_oracle(model, root, **args)
        if report is None:
            continue
        rows += len(report.rows)
        cone = _cone(model, outcome, horizon)
        for row in report.rows:
            pruned += any(a.step > horizon or a.var not in cone[a.step] for a in row.atoms)
            in_horizon += any(a.step <= horizon and a.var not in cone[a.step] for a in row.atoms)
    assert rows > 3000 and pruned > 500 and in_horizon > 100 and capped > 50


def test_sweep_matches_the_oracle_on_the_compiled_tm(tm_spec):
    calc = compile_tm(tm_spec)
    root = calc.initial("0101")
    far = [VarId("X", i) for i in range(-8, 13)]
    for outcome in ([(VarId("S"), 3, "e1")], [(VarId("S"), 4, "e0"), (VarId("X", 1), 2, "1")]):
        for mode in ("some", "all"):
            _check_against_oracle(calc.model, root, variables=far + [VarId("S")],
                                  steps=range(3), outcome=outcome, mode=mode)
        _check_against_oracle(calc.model, root, variables=far[6:12], steps=range(3),
                              outcome=outcome, k_faults=2)


def test_sweep_matches_the_oracle_where_the_head_triple_can_die(parity_spec, ntm_spec):
    rng = random.Random(5)
    for calc, word in ((compile_lba(parity_spec, 3), "101"), (compile_ntm(ntm_spec), "1101")):
        root = calc.initial(word)
        cells = core.active_variables(calc.model, root)
        for _ in range(6):
            horizon = rng.randint(1, 3)
            layers = core.reach_layers(core.memo_successors(calc.model), root, horizon)
            reached = rng.choice(list(layers.counts[-1])) if len(layers.counts) > horizon else root
            var = rng.choice([VarId("X", 0), rng.choice(cells)])
            outcome = [(var, horizon, reached.get(var))]
            for k in (1, 2):
                _check_against_oracle(
                    calc.model, root, variables=rng.sample(cells, 4 - k),
                    steps=range(horizon + 3 - k), outcome=outcome,
                    mode=rng.choice(["some", "all"]), k_faults=k,
                )


def test_tm_two_fault_sweep_builds_one_tree_per_set_of_live_pins(tmp_path, monkeypatch, tm_spec):
    """On the benchmark's two-fault sweep, X_5@0, X_4@1 and X_5@1 lie outside
    the cone of S@5: 324 rows keep both pins, 27 keep one, 243 keep none."""
    from causalcalc import interventions

    path = tmp_path / "tm.json"
    path.write_text(dumps_canonical(model_to_json(compile_tm(tm_spec))))
    trees = []
    original = interventions.reach_layers

    def spy(succ, root, depth, **kw):
        trees.append(depth)
        return original(succ, root, depth, **kw)

    monkeypatch.setattr(interventions, "reach_layers", spy)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["sweep", str(path), "--input", "0101", "--vars", "X_0..X_5", "--steps",
                     "0..1", "--outcome", "S@5=acc", "--k", "2"])
    assert code == 0
    assert len(trees) == 1 + 351
