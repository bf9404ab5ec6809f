import collections
import contextlib
import io

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
from causalcalc import core
from causalcalc.cli import main
from causalcalc.compilers import TmCellRule, TmStateRule, compile_tm
from causalcalc.errors import (
    DuplicateAtom,
    OutOfRangeValue,
    RowDomainMismatch,
    StepBeyondDepth,
    UnknownVariable,
)
from causalcalc.formats import dumps_canonical, model_to_json

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
