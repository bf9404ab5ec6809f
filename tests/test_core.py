import itertools

import pytest
from hypothesis import given, settings, strategies as st

from causalcalc import (
    ComputationTree,
    Configuration,
    Family,
    Model,
    OverrideEquation,
    PlainVar,
    RuleEquation,
    Signature,
    TableEquation,
    VarId,
    active_variables,
    eval_equation,
    expand_tree,
    holds_at,
    render_value,
    successors,
    validate_model,
)
from causalcalc.core import memo_successors, reach_layers, value_key
from causalcalc.errors import (
    BudgetExceeded,
    MissingDomainValue,
    OutOfRangeValue,
    StepBeyondDepth,
    UnknownVariable,
)
from causalcalc.formats import dumps_tree
from causalcalc.machines import closure_run, machine_tree
from conftest import walk_lba

X = VarId("X")


def test_counter_tree_depth_two_is_exactly_six_nodes(counter):
    root = counter.configuration({X: 8})
    tree = expand_tree(counter, root, 2)
    assert tree.node_count == 6
    shape = [
        (tree.depth_of[i], tree.parent[i], tree.nodes[i].get(X))
        for i in range(tree.node_count)
    ]
    assert shape == [
        (0, None, 8),
        (1, 0, 0),
        (1, 0, 9),
        (2, 1, 0),
        (2, 1, 1),
        (2, 2, 9),
    ]


def test_children_are_canonically_ordered_and_deduplicated(two_var):
    a, b = VarId("A"), VarId("B")
    root = two_var.configuration({a: 0, b: 0})
    kids = successors(two_var, root)
    # B branches to {0, 1}; A copies B's old value
    assert [(k.get(a), k.get(b)) for k in kids] == [(0, 0), (0, 1)]

    # a model where two different choice combinations collapse to one child
    sig = Signature(
        plain=[PlainVar("P", frozenset({0, 1}))], domains={"P": (VarId("P"),)}
    )
    m = Model(sig, {"P": TableEquation({(0,): {0, 1}, (1,): {0, 1}})})
    tree = expand_tree(m, m.configuration({VarId("P"): 0}), 2)
    assert tree.node_count == 1 + 2 + 4


def test_configuration_equality_ignores_spelling():
    fam = Family("X", None, None, frozenset({"#", "a"}), "#")
    sig = Signature(families=[fam])
    # one with the default written out, one without
    from causalcalc import Configuration

    c1 = Configuration.make(sig, {VarId("X", 0): "a", VarId("X", 5): "#"})
    c2 = Configuration.make(sig, {VarId("X", 0): "a"})
    assert c1 == c2 and hash(c1) == hash(c2)
    assert c1.support == ((VarId("X", 0), "a"),)
    assert c1.get(VarId("X", 99)) == "#"


def test_configuration_rejects_bad_assignments(counter):
    with pytest.raises(UnknownVariable):
        counter.configuration({VarId("Y"): 1})
    with pytest.raises(OutOfRangeValue):
        counter.configuration({X: 77})
    with pytest.raises(MissingDomainValue):
        counter.configuration({})


def test_family_overrides_must_be_assigned():
    fam = Family("X", -2, 2, frozenset({"#", "a"}), "#", overrides={0: frozenset({("q", "#")})})
    sig = Signature(families=[fam])
    from causalcalc import Configuration

    with pytest.raises(MissingDomainValue):
        Configuration.make(sig, {VarId("X", 1): "a"})
    cfg = Configuration.make(sig, {VarId("X", 0): ("q", "#")})
    assert cfg.get(VarId("X", 0)) == ("q", "#")
    with pytest.raises(UnknownVariable):
        cfg.get(VarId("X", 7))  # outside the bounded index range


def test_dead_configuration_ends_branch():
    class DieOnOne(RuleEquation):
        def domain_of(self, index):
            return (VarId("P"),)

        def outputs(self, index, view):
            return frozenset() if view[VarId("P")] == 1 else frozenset({1})

    sig = Signature(plain=[PlainVar("P", frozenset({0, 1}))])
    m = Model(sig, {"P": DieOnOne()})
    tree = expand_tree(m, m.configuration({VarId("P"): 0}), 4)
    # 0 -> 1 -> dead
    assert tree.node_count == 2
    assert tree.children[1] == []


def test_holds_at_some_and_all(counter):
    root = counter.configuration({X: 8})
    tree = expand_tree(counter, root, 2)
    assert holds_at(tree, [(X, 2, 9)], "some").holds
    assert not holds_at(tree, [(X, 2, 9)], "all").holds
    assert holds_at(tree, [(X, 0, 8)], "all").holds
    report = holds_at(tree, [(X, 1, 0), (X, 2, 1)], "some")
    assert report.holds and report.witnesses == [(0, 1, 4)]
    with pytest.raises(StepBeyondDepth):
        holds_at(tree, [(X, 3, 9)])
    with pytest.raises(ValueError):
        holds_at(tree, [(X, 1, 0)], "most")


def test_holds_at_dying_branch_does_not_satisfy():
    class DieOnOne(RuleEquation):
        def domain_of(self, index):
            return (VarId("P"),)

        def outputs(self, index, view):
            return frozenset() if view[VarId("P")] == 1 else frozenset({0, 1})

    sig = Signature(plain=[PlainVar("P", frozenset({0, 1}))])
    m = Model(sig, {"P": DieOnOne()})
    tree = expand_tree(m, m.configuration({VarId("P"): 0}), 3)
    # the all-zero branch reaches depth 3; branches through 1 die earlier
    assert holds_at(tree, [(VarId("P"), 3, 0)], "some").holds
    assert not holds_at(tree, [(VarId("P"), 1, 1), (VarId("P"), 3, 0)], "some").holds


def test_node_budget_carries_partial_tree(counter):
    root = counter.configuration({X: 0})
    with pytest.raises(BudgetExceeded) as err:
        expand_tree(counter, root, 10, node_cap=5)
    assert err.value.partial.node_count == 5


def test_every_expander_carries_a_computation_tree_past_its_cap(counter):
    root = counter.configuration({X: 0})
    walk = walk_lba()
    for cap in (1, 2, 5, 6, 30, 100):
        partials = []
        for build in (
            lambda: reach_layers(memo_successors(counter), root, 10, node_cap=cap),
            lambda: expand_tree(counter, root, 10, node_cap=cap),
            lambda: machine_tree(walk, "ab", 10, tape_len=3, node_cap=cap),
            lambda: closure_run(1, lambda n: [(2 * n, 0), (2 * n + 1, 1)], lambda n: False, 10, node_cap=cap),
        ):
            with pytest.raises(BudgetExceeded) as err:
                build()
            assert type(err.value.partial) is ComputationTree
            assert err.value.partial.node_count == cap
            partials.append(err.value.partial)
        assert dumps_tree(partials[0], True) == dumps_tree(partials[1], True)


def test_label_paths_and_branches(counter):
    root = counter.configuration({X: 8})
    tree = expand_tree(counter, root, 2, labeler=lambda p, c: c.get(X) - p.get(X))
    paths = list(tree.branches())
    assert paths == [[0, 1, 3], [0, 1, 4], [0, 2, 5]]
    assert tree.label_path(4) == (-8, 1)


def test_validate_model_reports_table_defects():
    sig = Signature(
        plain=[PlainVar("P", frozenset({0, 1}))], domains={"P": (VarId("P"),)}
    )
    missing = Model(sig, {"P": TableEquation({(0,): {1}})})
    codes = {d.code for d in validate_model(missing)}
    assert "MissingRow" in codes

    extra = Model(sig, {"P": TableEquation({(0,): {1}, (1,): {1}, (7,): {0}})})
    assert "UnknownRow" in {d.code for d in validate_model(extra)}

    empty = Model(sig, {"P": TableEquation({(0,): set(), (1,): {1}})})
    assert "EmptyOutput" in {d.code for d in validate_model(empty)}

    wild = Model(sig, {"P": TableEquation({(0,): {5}, (1,): {1}})})
    assert "OutputOutOfRange" in {d.code for d in validate_model(wild)}

    assert validate_model(Model(sig, {"P": TableEquation({(0,): {1}, (1,): {1}})})) == []


def test_validate_model_reports_wiring_defects():
    sig = Signature(plain=[PlainVar("P", frozenset({0, 1}))])
    assert "MissingDomain" in {
        d.code for d in validate_model(Model(sig, {"P": TableEquation({(0,): {1}})}))
    }
    assert "MissingEquation" in {d.code for d in validate_model(Model(sig, {}))}
    sig2 = Signature(
        plain=[PlainVar("P", frozenset({0, 1}))], domains={"P": (VarId("P"),)}
    )
    eqs = {"P": TableEquation({(0,): {1}, (1,): {1}}), "Q": TableEquation({})}
    assert "UnknownEquationTarget" in {d.code for d in validate_model(Model(sig2, eqs))}

    fam = Family("F", 0, 1, frozenset({0, 1}), 0)
    sig3 = Signature(families=[fam])
    assert "TableOnFamily" in {
        d.code for d in validate_model(Model(sig3, {"F": TableEquation({})}))
    }


def test_validate_model_catches_ambiguous_rendering_and_default_leak():
    sig = Signature(
        plain=[PlainVar("P", frozenset({1, "1"}))], domains={"P": (VarId("P"),)}
    )
    rows = {(1,): {1}, ("1",): {1}}
    assert "AmbiguousRendering" in {
        d.code for d in validate_model(Model(sig, {"P": TableEquation(rows)}))
    }

    class Leak(RuleEquation):
        def domain_of(self, index):
            return (VarId("F", index),)

        def outputs(self, index, view):
            return frozenset({1})  # even infinitely far out: not the default

    fam = Family("F", None, None, frozenset({0, 1}), 0)
    leaky = Model(Signature(families=[fam]), {"F": Leak()})
    assert "DefaultLeak" in {d.code for d in validate_model(leaky)}


def test_values_compare_by_type_and_family_ranges_must_render_apart():
    y0 = VarId("Y", 0)
    sig = Signature(families=[Family("Y", 0, 1, frozenset({0, 1, "1"}), 0)])
    assert Configuration.make(sig, {y0: 1}) != Configuration.make(sig, {y0: "1"})
    assert len({Configuration.make(sig, {y0: 1}), Configuration.make(sig, {y0: "1"})}) == 2
    assert [d.subject for d in validate_model(Model(sig, {})) if d.code == "AmbiguousRendering"] == ["Y"]

    # members of tuples compare by type too, and mixed keys still sort
    pair = frozenset({(1, "a"), ("1", "a"), "(1,a)"})
    z1 = VarId("Z", 1)
    fam = Family("Z", 0, 1, frozenset({0}), 0, overrides={1: pair})
    sig = Signature(families=[fam])
    assert len({Configuration.make(sig, {z1: v}) for v in pair}) == 3
    assert sorted(pair, key=value_key) == [(1, "a"), ("1", "a"), "(1,a)"]
    assert [d.subject for d in validate_model(Model(sig, {})) if d.code == "AmbiguousRendering"] == ["Z_1"]


def test_override_equation_touches_exactly_one_row(counter):
    hacked = Model(
        counter.signature,
        {"X": OverrideEquation(counter, "X", {(None, (3,)): {7}})},
    )
    assert eval_equation(hacked, X, {X: 3}) == frozenset({7})
    for v in range(10):
        if v != 3:
            assert eval_equation(hacked, X, {X: v}) == eval_equation(counter, X, {X: v})


def test_active_variables_window_tracks_support():
    class Keep(RuleEquation):
        def domain_of(self, index):
            return (VarId("F", index),)

        def outputs(self, index, view):
            return frozenset({view[VarId("F", index)]})

    fam = Family("F", None, None, frozenset({0, 1}), 0)
    m = Model(Signature(families=[fam]), {"F": Keep()})
    cfg = m.configuration({VarId("F", 4): 1})
    idx = sorted(v.index for v in active_variables(m, cfg))
    assert idx == [-1, 0, 1, 2, 3, 4, 5]


# ---------------------------------------------------------- cache safety
#
# Models cache domains and choice sets, signatures cache (range, default)
# slots and renderings. None of these may hide a failure or leak between
# models that share a signature.


def test_undeclared_variables_fail_on_every_call(counter):
    cfg = counter.configuration({X: 4})
    for var in (VarId("Q"), VarId("X", 0)):
        for _ in range(2):
            with pytest.raises(UnknownVariable):
                cfg.get(var)
            with pytest.raises(UnknownVariable):
                eval_equation(counter, var, cfg)
            with pytest.raises(UnknownVariable):
                counter.domain_of(var)
            with pytest.raises(UnknownVariable):
                Configuration.make(counter.signature, {X: 4, var: 1})


def test_override_output_outside_the_range_fails_on_every_expansion(counter):
    hacked = Model(counter.signature, {"X": OverrideEquation(counter, "X", {(None, (3,)): {42}})})
    root = hacked.configuration({X: 3})
    for _ in range(2):
        with pytest.raises(OutOfRangeValue):
            successors(hacked, root)
        with pytest.raises(OutOfRangeValue):
            expand_tree(hacked, root, 2)


def test_a_model_sharing_a_signature_sees_its_own_equations(counter):
    root = counter.configuration({X: 3})
    before = expand_tree(counter, root, 3)
    # built like the acceptance tests' corruptions: same signature, new Model
    hacked = Model(counter.signature, {"X": OverrideEquation(counter, "X", {(None, (3,)): {7}})})
    assert hacked.signature is counter.signature
    assert [k.get(X) for k in successors(hacked, root)] == [7]
    assert [k.get(X) for k in successors(counter, root)] == [0, 4]
    assert expand_tree(counter, root, 3) == before

    class Constant(RuleEquation):
        def domain_of(self, index):
            return ()

        def outputs(self, index, view):
            return frozenset({5})

    constant = Model(counter.signature, {"X": Constant()})
    assert counter.domain_of(X) == (X,)
    assert constant.domain_of(X) == ()
    assert [k.get(X) for k in successors(constant, root)] == [5]


def test_cached_renderings_keep_value_types_apart():
    sig = Signature(plain=[PlainVar("P", frozenset({(1, "a"), ((1,), "a")}))])
    # each value is made first, so its rendering is cached before the lookalike
    pairs = [((1, "a"), (True, "a")), (((1,), "a"), ((True,), "a"))]
    for _ in range(2):
        for value, lookalike in pairs:
            made = [Configuration.make(sig, {VarId("P"): v}) for v in (value, lookalike)]
            assert [c.sort_key[0][2] for c in made] == [render_value(value), render_value(lookalike)]
            assert made[0] != made[1]


def test_var_id_api():
    assert VarId("X").render() == "X" and VarId("X", -2).render() == "X_-2"
    assert VarId("X").key == ("X", 0) and VarId("X", 3).key == ("X", 3)
    assert VarId("F", 1) == VarId("F", 1) and hash(VarId("F", 1)) == hash(VarId("F", 1))
    assert VarId("X") != VarId("X", 0)
    assert (VarId("X", 1).name, VarId("X", 1).index) == ("X", 1)
    assert len({VarId("X"), VarId("X", 0), VarId("X", None)}) == 2


def test_render_value_is_injective_on_typical_values():
    values = [0, 1, -3, "a", "q0", ("q", "#", 1), ("q", ("a", 0)), ()]
    rendered = [render_value(v) for v in values]
    assert len(set(rendered)) == len(values)
    assert render_value(("q", "#", 1)) == "(q,#,1)"


# ---------------------------------------------------------- properties

def _brute_successors(model, cfg):
    order = [p.name for p in model.signature.plain]
    pools = []
    for name in order:
        row = tuple(cfg.get(d) for d in model.signature.domains[name])
        out = model.equations[name].rows[row]
        if not out:
            return None
        pools.append(sorted(out, key=lambda v: (str(v), type(v).__name__)))
    combos = set()
    for combo in itertools.product(*pools):
        combos.add(tuple(zip(order, combo)))
    return {
        model.configuration({VarId(n): v for n, v in combo}) for combo in combos
    }


@st.composite
def table_models(draw):
    n = draw(st.integers(1, 3))
    names = ["A", "B", "C"][:n]
    sizes = {name: draw(st.integers(1, 3)) for name in names}
    plain = [PlainVar(name, frozenset(range(sizes[name]))) for name in names]
    domains = {
        name: tuple(
            VarId(d)
            for d in draw(
                st.lists(st.sampled_from(names), unique=True, max_size=n)
            )
        )
        for name in names
    }
    sig = Signature(plain=plain, domains=domains)
    eqs = {}
    for name in names:
        pools = [range(sizes[d.name]) for d in domains[name]]
        rows = {}
        for row in itertools.product(*pools):
            out = draw(
                st.sets(
                    st.integers(0, sizes[name] - 1),
                    min_size=1,
                    max_size=2,
                )
            )
            rows[row] = out
        eqs[name] = TableEquation(rows)
    root = {VarId(name): draw(st.integers(0, sizes[name] - 1)) for name in names}
    return Model(sig, eqs), root


@settings(max_examples=60, deadline=None)
@given(table_models())
def test_successors_match_brute_force_product(mr):
    model, root_assign = mr
    assert validate_model(model) == []
    cfg = model.configuration(root_assign)
    assert set(successors(model, cfg)) == _brute_successors(model, cfg)


@settings(max_examples=30, deadline=None)
@given(table_models(), st.integers(1, 3))
def test_every_tree_node_is_a_valid_successor(mr, depth):
    model, root_assign = mr
    root = model.configuration(root_assign)
    tree = expand_tree(model, root, depth, node_cap=20_000)
    for nid in range(1, tree.node_count):
        parent = tree.nodes[tree.parent[nid]]
        assert tree.nodes[nid] in _brute_successors(model, parent)
    # completeness: every brute successor of every non-leaf appears
    for nid in range(tree.node_count):
        if tree.depth_of[nid] == tree.depth:
            continue
        brute = _brute_successors(model, tree.nodes[nid])
        got = {tree.nodes[c] for c in tree.children[nid]}
        assert got == (brute or set())
