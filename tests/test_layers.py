"""The layered engine against the trees it stands for.

``reach_layers`` keeps, per step, the reachable configurations and how many
tree nodes hold each one. Every verdict, node count, witness id and budget
error it gives must be the one the tree route (``expand_tree`` plus
``holds_at``) gives on the same model, pins and cap.
"""

import itertools
import random
import time

import pytest

from causalcalc import (
    Atom,
    Model,
    PlainVar,
    RuleEquation,
    Signature,
    TableEquation,
    VarId,
    expand_tree,
    holds_at,
    is_cause,
)
from causalcalc.core import memo_successors, reach_layers
from causalcalc.errors import BudgetExceeded

X = VarId("X")
P = VarId("P")


class DieOnOne(RuleEquation):
    def domain_of(self, index):
        return (P,)

    def outputs(self, index, view):
        return frozenset() if view[P] == 1 else frozenset({0, 1})


def die_on_one():
    return Model(Signature(plain=[PlainVar("P", frozenset({0, 1}))]), {"P": DieOnOne()})


def random_model(rng):
    """Up to three table variables; about one row in ten has no successor."""
    names = ["A", "B", "C"][: rng.randint(1, 3)]
    ranges = {n: list(range(rng.randint(1, 3))) for n in names}
    domains = {n: tuple(VarId(d) for d in rng.sample(names, rng.randint(1, len(names))))
               for n in names}
    equations = {}
    for n in names:
        rows = {}
        pools = [ranges[d.name] for d in domains[n]]
        for row in itertools.product(*pools):
            if rng.random() < 0.1:
                rows[row] = set()
            else:
                rows[row] = set(rng.sample(ranges[n], rng.randint(1, len(ranges[n]))))
        equations[n] = TableEquation(rows)
    sig = Signature(
        plain=[PlainVar(n, frozenset(ranges[n])) for n in names], domains=domains
    )
    model = Model(sig, equations)
    root = model.configuration({VarId(n): rng.choice(ranges[n]) for n in names})
    return model, root, ranges


def random_pins(rng, ranges, depth):
    """A forced_fn pinning a few (variable, step) cells past the root."""
    by_step = {}
    for _ in range(rng.randint(0, 2)):
        if depth < 1:
            break
        name = rng.choice(sorted(ranges))
        by_step.setdefault(rng.randint(1, depth), {})[VarId(name)] = rng.choice(ranges[name])
    return (lambda step, parent: by_step.get(step)) if by_step else None


def random_timed(rng, ranges, depth):
    return [
        (VarId(name), rng.randint(0, depth), rng.choice(ranges[name]))
        for name in rng.sample(sorted(ranges), rng.randint(1, len(ranges)))
    ]


def cases(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.1:
            model = die_on_one()
            root = model.configuration({P: rng.randint(0, 1)})
            ranges = {"P": [0, 1]}
        else:
            model, root, ranges = random_model(rng)
        depth = rng.randint(0, 4)
        yield rng, model, root, ranges, depth, random_pins(rng, ranges, depth)


def test_layers_agree_with_trees_on_verdicts_counts_and_witnesses():
    witnessed = 0
    for rng, model, root, ranges, depth, forced_fn in cases(400, 20261018):
        tree = expand_tree(model, root, depth, forced_fn=forced_fn)
        layers = reach_layers(memo_successors(model), root, depth, forced_fn=forced_fn)
        sizes = [sum(layer.values()) for layer in layers.counts]
        assert sum(sizes) == tree.node_count
        assert sizes == [len(tree.nodes_at(step)) for step in range(len(sizes))]
        for _ in range(4):
            timed = random_timed(rng, ranges, depth)
            for mode in ("some", "all"):
                assert layers.holds(timed, mode) == holds_at(tree, timed, mode).holds
            report = holds_at(tree, timed, "some")
            want = report.witnesses[0] if report.holds else None
            assert layers.first_witness(timed) == want
            witnessed += report.holds
    assert witnessed > 300


def test_dying_branches_fail_all_and_keep_their_ids():
    model = die_on_one()
    root = model.configuration({P: 0})
    tree = expand_tree(model, root, 3)
    layers = reach_layers(memo_successors(model), root, 3)
    assert [sum(layer.values()) for layer in layers.counts] == [1, 2, 2, 2]
    assert tree.node_count == 7
    # every branch through P=1 dies, so nothing holds on all branches at step 3
    assert not layers.holds([(P, 3, 0)], "all")
    assert layers.holds([(P, 2, 0)], "some")
    assert layers.first_witness([(P, 3, 1)]) == holds_at(tree, [(P, 3, 1)]).witnesses[0]


def test_layers_raise_the_budget_error_of_the_tree():
    checked = 0
    for _, model, root, _, depth, forced_fn in cases(150, 7):
        for cap in range(51):
            try:
                expand_tree(model, root, depth, node_cap=cap, forced_fn=forced_fn)
                want = None
            except BudgetExceeded as exc:
                want = str(exc)
            try:
                reach_layers(memo_successors(model), root, depth, node_cap=cap,
                             forced_fn=forced_fn)
                got = None
            except BudgetExceeded as exc:
                got = str(exc)
            assert got == want, (cap, depth)
            checked += want is not None
    assert checked > 1000


def test_the_cap_keeps_the_first_nodes_of_the_uncapped_tree():
    """A cap raises only when the tree has more nodes than the cap (and the
    root), at the first step that takes it past, with the first nodes."""
    raised = 0
    for _, model, root, _, depth, forced_fn in cases(150, 11):
        full = expand_tree(model, root, depth, forced_fn=forced_fn)
        for cap in range(full.node_count + 2):
            if full.node_count <= max(cap, 1):
                assert expand_tree(model, root, depth, node_cap=cap, forced_fn=forced_fn) == full
                continue
            step = next(d for d in range(1, depth + 1)
                        if sum(1 for x in full.depth_of if x <= d) > cap)
            message = rf"^node budget {cap} exhausted at step {step}$"
            with pytest.raises(BudgetExceeded, match=message) as err:
                expand_tree(model, root, depth, node_cap=cap, forced_fn=forced_fn)
            partial, keep = err.value.partial, max(cap, 1)
            assert (partial.nodes, partial.parent, partial.labels) == (
                full.nodes[:keep], full.parent[:keep], full.labels[:keep])
            raised += 1
    assert raised > 1000


def counter_layer_sizes(depth):
    """Nodes per step of the saturating counter's tree from 0, counted by value."""
    by_value = {0: 1}
    sizes = [1]
    for _ in range(depth):
        following = {}
        for x, n in by_value.items():
            for y in ((9,) if x == 9 else (0, x + 1)):
                following[y] = following.get(y, 0) + n
        by_value = following
        sizes.append(sum(following.values()))
    return sizes


def test_cause_at_depth_forty_needs_no_tree(counter):
    root = counter.configuration({X: 0})
    started = time.perf_counter()
    verdict = is_cause(counter, root, [Atom(X, 0, 0)], [Atom(X, 40, 0)], node_cap=10**15)
    assert time.perf_counter() - started < 1.0
    assert verdict.is_cause
    assert verdict.witness["preventing"] == {"X@0=0": "9"}
    # the all-reset branch is the first node of every step
    sizes = counter_layer_sizes(40)
    first = [sum(sizes[:d]) for d in range(41)]
    assert verdict.witness["actual_branch"] == first
    assert first[:11] == [2**d - 1 for d in range(11)]
    assert sum(sizes) > 10**12


def test_cause_at_depth_forty_hits_the_default_cap_where_the_tree_would(counter):
    root = counter.configuration({X: 0})
    with pytest.raises(BudgetExceeded, match=r"^node budget 1000000 exhausted at step 19$"):
        is_cause(counter, root, [Atom(X, 0, 0)], [Atom(X, 40, 0)])
