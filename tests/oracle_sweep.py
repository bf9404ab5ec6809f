"""The fault sweep with one pinned tree per row.

This is the loop ``interventions.sweep`` ran before it pruned pins outside
the outcome's backward cone: every row builds its own tree through the
sweep's one successor memo, to ``max(horizon, step)``, and reads the verdict
off it. The pruned sweep must report exactly what this one reports, row for
row, whenever this one finishes; under a node cap it may finish rows this
one cuts off, because rows it prunes build no tree.
"""

import itertools

from causalcalc.core import DEFAULT_NODE_CAP, memo_successors, reach_layers, value_key
from causalcalc.errors import BudgetExceeded
from causalcalc.interventions import (
    Atom,
    InterventionSpec,
    SweepReport,
    SweepRow,
    _pinned_tree,
)


def sweep(model, root, *, variables, steps, outcome, mode="some", k_faults=1,
          node_cap=DEFAULT_NODE_CAP):
    succ = memo_successors(model)
    horizon = max(s for _, s, _ in outcome)
    baseline = reach_layers(succ, root, horizon, node_cap=node_cap).holds(outcome, mode)
    cells = [
        (var, step)
        for var in sorted(set(variables), key=lambda v: v.key)
        for step in sorted(set(steps))
    ]
    singles = [
        Atom(var, step, value)
        for var, step in cells
        for value in sorted(model.signature.range_of(var), key=value_key)
    ]
    if k_faults == 1:
        combos = [(a,) for a in singles]
    else:
        combos = [
            (a, b)
            for a, b in itertools.combinations(singles, 2)
            if (a.var, a.step) != (b.var, b.step)
        ]
    rows, truncated = [], False
    for atoms in combos:
        depth = max(horizon, max(a.step for a in atoms))
        try:
            tree = _pinned_tree(model, succ, root, InterventionSpec(atoms), depth, node_cap)
        except BudgetExceeded:
            truncated = True
            break
        verdict = tree.holds(outcome, mode)
        rows.append(SweepRow(atoms, verdict, "critical" if verdict != baseline else "inert"))
    return SweepReport(baseline, mode, rows, truncated)
