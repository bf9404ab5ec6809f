"""Independent reference answers for the benchmark's operations.

Table models are checked by brute force over plain dicts, in the style of the
test suite's cause oracle: every branch is enumerated from the tables, pins
and rewrites are applied directly, and nothing from the package is used.
Compiled-model answers come from the machine side (machine stepping and run
trees), which the calculators claim to reproduce.

A table model here is:
    variables: {name: sorted list of values}
    domains:   {name: list of parent names}
    tables:    {name: {tuple(parent values): set of next values}}
"""

from __future__ import annotations

import itertools


def _value_order(v):
    return (str(v), type(v).__name__)


def branches(task, root, depth, pins=None, rewrites=()):
    """All maximal branches up to ``depth`` as lists of assignment dicts.

    ``pins`` maps (name, step) to a forced value; step-0 pins override the
    root. ``rewrites`` are (name, step, row dict, value) tuples: from step n
    on, a parent matching the row gives that single value, and the newest
    matching rewrite wins. A branch shorter than depth+1 died.
    """
    pins = pins or {}
    order = sorted(task["variables"])
    start = dict(root)
    for (name, step), value in pins.items():
        if step == 0:
            start[name] = value
    out = []
    stack = [[start]]
    while stack:
        prefix = stack.pop()
        if len(prefix) == depth + 1:
            out.append(prefix)
            continue
        step = len(prefix)
        cfg = prefix[-1]
        pools = []
        for name in order:
            hits = [
                (s, v)
                for n, s, row, v in rewrites
                if n == name and s <= step - 1 and all(cfg[k] == x for k, x in row.items())
            ]
            if (name, step) in pins:
                values = {pins[(name, step)]}
            elif hits:
                values = {max(hits, key=lambda h: h[0])[1]}
            else:
                values = set(task["tables"][name][tuple(cfg[d] for d in task["domains"][name])])
            if not values:
                break
            pools.append(sorted(values, key=_value_order))
        else:
            for combo in reversed(list(itertools.product(*pools))):
                stack.append(prefix + [dict(zip(order, combo))])
            continue
        out.append(prefix)
    return out


def holds(task, root, depth, timed, mode="some", pins=None):
    """Whether some (or every) branch satisfies each (name, step, value)."""
    results = [
        all(step < len(b) and b[step][name] == value for name, step, value in timed)
        for b in branches(task, root, depth, pins)
    ]
    return any(results) if mode == "some" else all(results)


def _prevented(task, root, candidate, outcome):
    depth = max(s for _, s, _ in list(candidate) + list(outcome))
    actual = tuple(v for _, _, v in candidate)
    pools = [task["variables"][name] for name, _, _ in candidate]
    for combo in itertools.product(*pools):
        if combo == actual:
            continue
        pins = {(name, step): v for (name, step, _), v in zip(candidate, combo)}
        if not holds(task, root, depth, outcome, pins=pins):
            return combo
    return None


def is_cause(task, root, candidate, outcome):
    """(verdict, failing condition or None) under the three but-for conditions."""
    depth = max(s for _, s, _ in list(candidate) + list(outcome))
    if not holds(task, root, depth, list(candidate) + list(outcome)):
        return False, 1
    if _prevented(task, root, candidate, outcome) is None:
        return False, 2
    n = len(candidate)
    for size in range(1, n):
        for picks in itertools.combinations(range(n), size):
            if _prevented(task, root, [candidate[i] for i in picks], outcome) is not None:
                return False, 3
    return True, None


def fault_rows(cells, values, k):
    """Rows of a k-fault sweep in sweep order: k distinct (name, step) cells,
    each pinned to any value of ``values(name)``, the actual value included."""
    singles = [(n, s, v) for n, s in cells for v in values(n)]
    if k == 1:
        return [(a,) for a in singles]
    return [(a, b) for a, b in itertools.combinations(singles, 2) if a[:2] != b[:2]]


def simulate_tm(spec, cells, pins, steps):
    """State after ``steps`` moves of a deterministic machine under faults.

    ``cells`` maps head-relative index to symbol; ``pins`` maps step to
    {"S" or cell index: value}, applied to the configuration at that step.
    The transition table is read straight from the machine file's dict.
    """
    delta = {(t["from"], t["read"]): t for t in spec["transitions"]}
    finals = set(spec["finals"])
    blank = spec.get("blank", "#")
    state, tape = spec["initial"], dict(cells)
    for step in range(steps + 1):
        for key, value in pins.get(step, {}).items():
            if key == "S":
                state = value
            else:
                tape[key] = value
        if step == steps:
            break
        if state in finals:
            continue
        t = delta[(state, tape.get(0, blank))]
        tape[0] = t["write"]
        tape = {i - t["move"]: g for i, g in tape.items()}
        state = t["to"]
    return state
