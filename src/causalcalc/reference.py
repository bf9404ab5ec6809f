"""A second, deliberately literal interpreter for compiled calculators.

The main path computes per-variable choice sets and takes their product; this
module instead builds each child configuration directly from one transition,
doing its own transition lookups over the raw transition list. The two routes
must agree on every reachable configuration, and the equivalence checker spot
checks exactly that. Only data types are shared; no successor logic is.
"""

from __future__ import annotations

from .core import Configuration, VarId
from .compilers import CELL, STATE, WHOLE, CalculatorModel
from .errors import StuckConfiguration


def _image(spec, state: str, scanned: str) -> list[tuple]:
    if state in spec.finals:
        return [(state, scanned, 0)]
    return sorted(
        (t.dst, t.write, t.move)
        for t in spec.transitions
        if t.src == state and t.read == scanned
    )


def _lba_children(calc: CalculatorModel, cfg: Configuration) -> list[Configuration]:
    spec = calc.machine
    w = calc.tape_len + 1
    state, written, move = cfg.get(VarId(CELL, 0))
    scanned = written if move == 0 else cfg.get(VarId(CELL, move))
    children = []
    for triple in _image(spec, state, scanned):
        assign = {VarId(CELL, 0): triple}
        for i in range(-w, w + 1):
            if i == 0:
                continue
            j = i + move
            if not -w <= j <= w:
                j = i
            assign[VarId(CELL, i)] = written if j == 0 else cfg.get(VarId(CELL, j))
        children.append(calc.model.configuration(assign))
    return children


def _ntm_children(calc: CalculatorModel, cfg: Configuration) -> list[Configuration]:
    spec = calc.machine
    state, written, move = cfg.get(VarId(CELL, 0))
    scanned = written if move == 0 else cfg.get(VarId(CELL, move))
    content = {0: written}
    for var, val in cfg.support:
        if var.name == CELL and var.index != 0:
            content[var.index] = val
    children = []
    for triple in _image(spec, state, scanned):
        assign = {VarId(CELL, 0): triple}
        for j, sym in content.items():
            if j - move != 0:
                assign[VarId(CELL, j - move)] = sym
        children.append(calc.model.configuration(assign))
    return children


def _tm_children(calc: CalculatorModel, cfg: Configuration) -> list[Configuration]:
    spec = calc.machine
    state = cfg.get(VarId(STATE))
    cells = {var.index: val for var, val in cfg.support if var.name == CELL}
    if state in spec.finals:
        assign = {VarId(STATE): state}
        assign.update({VarId(CELL, i): g for i, g in cells.items()})
        return [calc.model.configuration(assign)]
    scanned = cells.get(0, spec.blank)
    hits = [t for t in spec.transitions if t.src == state and t.read == scanned]
    if not hits:
        raise StuckConfiguration(f"no move from ({state},{scanned})")
    t = hits[0]
    cells[0] = t.write
    assign = {VarId(STATE): t.dst}
    assign.update({VarId(CELL, i - t.move): g for i, g in cells.items()})
    return [calc.model.configuration(assign)]


def _mono_children(calc: CalculatorModel, cfg: Configuration) -> list[Configuration]:
    spec = calc.machine
    value = cfg.get(VarId(WHOLE))
    state, head, tape = value[0], value[1], list(value[2:])
    children = []
    for q, g, d in _image(spec, state, tape[head]):
        nxt = list(tape)
        nxt[head] = g
        children.append(calc.model.configuration({VarId(WHOLE): (q, head + d, *nxt)}))
    return children


_BY_KIND = {
    "lba": _lba_children,
    "ntm": _ntm_children,
    "tm": _tm_children,
    "lba_mono": _mono_children,
}


def successor_set(calc: CalculatorModel, cfg: Configuration) -> frozenset:
    return frozenset(_BY_KIND[calc.kind](calc, cfg))


def expand(calc: CalculatorModel, cfg: Configuration, depth: int) -> dict:
    """Nested-dict computation tree with canonically ordered children."""
    root = {"config": cfg, "children": []}
    stack = [(root, depth)]
    while stack:
        node, left = stack.pop()
        if left <= 0:
            continue
        dedup = {}
        for child in _BY_KIND[calc.kind](calc, node["config"]):
            dedup.setdefault(child.sort_key, child)
        node["children"] = [{"config": dedup[k], "children": []} for k in sorted(dedup)]
        stack.extend((kid, left - 1) for kid in node["children"])
    return root


def matches_tree(ref: dict, tree, node_id: int = 0) -> bool:
    """Structural equality of a nested-dict tree against a ComputationTree."""
    stack = [(ref, node_id)]
    while stack:
        node, nid = stack.pop()
        if node["config"] != tree.nodes[nid]:
            return False
        kids = tree.children[nid]
        if len(kids) != len(node["children"]):
            return False
        stack.extend(zip(node["children"], kids))
    return True
