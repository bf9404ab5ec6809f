"""Bounded-depth equivalence between a machine and its compiled calculator.

One walk serves every calculator kind: ``core.reach_layers`` over pair states
(machine configuration, calculator configuration). A pair's children are the
calculator's children matched to the machine's by (move label, decoded machine
configuration), which must be a bijection. The machine configuration fixes the
calculator's frame, so each distinct pair is stepped, expanded and decoded
once, while the per-level counts are still the node counts of the lockstep
tree. The walk stops on the first level where a check fails and reports the
BFS-first node that fails, at its label path. A sample of the tree's nodes is
re-expanded through the independent reference interpreter. Every calculator
expansion goes through one ``core.memo_successors`` per check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .core import DEFAULT_NODE_CAP, ComputationTree, SuccessorFn, memo_successors, reach_layers
from .compilers import CalculatorModel, calc_accepts, calc_labeler, decode_config, initial_calc_config
from .errors import BudgetExceeded, CausalCalcError, KindMismatch, UndecodableConfig
from .machines import MachineSpec, initial_machine_config, machine_step, require_valid, run_machine
from . import reference


@dataclass
class Counterexample:
    kind: str
    path: tuple[int, ...]
    detail: str
    machine_config: object = None
    calc_config: object = None

    def path_text(self) -> str:
        return ".".join(str(d) for d in self.path) if self.path else "<root>"


@dataclass
class EquivReport:
    """``machine_nodes`` and ``calc_nodes`` count the walk's (move, configuration)
    pairs per level: two moves into one configuration are two pairs, though
    ``machines.machine_tree`` keeps one node for them."""

    equivalent: bool
    kind: str
    input: str
    depth: int
    machine_nodes: list[int] = field(default_factory=list)
    calc_nodes: list[int] = field(default_factory=list)
    rechecked: int = 0
    counterexample: Counterexample | None = None


@dataclass
class _Failed:  # why a pair fails, at a path relative to the node that holds it
    error: Counterexample | CausalCalcError
    width: int | None = None  # children held against the node cap; None fails before the cap


def _compat(spec: MachineSpec, calc: CalculatorModel):
    require_valid(spec)
    if calc.machine.kind != spec.kind:
        raise KindMismatch(f"{calc.kind} calculator cannot simulate a {spec.kind} machine")
    if calc.machine_hash != spec.fingerprint():
        raise KindMismatch("calculator was compiled from a different machine")


def _recheck(calc: CalculatorModel, succ: SuccessorFn, walk: ComputationTree, fraction: float, seed: int):
    """Main-route (``succ``) and reference-route successors on a sample of tree nodes."""
    nodes = walk.nodes  # (machine, calculator) pairs
    k = min(max(1, int(len(nodes) * fraction)), len(nodes))
    sample = random.Random(seed).sample(range(len(nodes)), k)
    for cfg in dict.fromkeys(nodes[i][1] for i in sample):  # each distinct configuration once
        if frozenset(c for c, _ in succ(cfg)) != reference.successor_set(calc, cfg):
            detail = "two successor routes differ on a visited configuration"
            return k, Counterexample("reference_disagreement", (), detail, calc_config=cfg)
    return k, None


def _first_failure(memo: dict, walk: ComputationTree, last: int, visited: int, node_cap: int):
    """The first node at step ``last`` to fail, in BFS order, as the lockstep walk checked
    each: decoding, the node cap (``visited`` nodes are through that step), the match.
    The walk's nodes through its last expanded step are within the cap, so it holds them."""
    for nid in walk.nodes_at(last):
        kids = memo[walk.nodes[nid]]
        width = len(kids) if type(kids) is tuple else kids.width
        if width is not None and visited + width > node_cap:
            return Counterexample("node_cap", walk.label_path(nid), f"walk exceeds {node_cap} nodes")
        if type(kids) is not tuple:
            e = kids.error
            if isinstance(e, CausalCalcError):
                raise e
            path = walk.label_path(nid) + e.path
            return Counterexample(e.kind, path, e.detail, e.machine_config, e.calc_config)
        visited += width


def check_equivalence(
    spec: MachineSpec,
    calc: CalculatorModel,
    input_str: str,
    depth: int,
    *,
    recheck_fraction: float = 0.1,
    seed: int = 0,
    node_cap: int = DEFAULT_NODE_CAP,
) -> EquivReport:
    """Walk machine and calculator in lockstep for ``depth`` steps."""
    _compat(spec, calc)
    report = EquivReport(False, calc.kind, input_str, depth)
    mroot = initial_machine_config(spec, input_str, calc.tape_len)
    croot = initial_calc_config(calc, input_str)
    if decode_config(calc, croot) != mroot:
        detail = "root decodes wrong"
        report.counterexample = Counterexample("translation_mismatch", (), detail, mroot, croot)
        return report
    succ = memo_successors(calc.model, calc_labeler(calc))
    moves, memo, failed, window = {}, {}, None, calc.kind == "lba"

    def match(m, c):
        """The pair's matched children in (move, machine configuration) order, or
        why they fail; an error is raised once the scan reaches the pair's node."""
        try:
            mkeys = moves.get(m)
            if mkeys is None:
                mkeys = moves[m] = {(d, child) for child, _, d in machine_step(spec, m)}
            offset = m.head if window else 0
            ckeys = {}
            for child, d in succ(c):
                try:
                    ckeys[(d, decode_config(calc, child, offset, d))] = child
                except UndecodableConfig as exc:
                    return _Failed(Counterexample("undecodable", (d,), str(exc), m, child))
        except CausalCalcError as exc:
            return _Failed(exc)
        if mkeys != ckeys.keys():
            missing = sorted(str(k) for k in mkeys - set(ckeys))
            extra = sorted(str(k) for k in set(ckeys) - mkeys)
            detail = f"machine-only children {missing}; calculator-only {extra}"
            return _Failed(Counterexample("successor_mismatch", (), detail, m, c), len(ckeys))
        matched = ckeys.items()
        if len(ckeys) > 1:
            matched = sorted(matched, key=lambda kv: (kv[0][0], str(kv[0][1])))
        return tuple([((mchild, cchild), d) for (d, mchild), cchild in matched])

    def step(pair, _forced):
        nonlocal failed
        kids = memo.get(pair) if failed is None else ()  # the walk ends on the level that failed
        if kids is None:
            kids = memo[pair] = match(*pair)
        if type(kids) is not tuple:
            failed, kids = pair, ()
        return kids

    try:
        walk, last = reach_layers(step, (mroot, croot), depth, node_cap=node_cap), None
    except BudgetExceeded as exc:
        walk, last = exc.partial, len(exc.partial.kids) - 1
    if failed is not None:
        last = next(s for s, counts in enumerate(walk.counts) if failed in counts)
    died = len(walk.kids) == len(walk.counts)  # the last level came out empty
    nodes = [sum(counts.values()) for counts in walk.counts] + [0] * died
    if last is None:
        report.rechecked, report.counterexample = _recheck(calc, succ, walk, recheck_fraction, seed)
    else:
        del nodes[last + 1 :]
        report.counterexample = _first_failure(memo, walk, last, sum(nodes), node_cap)
    report.machine_nodes, report.calc_nodes = nodes, list(nodes)
    report.equivalent = report.counterexample is None
    return report


@dataclass
class MatrixRow:
    input: str
    machine_verdict: str
    calc_verdict: str

    @property
    def agree(self) -> bool:
        return self.machine_verdict == self.calc_verdict


@dataclass
class MatrixReport:
    rows: list[MatrixRow]

    @property
    def all_agree(self) -> bool:
        return all(r.agree for r in self.rows)


def check_acceptance_matrix(
    spec: MachineSpec,
    calc: CalculatorModel,
    inputs,
    budget: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> MatrixReport:
    """Acceptance verdicts computed on both sides, input by input."""
    _compat(spec, calc)
    rows = []
    for s in inputs:
        _, mv = run_machine(spec, s, budget, tape_len=calc.tape_len, node_cap=node_cap)
        _, cv = calc_accepts(calc, s, budget, node_cap=node_cap)
        rows.append(MatrixRow(s, mv, cv))
    return MatrixReport(rows)
