"""Bounded-depth equivalence between a machine and its compiled calculator.

One lockstep walk serves every calculator kind. It expands the machine's run
tree and the calculator's computation tree level by level, matching the
children of each node pair by (move label, decoded machine configuration);
since both sides are deduplicated the match must be a bijection at every
node. A deterministic TM run is that walk with one child per node. The walk
stops at the first mismatch and reports it at the label path of the pair
whose children disagree. A fraction of visited calculator nodes is
re-expanded through the independent reference interpreter as a cross-check
on the successor computation itself. Every calculator expansion, the walk's
and the cross-check's, goes through one ``core.memo_successors`` per check,
the route every other query uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .core import DEFAULT_NODE_CAP, SuccessorFn, memo_successors
from .compilers import CalculatorModel, calc_accepts, calc_labeler, decode_config, initial_calc_config
from .errors import KindMismatch, UndecodableConfig
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


def _compat(spec: MachineSpec, calc: CalculatorModel):
    require_valid(spec)
    if calc.machine.kind != spec.kind:
        raise KindMismatch(f"{calc.kind} calculator cannot simulate a {spec.kind} machine")
    if calc.machine_hash != spec.fingerprint():
        raise KindMismatch("calculator was compiled from a different machine")


def _recheck(calc: CalculatorModel, succ: SuccessorFn, visited: list, fraction: float, seed: int):
    """Compare main-route (``succ``) and reference-route successors on a random sample."""
    rng = random.Random(seed)
    k = max(1, int(len(visited) * fraction))
    sample = rng.sample(visited, min(k, len(visited)))
    for cfg in sample:
        if frozenset(c for c, _ in succ(cfg)) != reference.successor_set(calc, cfg):
            return len(sample), Counterexample(
                "reference_disagreement",
                (),
                "two successor routes differ on a visited configuration",
                calc_config=cfg,
            )
    return len(sample), None


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
    report = EquivReport(True, calc.kind, input_str, depth)
    mroot = initial_machine_config(spec, input_str, calc.tape_len)
    croot = initial_calc_config(calc, input_str)
    visited = [croot]
    succ = memo_successors(calc.model, calc_labeler(calc))

    def fail(kind, path, detail, m=None, c=None):
        report.equivalent = False
        report.counterexample = Counterexample(kind, tuple(path), detail, m, c)
        return report

    if decode_config(calc, croot, ()) != mroot:
        return fail("translation_mismatch", (), "root decodes wrong", mroot, croot)

    pairs = [(mroot, croot, ())]
    report.machine_nodes.append(1)
    report.calc_nodes.append(1)
    for _ in range(depth):
        nxt = []
        for m, c, labels in pairs:
            mkeys = {(d, child) for child, _, d in machine_step(spec, m)}
            ckeys = {}
            for child, d in succ(c):
                try:
                    decoded = decode_config(calc, child, labels + (d,))
                except UndecodableConfig as exc:
                    return fail("undecodable", labels + (d,), str(exc), m, child)
                ckeys[(d, decoded)] = child
            if len(visited) + len(ckeys) > node_cap:
                return fail("node_cap", labels, f"walk exceeds {node_cap} nodes")
            if mkeys != set(ckeys):
                missing = sorted(str(k) for k in mkeys - set(ckeys))
                extra = sorted(str(k) for k in set(ckeys) - mkeys)
                return fail(
                    "successor_mismatch",
                    labels,
                    f"machine-only children {missing}; calculator-only {extra}",
                    m,
                    c,
                )
            for (d, mchild), cchild in sorted(
                ckeys.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
            ):
                visited.append(cchild)
                nxt.append((mchild, cchild, labels + (d,)))
        pairs = nxt
        report.machine_nodes.append(len(pairs))
        report.calc_nodes.append(len(pairs))
        if not pairs:
            break
    report.rechecked, bad = _recheck(calc, succ, visited, recheck_fraction, seed)
    if bad is not None:
        report.equivalent = False
        report.counterexample = bad
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
