"""Machine specs and run trees for bounded-tape and unbounded-tape machines.

Three kinds share one spec type: ``lba`` (endmarked bounded tape, transition
relation, moves -1/0/1), ``tm`` (deterministic, total transition function,
moves -1/1), and ``ntm`` (relation, moves -1/0/1). Final states self-loop in
place; stuck non-final configurations of the relational kinds are leaves.

Unbounded-tape configurations are head-relative: the scanned cell is index 0
and every step re-centers, so two configurations that look alike around the
head are the same configuration.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .core import DEFAULT_NODE_CAP, ComputationTree, Defect, reach_layers
from .errors import (
    InputNotInAlphabet,
    InputTooLong,
    MalformedConfig,
    StuckConfiguration,
    ValidationFailed,
)

KINDS = ("lba", "tm", "ntm")
MOVES = {"lba": (-1, 0, 1), "tm": (-1, 1), "ntm": (-1, 0, 1)}

ACCEPT = "ACCEPT"
REJECT_EXHAUSTED = "REJECT_EXHAUSTED"
NO_ACCEPT_WITHIN_BUDGET = "NO_ACCEPT_WITHIN_BUDGET"

_BAD_SYMBOL_CHARS = set(" \t\n,()=@;.\"'")


@dataclass(frozen=True)
class Transition:
    src: str
    read: str
    dst: str
    write: str
    move: int


@dataclass(frozen=True)
class MachineSpec:
    kind: str
    states: tuple[str, ...]
    initial: str
    finals: frozenset[str]
    input_alphabet: tuple[str, ...]
    transitions: tuple[Transition, ...]
    blank: str = "#"
    left_marker: str = ">"
    right_marker: str = "<"

    @cached_property
    def tape_alphabet(self) -> tuple[str, ...]:
        extras = [self.blank]
        if self.kind == "lba":
            extras += [self.left_marker, self.right_marker]
        return self.input_alphabet + tuple(e for e in extras if e not in self.input_alphabet)

    @cached_property
    def delta(self) -> dict:
        """(state, symbol) -> tuple of transitions, sorted for determinism."""
        table: dict[tuple[str, str], list[Transition]] = {}
        for t in self.transitions:
            table.setdefault((t.src, t.read), []).append(t)
        return {
            k: tuple(sorted(v, key=lambda t: (t.dst, t.write, t.move)))
            for k, v in table.items()
        }

    def delta_f(self, state: str, symbol: str) -> tuple:
        """The transitions taken from (state, symbol): δ, except that a final
        state takes only the self-loop that writes the scanned symbol back."""
        if state in self.finals:
            return (Transition(state, symbol, state, symbol, 0),)
        return self.delta.get((state, symbol), ())

    def fingerprint(self) -> str:
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        body = repr(
            (
                self.kind,
                self.states,
                self.initial,
                tuple(sorted(self.finals)),
                self.input_alphabet,
                tuple(sorted((t.src, t.read, t.dst, t.write, t.move) for t in self.transitions)),
                self.blank,
                self.left_marker,
                self.right_marker,
            )
        )
        return "sha256:" + hashlib.sha256(body.encode()).hexdigest()

    @cached_property
    def _defects(self) -> tuple:  # the spec is frozen, so it is scanned once
        return tuple(validate_machine(self))


def _symbol_ok(sym: str) -> bool:
    return isinstance(sym, str) and sym != "" and not (set(sym) & _BAD_SYMBOL_CHARS)


def validate_machine(spec: MachineSpec) -> list[Defect]:
    """Structural checks; empty list means the spec is usable."""
    defects = []
    if spec.kind not in KINDS:
        defects.append(Defect("BadKind", spec.kind, f"kind must be one of {KINDS}"))
        return defects
    if not spec.states:
        defects.append(Defect("NoStates", "states", "empty state set"))
    if len(set(spec.states)) != len(spec.states):
        defects.append(Defect("DuplicateState", "states", "repeated state name"))
    if spec.initial not in spec.states:
        defects.append(Defect("BadInitial", spec.initial, "initial state undeclared"))
    if not spec.finals <= set(spec.states):
        defects.append(Defect("BadFinal", "finals", "final state undeclared"))
    if set(spec.states) == spec.finals:
        defects.append(Defect("AllFinal", "finals", "finals must be a proper subset"))
    for s in spec.states:
        if not _symbol_ok(s):
            defects.append(Defect("BadToken", s, "state names must be plain tokens"))

    specials = {spec.blank} | (
        {spec.left_marker, spec.right_marker} if spec.kind == "lba" else set()
    )
    if len(set(spec.input_alphabet)) != len(spec.input_alphabet):
        defects.append(Defect("DuplicateSymbol", "input_alphabet", "repeated symbol"))
    for sym in tuple(spec.input_alphabet) + tuple(specials):
        if not _symbol_ok(sym):
            defects.append(Defect("BadToken", sym, "symbols must be plain tokens"))
    if set(spec.input_alphabet) & specials:
        defects.append(Defect("SymbolClash", "input_alphabet", "blank or marker used as input"))
    if spec.kind == "lba" and len({spec.blank, spec.left_marker, spec.right_marker}) != 3:
        defects.append(Defect("SymbolClash", "markers", "blank and markers must differ"))

    tape = set(spec.tape_alphabet)
    moves = set(MOVES[spec.kind])
    seen = set()
    for t in spec.transitions:
        name = f"{t.src},{t.read}->{t.dst},{t.write},{t.move}"
        if (t.src, t.read, t.dst, t.write, t.move) in seen:
            defects.append(Defect("DuplicateTransition", name, "listed twice"))
        seen.add((t.src, t.read, t.dst, t.write, t.move))
        if t.src not in spec.states or t.dst not in spec.states:
            defects.append(Defect("UnknownState", name, "transition uses undeclared state"))
            continue
        if t.src in spec.finals:
            defects.append(Defect("DeltaFromFinal", name, "no transitions leave final states"))
        if t.read not in tape or t.write not in tape:
            defects.append(Defect("UnknownSymbol", name, "transition uses undeclared symbol"))
        if t.move not in moves:
            defects.append(Defect("BadMove", name, f"move must be in {sorted(moves)}"))
        if spec.kind == "lba":
            if t.read == spec.left_marker and (t.write != spec.left_marker or t.move == -1):
                defects.append(Defect("MarkerViolation", name, "left marker is a wall"))
            if t.read == spec.right_marker and (t.write != spec.right_marker or t.move == 1):
                defects.append(Defect("MarkerViolation", name, "right marker is a wall"))
            if t.read not in (spec.left_marker, spec.right_marker) and t.write in (
                spec.left_marker,
                spec.right_marker,
            ):
                defects.append(Defect("MarkerViolation", name, "markers cannot be written inward"))

    if spec.kind == "tm":
        for q in spec.states:
            if q in spec.finals:
                continue
            for g in spec.tape_alphabet:
                hits = [t for t in spec.transitions if t.src == q and t.read == g]
                if not hits:
                    defects.append(Defect("MissingDelta", f"{q},{g}", "tm delta must be total"))
                elif len(hits) > 1:
                    defects.append(Defect("NondeterministicDelta", f"{q},{g}", "tm delta must be single-valued"))
    return defects


def require_valid(spec: MachineSpec) -> MachineSpec:
    defects = spec._defects
    if defects:
        raise ValidationFailed(
            f"machine spec has {len(defects)} defect(s): {defects[0].code} on {defects[0].subject}",
            defects=defects,
        )
    return spec


class LbaConfig(NamedTuple):
    """Absolute-position configuration; tape includes both markers."""

    state: str
    head: int
    tape: tuple[str, ...]


class TapeConfig(NamedTuple):
    """Head-relative configuration: the scanned cell is index 0."""

    state: str
    cells: tuple[tuple[int, str], ...]  # sorted by index, blanks dropped

    @classmethod
    def from_cells(cls, state: str, cells: dict[int, str], blank: str) -> TapeConfig:
        """The configuration with these {index: symbol} cells, blanks dropped."""
        return cls(state, tuple(sorted((i, s) for i, s in cells.items() if s != blank)))

    def cell(self, index: int, blank: str) -> str:
        for i, sym in self.cells:
            if i == index:
                return sym
        return blank


def initial_machine_config(spec: MachineSpec, input_str: str, tape_len: int | None = None):
    """Start configuration for an input string.

    LBA tapes hold ``tape_len`` working cells (default: just enough for the
    input, at least one); the head starts on the left marker. Unbounded tapes
    put the first input symbol under the head and the rest to its right.
    """
    symbols = list(input_str)
    bad = [s for s in symbols if s not in spec.input_alphabet]
    if bad:
        raise InputNotInAlphabet(f"symbols {bad} not in input alphabet")
    if spec.kind == "lba":
        n = tape_len if tape_len is not None else max(len(symbols), 1)
        if len(symbols) > n:
            raise InputTooLong(f"input of length {len(symbols)} on a {n}-cell tape")
        tape = (
            (spec.left_marker,)
            + tuple(symbols)
            + (spec.blank,) * (n - len(symbols))
            + (spec.right_marker,)
        )
        return LbaConfig(spec.initial, 0, tape)
    cells = {i: s for i, s in enumerate(symbols)}
    return TapeConfig.from_cells(spec.initial, cells, spec.blank)


def machine_step(spec: MachineSpec, config) -> tuple:
    """Successors as (config, transition, direction) triples, one per δ_f move.

    Final states self-loop with direction 0. A stuck non-final configuration
    yields the empty tuple for the relational kinds and raises for ``tm``,
    whose transition function is total by validation.
    """
    if spec.kind == "lba":
        if not isinstance(config, LbaConfig):
            raise MalformedConfig(f"lba step on {type(config).__name__}")
        if not (0 <= config.head < len(config.tape)):
            raise MalformedConfig(f"head {config.head} off the tape")
        out = []
        for t in spec.delta_f(config.state, config.tape[config.head]):
            tape = list(config.tape)
            tape[config.head] = t.write
            out.append((LbaConfig(t.dst, config.head + t.move, tuple(tape)), t, t.move))
        return tuple(out)

    if not isinstance(config, TapeConfig):
        raise MalformedConfig(f"{spec.kind} step on {type(config).__name__}")
    scanned = config.cell(0, spec.blank)
    entries = spec.delta_f(config.state, scanned)
    if not entries and spec.kind == "tm":
        raise StuckConfiguration(f"tm has no move from ({config.state},{scanned})")
    out = []
    for t in entries:
        cells = dict(config.cells)
        cells[0] = t.write
        shifted = {i - t.move: s for i, s in cells.items()}
        out.append((TapeConfig.from_cells(t.dst, shifted, spec.blank), t, t.move))
    return tuple(out)


def closure_run(
    root,
    successors_fn,
    is_final,
    budget: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[ComputationTree, str]:
    """Expand breadth-first, visiting each configuration once, with a verdict.

    ``successors_fn(node)`` gives (node, label) pairs, deduplicated and in
    canonical order. The tree is the :func:`causalcalc.core.reach_layers` of a
    filter that keeps one map {configuration: step first reached} and drops
    every successor already in it, so each reachable configuration is one
    node, at its breadth-first distance from the root. Nodes on the first
    level that holds an accepting node are not expanded, so the run ends
    there, when no new configuration is reached, or at ``budget`` steps. The
    verdict is read off the finished tree: ACCEPT if some level accepted,
    REJECT_EXHAUSTED if the tree ended short of ``budget``,
    NO_ACCEPT_WITHIN_BUDGET otherwise.
    """
    reached = {root: 0}
    accepted_at = 0 if is_final(root) else None

    def fresh(node, _forced):
        nonlocal accepted_at
        step = reached[node] + 1
        if accepted_at is not None and step > accepted_at:
            return ()
        out = []
        for child, label in successors_fn(node):
            if child in reached:
                continue
            reached[child] = step
            out.append((child, label))
            if accepted_at is None and is_final(child):
                accepted_at = step
        return out

    tree = reach_layers(fresh, root, budget, node_cap=node_cap)
    if accepted_at is not None:
        return tree, ACCEPT
    if len(tree.counts) <= budget:
        return tree, REJECT_EXHAUSTED
    return tree, NO_ACCEPT_WITHIN_BUDGET


def plain_run(root, successors_fn, depth: int, *, node_cap: int = DEFAULT_NODE_CAP) -> ComputationTree:
    """Expand to ``depth`` steps, revisits included, or until every branch has died."""
    return reach_layers(lambda node, _forced: successors_fn(node), root, depth, node_cap=node_cap)


def _machine_children(spec: MachineSpec, cfg) -> list:
    """Successors as (config, (transition, move)) pairs in canonical order.

    When two transitions reach the same configuration, the first label in
    transition order is kept.
    """
    kids = {}
    for child, t, d in sorted(machine_step(spec, cfg), key=lambda s: s[0]):
        kids.setdefault(child, (t, d))
    return list(kids.items())


def run_machine(
    spec: MachineSpec,
    input_str: str,
    budget: int,
    *,
    tape_len: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[ComputationTree, str]:
    """Run tree plus acceptance verdict for an input string.

    ACCEPT: some reachable configuration is in a final state within budget.
    REJECT_EXHAUSTED: every reachable configuration was reached short of
    the budget, none of them final.
    NO_ACCEPT_WITHIN_BUDGET: new configurations were still being reached
    when the budget ran out.
    """
    require_valid(spec)
    root = initial_machine_config(spec, input_str, tape_len)
    return closure_run(
        root,
        lambda cfg: _machine_children(spec, cfg),
        lambda cfg: cfg.state in spec.finals,
        budget,
        node_cap=node_cap,
    )


def machine_tree(
    spec: MachineSpec,
    input_str: str,
    depth: int,
    *,
    tape_len: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> ComputationTree:
    """Depth-exact run tree (final states keep self-looping); for comparison."""
    require_valid(spec)
    root = initial_machine_config(spec, input_str, tape_len)
    return plain_run(root, lambda cfg: _machine_children(spec, cfg), depth, node_cap=node_cap)
