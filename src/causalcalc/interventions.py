"""Interventions, equation rewrites, and but-for cause queries.

Both kinds of intervention only force values: a forced variable takes its one
value in place of its equation, which is not evaluated (see
``core.successor_choices``). A value intervention pins variables to values at
given steps on every branch; the root is overridden directly for step-0 atoms.
A structure intervention rewrites single equation rows from a given step
onward: a row rewritten at step n governs every later step until a newer
rewrite targets the same row.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from .core import (
    DEFAULT_NODE_CAP,
    ComputationTree,
    Configuration,
    Labeler,
    LazyRange,
    Model,
    TimedAssignment,
    Value,
    VarId,
    expand_tree,
    memo_successors,
    reach_layers,
    render_value,
    value_key,
)
from .errors import (
    BudgetExceeded,
    DuplicateAtom,
    OutOfRangeValue,
    RowDomainMismatch,
    StepBeyondDepth,
    UnknownVariable,
)


class Atom(NamedTuple):
    """Pin ``var`` to ``value`` at ``step``; equal to the timed assignment
    ``(var, step, value)`` that ``holds`` and ``first_witness`` read."""

    var: VarId
    step: int
    value: Value

    def render(self) -> str:
        return f"{self.var.render()}@{self.step}={render_value(self.value)}"


@dataclass(frozen=True)
class RewriteAtom:
    """From ``step`` on, the equation row ``row`` of ``var`` outputs ``value``.

    ``row`` assigns every domain variable of ``var``, stored sorted by
    variable key.
    """

    var: VarId
    step: int
    row: tuple[tuple[VarId, Value], ...]
    value: Value

    def render(self) -> str:
        inner = ",".join(f"{v.render()}={render_value(x)}" for v, x in self.row)
        return f"{self.var.render()}@{self.step}({inner})={render_value(self.value)}"


def _distinct(atoms: Iterable, cell) -> tuple:
    """The atoms, refusing a negative step or two atoms on one ``cell(atom)``."""
    atoms, seen = tuple(atoms), set()
    for a in atoms:
        if a.step < 0:
            raise StepBeyondDepth(f"negative step in {a.render()}")
        if cell(a) in seen:
            raise DuplicateAtom(a.render())
        seen.add(cell(a))
    return atoms


class InterventionSpec:
    def __init__(self, atoms: Iterable[Atom]):
        self.atoms = _distinct(atoms, lambda a: (a.var, a.step))


class StructureInterventionSpec:
    def __init__(self, atoms: Iterable[RewriteAtom]):
        self.atoms = _distinct(atoms, lambda a: (a.var, a.step, a.row))


def _check_atom(model: Model, atom: Atom | RewriteAtom):
    if atom.value not in model.signature.range_of(atom.var):  # raises UnknownVariable
        raise OutOfRangeValue(atom.render())


def _check_rewrite(model: Model, atom: RewriteAtom):
    _check_atom(model, atom)
    domain = model.domain_of(atom.var)
    row_vars = [v for v, _ in atom.row]
    if sorted(row_vars, key=lambda v: v.key) != sorted(set(domain), key=lambda v: v.key):
        raise RowDomainMismatch(
            f"row of {atom.render()} must assign exactly {[d.render() for d in domain]}"
        )
    for v, x in atom.row:
        if x not in model.signature.range_of(v):
            raise OutOfRangeValue(f"{v.render()}={render_value(x)} in {atom.render()}")


def _values(model: Model, var: VarId) -> list:
    """``var``'s values in canonical order; a lazy range refuses (RangeTooLarge)."""
    rng = model.signature.range_of(var)
    return sorted(rng.members() if isinstance(rng, LazyRange) else rng, key=value_key)


def _override_root(model: Model, root: Configuration, pins: Mapping[VarId, Value]) -> Configuration:
    if not pins:
        return root
    assignment = dict(root.support)
    assignment.update(pins)
    return model.configuration(assignment)


def _pinned(model: Model, root: Configuration, spec: InterventionSpec, depth: int):
    """The intervened root and the ``forced_fn`` that pins every later step."""
    by_step: dict[int, dict[VarId, Value]] = {}
    for atom in spec.atoms:
        _check_atom(model, atom)
        if atom.step > depth:
            raise StepBeyondDepth(f"{atom.render()} exceeds depth {depth}")
        by_step.setdefault(atom.step, {})[atom.var] = atom.value
    return _override_root(model, root, by_step.get(0, {})), lambda step, parent: by_step.get(step)


def apply_intervention(
    model: Model,
    root: Configuration,
    spec: InterventionSpec,
    depth: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    labeler: Labeler | None = None,
) -> ComputationTree:
    """Expand the intervened computation tree to ``depth`` steps."""
    root, forced_fn = _pinned(model, root, spec, depth)
    return expand_tree(
        model, root, depth, node_cap=node_cap, labeler=labeler, forced_fn=forced_fn
    )


def _pinned_tree(model, succ, root, spec, depth, node_cap):
    """The tree ``apply_intervention`` would build, unfolded through ``succ``."""
    root, forced_fn = _pinned(model, root, spec, depth)
    return reach_layers(succ, root, depth, node_cap=node_cap, forced_fn=forced_fn)


def apply_structure_intervention(
    model: Model,
    root: Configuration,
    spec: StructureInterventionSpec,
    depth: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    labeler: Labeler | None = None,
) -> ComputationTree:
    """Expand the tree under rewritten equations.

    Children born at tree step i use the equation stack accumulated through
    step i-1, so a rewrite at step n first shows in values at step n+1.
    """
    for atom in spec.atoms:
        _check_rewrite(model, atom)
    atoms = sorted(spec.atoms, key=lambda a: a.step)

    def forced_fn(step: int, parent: Configuration):
        # newer rewrites overwrite older ones for the same variable
        return {
            a.var: a.value
            for a in atoms
            if a.step < step and all(parent.get(v) == x for v, x in a.row)
        }

    return expand_tree(
        model, root, depth, node_cap=node_cap, labeler=labeler, forced_fn=forced_fn
    )


@dataclass
class CauseVerdict:
    is_cause: bool
    failing_condition: int | None = None
    # for a positive verdict: the canonically first preventing alternative and
    # one branch witnessing actuality; for condition 3: the smaller sufficient
    # subset with its own preventing alternative
    witness: dict = field(default_factory=dict)


def _cone(model: Model, outcome: Sequence[TimedAssignment], horizon: int):
    """Per step 0..horizon, the variables whose value there can change the verdict
    (a pin elsewhere cannot: do-calculus rule 3); None when an unbounded family
    cannot list its members that can die."""
    sig, mortal = model.signature, []
    for name in [p.name for p in sig.plain] + [f.name for f in sig.families]:
        eq, fam = model.equations.get(name), sig.family(name)
        members = None if eq is None else eq.mortal(model, name)
        if members is None:
            if fam is not None and not fam.bounded:
                return None
            members = (None,) if fam is None else range(fam.lo, fam.hi + 1)
        mortal.extend(VarId(name, i) for i in members)
    cone = [set() for _ in range(horizon + 1)]
    for var, step, _ in outcome:
        cone[step].add(var)
    for step in range(horizon, 0, -1):
        cone[step].update(mortal)  # a pin skips its equation: it can rescue a dying branch
        for var in cone[step]:
            cone[step - 1].update(model.domain_of(var))
    return cone


def _verdicts(model: Model, succ, root: Configuration, outcome, mode: str, node_cap: int, cache):
    """``verdict(pins)``: whether the outcome holds in ``mode`` under the pins.

    Pins outside the outcome's backward cone (``_cone``) or after its last
    step cannot change the verdict, so it is read once per set of the other
    pins, off their tree through the query's one successor memo, and kept in
    ``cache`` ({pins: verdict}). When that tree outgrows the node cap, the
    cache keeps None for it, and these and later pins that share it try their
    own tree before BudgetExceeded is let out.
    """
    if not outcome:
        raise ValueError("outcome must be non-empty")
    for atom in map(Atom._make, outcome):  # a plain (var, step, value) is checked as its Atom
        InterventionSpec([atom])  # rejects a negative step
        _check_atom(model, atom)
    horizon = max(step for _, step, _ in outcome)
    cone = _cone(succ.model, outcome, horizon)

    def holds(pins: tuple[Atom, ...]) -> bool:
        depth = max([horizon] + [a.step for a in pins])
        tree = _pinned_tree(model, succ, root, InterventionSpec(pins), depth, node_cap)
        return tree.holds(outcome, mode)

    def verdict(pins: Sequence[Atom]) -> bool:
        pins = tuple(pins)
        live = tuple(
            a for a in pins
            if cone is None or a.step < 0 or a.step <= horizon and a.var in cone[a.step]
        )
        if live not in cache:
            try:
                cache[live] = holds(live)
            except BudgetExceeded:
                cache[live] = None  # outgrew the cap: rows sharing it go to their own tree
                if live == pins:
                    raise
        if cache[live] is None:
            return holds(pins)  # the pruned pins may keep the tree under the cap
        return cache[live]

    return verdict


def _prevents(model: Model, verdict, atoms: Sequence[Atom]) -> dict | None:
    """First alternative vector whose intervention kills the outcome everywhere."""
    actual = tuple(a.value for a in atoms)
    pools = [_values(model, a.var) for a in atoms]
    for combo in itertools.product(*pools):
        if combo != actual and not verdict([a._replace(value=v) for a, v in zip(atoms, combo)]):
            return {a.render(): render_value(v) for a, v in zip(atoms, combo)}
    return None


def is_cause(
    model: Model,
    root: Configuration,
    candidate: Sequence[Atom],
    outcome: Sequence[Atom],
    *,
    same_branch: bool = True,
    node_cap: int = DEFAULT_NODE_CAP,
) -> CauseVerdict:
    """But-for cause check.

    (1) candidate and outcome are actual (by default on one common branch;
    ``same_branch=False`` lets each find its own branch); (2) some alternative
    assignment to all candidate coordinates makes the outcome fail on every
    branch; (3) no proper non-empty sub-assignment already manages (2).
    Every tree is read from its per-step reachable sets (``reach_layers``),
    with one successor memo for the whole query; alternatives are answered
    as sweep rows are (``_verdicts``).
    """
    candidate = list(candidate)
    outcome = list(outcome)
    if not candidate:
        raise ValueError("candidate must be non-empty")
    InterventionSpec(candidate)  # step/duplicate checks
    for a in candidate:
        _check_atom(model, a)

    succ = memo_successors(model)
    known: dict = {}
    verdict = _verdicts(model, succ, root, outcome, "some", node_cap, known)
    horizon = max(a.step for a in candidate + outcome)
    base = reach_layers(succ, root, horizon, node_cap=node_cap)
    if same_branch:
        actual = base.first_witness(candidate + outcome)
    else:
        actual = base.first_witness(outcome)
        if not base.holds(candidate):
            return CauseVerdict(False, failing_condition=1)
    if actual is None:
        return CauseVerdict(False, failing_condition=1)
    known[()] = True  # the outcome is actual, so pins it cannot see leave it holding

    preventing = _prevents(model, verdict, candidate)
    if preventing is None:
        return CauseVerdict(False, failing_condition=2)

    n = len(candidate)
    for size in range(1, n):
        for subset in itertools.combinations(range(n), size):
            sub = [candidate[i] for i in subset]
            alt = _prevents(model, verdict, sub)
            if alt is not None:
                return CauseVerdict(
                    False,
                    failing_condition=3,
                    witness={
                        "sufficient_subset": [a.render() for a in sub],
                        "preventing": alt,
                    },
                )
    return CauseVerdict(
        True,
        witness={
            "preventing": preventing,
            "actual_branch": list(actual),
        },
    )


@dataclass
class SweepRow:
    atoms: tuple[Atom, ...]
    outcome_holds: bool
    classification: str  # "critical" | "inert"


@dataclass
class SweepReport:
    baseline_holds: bool
    mode: str
    rows: list[SweepRow]
    truncated: bool = False

    def by_var(self) -> dict[str, str]:
        """Cell-level view: a variable is critical if any of its rows is."""
        out: dict[str, str] = {}
        for row in self.rows:
            for a in row.atoms:
                name = a.var.render()
                if row.classification == "critical":
                    out[name] = "critical"
                else:
                    out.setdefault(name, "inert")
        return out


def sweep(
    model: Model,
    root: Configuration,
    *,
    variables: Sequence[VarId],
    steps: Iterable[int],
    outcome: Sequence[TimedAssignment],
    mode: str = "some",
    k_faults: int = 1,
    node_cap: int = DEFAULT_NODE_CAP,
) -> SweepReport:
    """Fault-injection sweep: try every value at every (variable, step) cell.

    Each row pins ``k_faults`` cells to alternative values and reports whether
    the outcome predicate still holds; a row is critical when the verdict
    differs from the unintervened baseline. Rows are answered through one
    ``_verdicts``, which skips the pins that cannot change the verdict. When
    a row's tree outgrows the node cap, the report is returned truncated with
    the rows finished so far."""
    if k_faults not in (1, 2):
        raise ValueError("k_faults must be 1 or 2")
    if not variables:
        raise UnknownVariable("sweep variable set is empty")
    for var in variables:
        if not model.signature.is_declared(var):
            raise UnknownVariable(var.render())
    verdict = _verdicts(model, memo_successors(model), root, outcome, mode, node_cap, {})
    if not all(a < b for a, b in zip(steps, itertools.islice(steps, 1, None))):
        steps = sorted(set(steps))  # ascending steps (a range, formats.Steps) are read in place
    baseline = verdict(())

    cells = [
        (var, step)
        for var in sorted(set(variables), key=lambda v: v.key)
        for step in steps
    ]
    singles = [
        Atom(var, step, value)
        for var, step in cells
        for value in _values(model, var)
    ]
    if k_faults == 1:
        combos = [(a,) for a in singles]
    else:
        combos = [
            (a, b)
            for a, b in itertools.combinations(singles, 2)
            if (a.var, a.step) != (b.var, b.step)
        ]

    rows: list[SweepRow] = []
    for atoms in combos:
        try:
            held = verdict(atoms)
        except BudgetExceeded:
            return SweepReport(baseline, mode, rows, truncated=True)
        rows.append(SweepRow(atoms, held, "critical" if held != baseline else "inert"))
    return SweepReport(baseline, mode, rows)
