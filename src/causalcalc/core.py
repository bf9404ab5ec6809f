"""Temporal causal models with nondeterministic one-step equations.

A model assigns every variable a finite range and one equation over the
previous step's values of its domain variables. Equations return *sets* of
admissible next values; a computation tree branches over every combination of
choices. Variables come in two forms: plain named variables, and indexed
families (``X_3``, ``X_-1``) with a default value so configurations can keep
finite support over an unbounded index set.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

from .errors import (
    BudgetExceeded,
    MissingDomainValue,
    OutOfRangeValue,
    StepBeyondDepth,
    UnknownVariable,
    ValidationFailed,
)

Value = Union[str, int, tuple]

DEFAULT_NODE_CAP = 1_000_000
_MUST_ASSIGN = object()  # the default of a variable that has none


def render_value(value: Value) -> str:
    """Canonical single-token rendering, used for sorting and text output."""
    if isinstance(value, tuple):
        return "(" + ",".join(render_value(v) for v in value) + ")"
    return str(value)


def _type_signature(value: Value) -> str:
    if isinstance(value, tuple):
        return "(" + ",".join([_type_signature(v) for v in value]) + ")"
    return value.__class__.__name__


def value_key(value: Value):
    """Sort and identity key: the rendering, then the types, then the value.

    Values of different types never share a key, even when they render alike.
    The value itself is compared only between values of the same types.
    """
    if isinstance(value, tuple):
        return (render_value(value), _type_signature(value), value)
    return (str(value), value.__class__.__name__, value)


class VarId(NamedTuple):  # a tuple, so it hashes and compares at C speed
    """A variable identity: plain name, or family name plus member index."""

    name: str
    index: int | None = None

    def render(self) -> str:
        if self.index is None:
            return self.name
        return f"{self.name}_{self.index}"

    @property
    def key(self):
        return (self.name, self.index if self.index is not None else 0)


class LazyRange:
    """A range too large to enumerate; supports membership and size only."""

    def __contains__(self, value: Value) -> bool:
        raise NotImplementedError

    def size(self) -> int:
        raise NotImplementedError

    def members(self) -> Iterable[Value]:
        from .errors import RangeTooLarge

        raise RangeTooLarge(f"range of size {self.size()} is not enumerable")


@dataclass(frozen=True)
class PlainVar:
    name: str
    values: frozenset | LazyRange


@dataclass(frozen=True)
class Family:
    """An indexed variable family; ``lo``/``hi`` of None mean unbounded.

    ``overrides`` gives individual members a different range; overridden
    members must always be assigned explicitly (the default does not apply
    to them).
    """

    name: str
    lo: int | None
    hi: int | None
    values: frozenset
    default: Value
    overrides: Mapping[int, frozenset] = field(default_factory=dict)

    def covers(self, index: int) -> bool:
        if self.lo is not None and index < self.lo:
            return False
        if self.hi is not None and index > self.hi:
            return False
        return True

    @property
    def bounded(self) -> bool:
        return self.lo is not None and self.hi is not None


class Signature:
    """Variable declarations plus explicit domains for plain variables."""

    def __init__(
        self,
        plain: Iterable[PlainVar] = (),
        families: Iterable[Family] = (),
        domains: Mapping[str, Sequence[VarId]] | None = None,
    ):
        self.plain = tuple(plain)
        self.families = tuple(families)
        self.domains = {k: tuple(v) for k, v in (domains or {}).items()}
        self._plain_by_name = {p.name: p for p in self.plain}
        self._family_by_name = {f.name: f for f in self.families}
        dupes = set(self._plain_by_name) & set(self._family_by_name)
        if dupes or len(self._plain_by_name) != len(self.plain) or len(
            self._family_by_name
        ) != len(self.families):
            raise ValueError(f"duplicate variable names in signature: {sorted(dupes)}")
        self._required = [(VarId(p.name), f"plain variable {p.name} unassigned") for p in self.plain]
        self._required += [
            (VarId(f.name, i), f"{f.name}_{i} must be assigned") for f in self.families for i in f.overrides
        ]
        self._slots, self._renderings = {}, {}  # filled by slot() and rendering()

    def __eq__(self, other):
        return (
            isinstance(other, Signature)
            and self.plain == other.plain
            and self.families == other.families
            and self.domains == other.domains
        )

    def __repr__(self):
        return f"Signature(plain={len(self.plain)}, families={len(self.families)})"

    def family(self, name: str) -> Family | None:
        return self._family_by_name.get(name)

    def is_declared(self, var: VarId) -> bool:
        if var.index is None:
            return var.name in self._plain_by_name
        fam = self._family_by_name.get(var.name)
        return fam is not None and fam.covers(var.index)

    def range_of(self, var: VarId) -> frozenset | LazyRange:
        return self.slot(var)[0]

    def slot(self, var: VarId) -> tuple:
        """(range, default) of a declared variable, cached per variable.

        Plain variables and overridden members default to _MUST_ASSIGN. An
        undeclared variable raises UnknownVariable on every call.
        """
        slot = self._slots.get(var)
        if slot is None:
            fam = self._family_by_name.get(var.name)
            if var.index is None and var.name in self._plain_by_name:
                slot = (self._plain_by_name[var.name].values, _MUST_ASSIGN)
            elif var.index is not None and fam is not None and fam.covers(var.index):
                default = _MUST_ASSIGN if var.index in fam.overrides else fam.default
                slot = (fam.overrides.get(var.index, fam.values), default)
            else:
                raise UnknownVariable(var.render())
            self._slots[var] = slot
        return slot

    def rendering(self, value: Value) -> str:
        """``render_value(value)``, computed once per flat tuple of exact ints and strings."""
        if type(value) is not tuple or not {int, str}.issuperset(map(type, value)):
            return render_value(value)  # equal values of other types may render apart
        text = self._renderings.get(value)
        if text is None:
            text = self._renderings[value] = render_value(value)
        return text

    def resolve(self, text: str) -> VarId:
        """Parse a rendered variable name back to a VarId."""
        if text in self._plain_by_name:
            return VarId(text)
        base, sep, suffix = text.rpartition("_")
        if sep and base in self._family_by_name:
            try:
                return VarId(base, int(suffix))
            except ValueError:
                pass
        raise UnknownVariable(text)


class Configuration:
    """A total assignment with finite support.

    Family members not listed carry their family default; plain variables and
    overridden members must always be assigned. Equality and hashing use the
    normalized support only, so two configurations that agree everywhere are
    equal regardless of how they were written down. Values compare by type
    too, so ``1`` and ``"1"`` differ; the sort order puts renderings first and
    compares the values themselves only when they render alike, which a valid
    model's ranges never allow (see ``AmbiguousRendering``).
    """

    __slots__ = ("signature", "_map", "_key", "_hash")

    def __init__(self, signature: Signature, normalized: dict):
        self.signature = signature
        self._map = normalized
        rendering = signature.rendering
        # (name, index) is unique per variable, so the sort never compares values
        self._key = tuple(sorted(
            (var.name, var.index if var.index is not None else 0, rendering(val), val)
            for var, val in normalized.items()
        ))
        self._hash = hash(self._key)

    @classmethod
    def make(cls, signature: Signature, assignment: Mapping[VarId, Value]) -> "Configuration":
        normalized = {}
        for var, val in assignment.items():
            rng, default = signature.slot(var)
            if val not in rng:
                raise OutOfRangeValue(f"{var.render()} = {render_value(val)}")
            if val == default:
                continue
            normalized[var] = val
        for var, message in signature._required:
            if var not in normalized:
                raise MissingDomainValue(message)
        return cls(signature, normalized)

    def get(self, var: VarId) -> Value:
        value = self._map.get(var, _MUST_ASSIGN)
        if value is _MUST_ASSIGN:
            value = self.signature.slot(var)[1]
            if value is _MUST_ASSIGN:
                raise MissingDomainValue(var.render())
        return value

    @property
    def support(self) -> tuple[tuple[VarId, Value], ...]:
        return tuple(sorted(self._map.items(), key=lambda kv: kv[0].key))

    def family_support(self, name: str) -> list[int]:
        return sorted(v.index for v in self._map if v.name == name and v.index is not None)

    @property
    def sort_key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, Configuration) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = ",".join(f"{v.render()}={render_value(x)}" for v, x in self.support)
        return f"<cfg {body}>"


class TableEquation:
    """An explicit next-value table over the target's declared domain."""

    def __init__(self, rows: Mapping[tuple, Iterable[Value]]):
        self.rows = {tuple(k): frozenset(v) for k, v in rows.items()}

    def __eq__(self, other):
        return isinstance(other, TableEquation) and self.rows == other.rows

    def mortal(self, model: "Model", name: str) -> tuple:
        """``(None,)`` if a row over the domain is missing, empty or out of range."""
        sig, var = model.signature, VarId(name)
        rows = map(self.rows.get, itertools.product(*map(sig.range_of, model.domain_of(var))))
        return () if all(out and out <= sig.range_of(var) for out in rows) else (None,)


class RuleEquation:
    """A computed equation; used for compiled models and row surgery.

    Subclasses provide the domain per member index (None for plain targets)
    and the output set for a restriction of the previous configuration.
    """

    # member indices (None: plain) whose output can be empty or raise; None: any
    mortal_members: tuple | None = None

    def mortal(self, model: "Model", name: str) -> tuple | None:
        return self.mortal_members

    def domain_of(self, index: int | None) -> tuple[VarId, ...]:
        raise NotImplementedError

    def outputs(self, index: int | None, view: Mapping[VarId, Value]) -> frozenset:
        raise NotImplementedError


class OverrideEquation(RuleEquation):
    """Wraps an equation, forcing chosen (index, domain row) pairs.

    ``overrides`` maps (index, row) to a replacement output set, where the row
    is the tuple of domain values in domain order. Used to model single-row
    corruption without touching the underlying rule.
    """

    def __init__(self, model: "Model", name: str, overrides: Mapping[tuple, Iterable[Value]]):
        self._model = model
        self._name = name
        self.base = model.equations[name]
        self.overrides = {k: frozenset(v) for k, v in overrides.items()}

    def domain_of(self, index):
        if isinstance(self.base, RuleEquation):
            return self.base.domain_of(index)
        return self._model.signature.domains[self._name]

    def outputs(self, index, view):
        domain = self.domain_of(index)
        row = tuple(view[d] for d in domain)
        hit = self.overrides.get((index, row))
        if hit is not None:
            return hit
        if isinstance(self.base, RuleEquation):
            return self.base.outputs(index, view)
        return self.base.rows[row]


@dataclass
class Model:
    """Variables and equations. Never mutated: it caches domains and choice sets."""

    signature: Signature
    equations: Mapping[str, Union[TableEquation, RuleEquation]]
    _domains: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _choices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def domain_of(self, var: VarId) -> tuple[VarId, ...]:
        domain = self._domains.get(var)
        if domain is not None:
            return domain
        self.signature.slot(var)  # raises UnknownVariable for undeclared variables
        eq = self.equations.get(var.name)
        if isinstance(eq, RuleEquation):
            domain = eq.domain_of(var.index)
        elif var.index is not None:
            raise ValidationFailed(
                f"family {var.name} has a table equation; families need rule equations"
            )
        else:
            domain = self.signature.domains[var.name]
        self._domains[var] = domain
        return domain

    def configuration(self, assignment: Mapping[VarId, Value]) -> Configuration:
        return Configuration.make(self.signature, assignment)


@dataclass(frozen=True)
class Defect:
    code: str
    subject: str
    detail: str


def _context_rows(signature: Signature, domain, probe_vars):
    """Enumerate assignments for domain variables outside the probe set."""
    fixed = [d for d in domain if d not in probe_vars]
    pools = []
    for d in fixed:
        rng = signature.range_of(d)
        if isinstance(rng, LazyRange):
            return None
        pools.append(sorted(rng, key=value_key))
    for combo in itertools.product(*pools):
        yield dict(zip(fixed, combo))


def _ambiguous(subject: str, values) -> list[Defect]:
    if isinstance(values, LazyRange) or len({render_value(v) for v in values}) == len(values):
        return []
    return [Defect("AmbiguousRendering", subject, "two values render alike")]


def validate_model(model: Model) -> list[Defect]:
    """Structural checks; an empty list means the model is well-formed."""
    defects = []
    sig = model.signature

    for p in sig.plain:
        n = p.values.size() if isinstance(p.values, LazyRange) else len(p.values)
        if n == 0:
            defects.append(Defect("EmptyRange", p.name, "range has no values"))
        defects.extend(_ambiguous(p.name, p.values))
    for fam in sig.families:
        if not fam.values:
            defects.append(Defect("EmptyRange", fam.name, "family range has no values"))
        defects.extend(_ambiguous(fam.name, fam.values))
        if fam.default not in fam.values:
            defects.append(Defect("BadDefault", fam.name, "default not in family range"))
        if (fam.lo is None) != (fam.hi is None):
            defects.append(Defect("HalfBounded", fam.name, "one-sided index range"))
        for idx, rng in fam.overrides.items():
            if not fam.covers(idx):
                defects.append(Defect("OverrideOutOfBounds", f"{fam.name}_{idx}", "index outside family"))
            if not rng:
                defects.append(Defect("EmptyRange", f"{fam.name}_{idx}", "override range empty"))
            defects.extend(_ambiguous(f"{fam.name}_{idx}", rng))

    names = {p.name for p in sig.plain} | {f.name for f in sig.families}
    for name in names:
        if name not in model.equations:
            defects.append(Defect("MissingEquation", name, "no equation assigned"))
    for name in model.equations:
        if name not in names:
            defects.append(Defect("UnknownEquationTarget", name, "equation for undeclared variable"))

    for name, eq in model.equations.items():
        if name not in names:
            continue
        fam = sig.family(name)
        if isinstance(eq, TableEquation):
            if fam is not None:
                defects.append(Defect("TableOnFamily", name, "families need rule equations"))
                continue
            domain = sig.domains.get(name)
            if domain is None:
                defects.append(Defect("MissingDomain", name, "no domain declared"))
                continue
            bad_domain = False
            for d in domain:
                if not sig.is_declared(d):
                    defects.append(Defect("UnknownDomainVariable", name, d.render()))
                    bad_domain = True
                elif isinstance(sig.range_of(d), LazyRange):
                    defects.append(Defect("TableOverLazyRange", name, d.render()))
                    bad_domain = True
            if bad_domain:
                continue
            target_range = sig.range_of(VarId(name))
            pools = [sorted(sig.range_of(d), key=value_key) for d in domain]
            expected = {tuple(row) for row in itertools.product(*pools)}
            got = set(eq.rows)
            for row in expected - got:
                defects.append(Defect("MissingRow", name, render_value(tuple(row))))
            for row in got - expected:
                defects.append(Defect("UnknownRow", name, render_value(tuple(row))))
            for row, out in eq.rows.items():
                if not out:
                    defects.append(Defect("EmptyOutput", name, render_value(tuple(row))))
                elif isinstance(target_range, frozenset) and not out <= target_range:
                    defects.append(Defect("OutputOutOfRange", name, render_value(tuple(row))))
        else:
            probe_indices = [0] if fam is None else _family_probe_indices(fam)
            for idx in probe_indices:
                target = VarId(name, idx) if fam is not None else VarId(name)
                try:
                    domain = eq.domain_of(target.index)
                except Exception as exc:  # defect, not crash: rule must answer
                    defects.append(Defect("DomainRuleError", target.render(), str(exc)))
                    continue
                for d in domain:
                    if not sig.is_declared(d):
                        defects.append(Defect("UnknownDomainVariable", target.render(), d.render()))
            if fam is not None and not fam.bounded:
                defects.extend(_check_default_context(model, fam, eq))

    return defects


def _family_probe_indices(fam: Family) -> list[int]:
    if fam.bounded:
        picks = {fam.lo, fam.hi, 0, fam.lo + 1, fam.hi - 1}
        return sorted(i for i in picks if fam.covers(i))
    far = max([abs(i) for i in fam.overrides] + [1]) + 7
    return sorted(set(fam.overrides) | {-far, 0, far})


def _check_default_context(model: Model, fam: Family, eq: RuleEquation) -> list[Defect]:
    """Far from all activity, an unbounded family member must stay default."""
    defects = []
    far = max([abs(i) for i in fam.overrides] + [1]) + 9
    for idx in (far, -far):
        target = VarId(fam.name, idx)
        domain = eq.domain_of(idx)
        probe = {d for d in domain if d.name == fam.name and d.index not in fam.overrides}
        rows = _context_rows(model.signature, domain, probe)
        if rows is None:
            defects.append(Defect("DefaultCheckSkipped", target.render(), "lazy range in domain"))
            continue
        for ctx in rows:
            view = {d: ctx.get(d, fam.default) for d in domain}
            out = eq.outputs(idx, view)
            if out and out != frozenset([fam.default]):
                defects.append(
                    Defect("DefaultLeak", target.render(), f"context {ctx} gives {sorted(map(render_value, out))}")
                )
                break
    return defects


def eval_equation(model: Model, target: VarId, assignment) -> frozenset:
    """Output set of the target's equation under the previous-step values.

    ``assignment`` is a Configuration or a mapping covering the target's
    domain. Returns a frozenset; an empty set means the configuration is dead
    at this variable (only rule equations may produce that).
    """
    eq = model.equations.get(target.name)
    if eq is None:
        raise UnknownVariable(target.render())
    domain = model.domain_of(target)  # raises UnknownVariable for undeclared targets
    if isinstance(assignment, Configuration):
        view = {d: assignment.get(d) for d in domain}
    else:
        view = {}
        for d in domain:
            if d not in assignment:
                raise MissingDomainValue(f"{target.render()} needs {d.render()}")
            view[d] = assignment[d]
    if isinstance(eq, TableEquation):
        row = tuple(view[d] for d in domain)
        try:
            return eq.rows[row]
        except KeyError:
            raise OutOfRangeValue(
                f"no table row for {target.render()} under {render_value(row)}"
            ) from None
    return eq.outputs(target.index, view)


def active_variables(model: Model, config: Configuration) -> list[VarId]:
    """Variables whose next value may differ from the default.

    Plain variables and bounded family members always count. Unbounded
    families contribute the support window widened by one index on each side
    and anchored at index 0, where the compiled step rules write.
    """
    out = [VarId(p.name) for p in model.signature.plain]
    for fam in model.signature.families:
        if fam.bounded:
            out.extend(VarId(fam.name, i) for i in range(fam.lo, fam.hi + 1))
        else:
            anchors = set(fam.overrides) | {0}
            idxs = set(config.family_support(fam.name)) | anchors
            lo, hi = min(idxs) - 1, max(idxs) + 1
            out.extend(VarId(fam.name, i) for i in range(lo, hi + 1))
    out.sort(key=lambda v: v.key)
    return out


def successor_choices(
    model: Model, config: Configuration, forced: Mapping[VarId, Value] | None = None
):
    """Per-variable choice sets for the next step, or None for a dead config.

    ``forced`` gives variables the single value they take next; their
    equations are not evaluated, so a forced value applies even where the
    equation has no successor. Forced variables outside the active set join
    it, in key order.
    """
    targets = active_variables(model, config)
    if forced:
        targets = sorted(forced.keys() | set(targets), key=lambda v: v.key)
    choices, cache = [], model._choices
    for var in targets:
        if forced and var in forced:
            choices.append((var, (forced[var],)))
            continue
        vals = cache.get((config, var))
        if vals is None:
            vals = eval_equation(model, var, config)
            if not vals:
                return None
            vals = tuple(sorted(vals, key=value_key)) if len(vals) > 1 else tuple(vals)
            cache[(config, var)] = vals
        choices.append((var, vals))
    return choices


def successors(
    model: Model, config: Configuration, forced: Mapping[VarId, Value] | None = None
) -> tuple[Configuration, ...]:
    """All one-step successors, deduplicated and canonically ordered."""
    choices = successor_choices(model, config, forced)
    if choices is None:
        return ()
    return expand_choices(model.signature, choices)


SuccessorFn = Callable[[Configuration, Optional[Mapping[VarId, Value]]], tuple]
Labeler = Callable[[Configuration, Configuration], object]


def memo_successors(model: Model, labeler: Labeler | None = None) -> SuccessorFn:
    """(child, label) pairs of ``successors``, computed once per (configuration, forced values).

    Models are pure, so a configuration's children under the same forced
    values never change. Labels are ``labeler(parent, child)``, or None
    without a labeler. Every expansion goes through one of these; a query
    that passes over the same model many times shares one.
    """
    memo = {}
    model = Model(model.signature, model.equations)  # its caches live as long as the memo

    def children(config: Configuration, forced: Mapping[VarId, Value] | None = None):
        key = (config, frozenset((v, value_key(x)) for v, x in forced.items()) if forced else None)
        kids = memo.get(key)
        if kids is None:
            kids = memo[key] = tuple(
                (c, labeler(config, c) if labeler else None)
                for c in successors(model, config, forced)
            )
        return kids

    children.model = model  # for domain lookups that share the memo's cache
    return children


def expand_choices(signature: Signature, choices) -> tuple[Configuration, ...]:
    variables = [var for var, _ in choices]
    seen = {}
    for combo in itertools.product(*(vals for _, vals in choices)):
        child = Configuration.make(signature, dict(zip(variables, combo)))
        seen.setdefault(child.sort_key, child)
    return tuple(seen[k] for k in sorted(seen))


class ComputationTree:
    """A depth-bounded computation tree with canonical node order.

    Nodes are model configurations or machine configurations. They get BFS
    ids; the children of each node come in canonical order, so equal
    expansions produce identical trees. Branches can end early when a
    configuration has no successors. Every tree is made by
    :func:`reach_layers` and is held as its per-step reachable sets:
    ``counts[s]`` maps each configuration at step s to the number of tree
    nodes holding it, and ``kids[s][c]`` gives the (child, label) pairs of
    ``c`` at step s in canonical order. Every tree node that holds ``c`` at
    step s has those children, because forced values depend only on (step,
    parent); the sets stop early when a step comes out empty. ``total`` is
    the number of nodes in the whole tree; the tree is its first
    ``node_count`` nodes in BFS order, so a node cap can cut it inside a
    level. Predicates are answered from the sets, and
    ``formats.dumps_tree`` writes the text from them, a level at a time; the
    per-node lists (``nodes``, ``parent``, ``depth_of``, ``children``,
    ``labels``) are built from them when one is first read.
    """

    def __init__(self, depth: int, root, node_cap: int = DEFAULT_NODE_CAP):
        self.depth = depth
        self.node_cap = node_cap
        self.counts: list[dict[Configuration, int]] = [{root: 1}]
        self.kids: list[dict[Configuration, tuple]] = []
        self.total = 1

    @property
    def node_count(self) -> int:
        return max(1, min(self.total, self.node_cap))

    def __getattr__(self, name):
        if name not in ("nodes", "parent", "depth_of", "children", "labels"):
            raise AttributeError(name)
        kids, n, nodes = self.kids, self.node_count, list(self.counts[0])
        parent, depth_of, children, labels = [None], [0], [], [None]
        while len(nodes) < n:  # nodes are appended in BFS order
            pid = len(children)
            row = kids[depth_of[pid]][nodes[pid]][: n - len(nodes)]
            children.append(list(range(len(nodes), len(nodes) + len(row))))
            nodes += [child for child, _ in row]
            labels += [label for _, label in row]
            parent += [pid] * len(row)
            depth_of += [depth_of[pid] + 1] * len(row)
        children += [[] for _ in range(n - len(children))]
        self.__dict__.update(
            nodes=nodes, parent=parent, depth_of=depth_of, children=children, labels=labels
        )
        return self.__dict__[name]

    def nodes_at(self, step: int) -> list[int]:
        return [i for i, d in enumerate(self.depth_of) if d == step]

    def branches(self) -> Iterator[list[int]]:
        """Root-to-leaf node id paths, in canonical order."""
        stack = [[0]]
        while stack:
            path = stack.pop()
            kids = self.children[path[-1]]
            if not kids:
                yield path
            else:
                for c in reversed(kids):
                    stack.append(path + [c])

    def label_path(self, node_id: int) -> tuple:
        out = []
        while self.parent[node_id] is not None:
            out.append(self.labels[node_id])
            node_id = self.parent[node_id]
        return tuple(reversed(out))

    def _wanted(self, timed: Sequence[TimedAssignment]):
        for var, step, _ in timed:
            if step > self.depth:
                raise StepBeyondDepth(f"{var.render()}@{step} exceeds depth {self.depth}")
        want: dict[int, list] = {}
        for var, step, value in timed:
            want.setdefault(step, []).append((var, value))

        def ok(config, step):
            return all(config.get(var) == value for var, value in want.get(step, ()))

        return ok, max(want, default=0)

    def _satisfying(self, ok, last: int) -> list[list[Configuration]]:
        """Per step up to ``last``, the configurations on a satisfying prefix."""
        root = next(iter(self.counts[0]))
        sets = [[root] if ok(root, 0) else []]
        for step in range(1, last + 1):
            if step >= len(self.counts):
                return sets + [[]]
            kids = self.kids[step - 1]
            seen = {}
            for config in sets[-1]:
                for child, _ in kids[config]:
                    if child not in seen and ok(child, step):
                        seen[child] = None
            sets.append(list(seen))
            if not seen:
                break
        return sets

    def holds(self, timed: Sequence[TimedAssignment], mode: str = "some") -> bool:
        """The verdict of :func:`holds_at` on this tree, read off its reachable sets."""
        if mode not in ("some", "all"):
            raise ValueError(f"mode must be 'some' or 'all', got {mode!r}")
        ok, last = self._wanted(timed)
        if mode == "some":
            return bool(self._satisfying(ok, last)[-1])
        for step in range(last + 1):
            if step >= len(self.counts):
                return False  # every branch died before a referenced step
            for config in self.counts[step]:
                if not ok(config, step) or (step < last and not self.kids[step][config]):
                    return False
        return True

    def first_witness(self, timed: Sequence[TimedAssignment]) -> tuple[int, ...] | None:
        """The first satisfying branch, as node ids, read off the reachable sets.

        This is ``holds_at(tree, timed, "some").witnesses[0]``, or None when
        no branch satisfies. The walk takes, at each step, the first child in
        canonical order that still leads to a satisfying prefix, and then the
        first child until the branch ends. A node's id is the number of
        nodes in earlier steps plus the number of nodes before it in its own
        step: the children of the nodes before its parent, and its elder
        siblings.
        """
        ok, last = self._wanted(timed)
        forward = self._satisfying(ok, last)
        if not forward[-1]:
            return None
        good = set(forward[-1])
        alive = [good]
        for step in range(last - 1, -1, -1):
            kids = self.kids[step]
            good = {c for c in forward[step] if any(k in good for k, _ in kids[c])}
            alive.append(good)
        alive.reverse()

        config = next(iter(self.counts[0]))
        path, before, offset = [0], {}, 1
        for step in range(len(self.kids)):
            children = [k for k, _ in self.kids[step][config]]
            if not children:
                break
            pick = 0
            if step < last:
                pick = next(i for i, c in enumerate(children) if c in alive[step + 1])
            following = {}
            for c, n in before.items():
                for k, _ in self.kids[step][c]:
                    following[k] = following.get(k, 0) + n
            for k in children[:pick]:
                following[k] = following.get(k, 0) + 1
            path.append(offset + sum(following.values()))
            offset += sum(self.counts[step + 1].values())
            before, config = following, children[pick]
        return tuple(path)

    def __eq__(self, other):
        return (
            isinstance(other, ComputationTree)
            and self.depth == other.depth
            and self.nodes == other.nodes
            and self.parent == other.parent
            and self.labels == other.labels
        )

    def __repr__(self):
        return f"<tree depth={self.depth} nodes={self.node_count}>"


ForcedFn = Callable[[int, Configuration], Optional[Mapping[VarId, Value]]]


def expand_tree(
    model: Model,
    root: Configuration,
    depth: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    labeler: Labeler | None = None,
    forced_fn: ForcedFn | None = None,
) -> ComputationTree:
    """The model's computation tree to exactly ``depth`` steps.

    ``forced_fn(step, parent)`` can force the values of variables in the
    children born at ``step`` (see ``successor_choices``); interventions are
    implemented that way. Each distinct (parent, forced values) pair is
    expanded once. Raises BudgetExceeded (carrying the partial tree) past
    ``node_cap`` nodes.
    """
    succ = memo_successors(model, labeler)
    return reach_layers(succ, root, depth, node_cap=node_cap, forced_fn=forced_fn)


TimedAssignment = tuple[VarId, int, Value]


@dataclass
class HoldsReport:
    holds: bool
    mode: str
    witnesses: list[tuple[int, ...]]  # node id paths


def holds_at(
    tree: ComputationTree,
    timed: Sequence[TimedAssignment],
    mode: str = "some",
) -> HoldsReport:
    """Check timed assignments over complete branches of the tree.

    ``some`` asks for at least one branch satisfying every (var, step, value)
    triple; ``all`` asks for every branch. A branch that dies before a
    referenced step does not satisfy. Witnesses are the satisfying branches
    for ``some`` and the violating ones for ``all``.
    """
    if mode not in ("some", "all"):
        raise ValueError(f"mode must be 'some' or 'all', got {mode!r}")
    for var, step, _ in timed:
        if step > tree.depth:
            raise StepBeyondDepth(f"{var.render()}@{step} exceeds depth {tree.depth}")
    hits, misses = [], []
    for path in tree.branches():
        ok = all(
            step < len(path) and tree.nodes[path[step]].get(var) == value
            for var, step, value in timed
        )
        (hits if ok else misses).append(tuple(path))
    if mode == "some":
        return HoldsReport(bool(hits), mode, hits)
    return HoldsReport(not misses, mode, misses)


def reach_layers(
    succ: SuccessorFn,
    root,
    depth: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    forced_fn: ForcedFn | None = None,
) -> ComputationTree:
    """The tree ``succ`` unfolds from ``root``, as its per-step reachable sets.

    This is the one level loop behind every tree and query.
    ``succ(config, forced)`` gives (child, label) pairs, deduplicated and in
    canonical order, and is called once per distinct configuration per
    step; ``forced_fn`` is as for ``expand_tree``. The cost grows with the
    distinct configurations per step, not with the tree. The cap counts the
    nodes of that tree: the step that takes it past ``node_cap`` is
    finished, then BudgetExceeded is raised with the tree so far as its
    partial result, cut to its first ``node_cap`` nodes.
    """
    tree = ComputationTree(depth, root, node_cap)
    total = 1
    for step in range(1, depth + 1):
        kids, following = {}, {}
        for config, n in tree.counts[-1].items():
            forced = forced_fn(step, config) if forced_fn else None
            children = kids[config] = succ(config, forced)
            total += n * len(children)
            for child, _ in children:
                following[child] = following.get(child, 0) + n
        tree.kids.append(kids)
        if not following:
            break
        tree.counts.append(following)
        tree.total = total
        if total > node_cap:
            raise BudgetExceeded(
                f"node budget {node_cap} exhausted at step {step}", partial=tree
            )
    return tree
