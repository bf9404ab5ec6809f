"""File formats and the textual intervention grammar.

JSON carries values as numbers, strings, and arrays (for tuples); booleans
and floats are rejected so every value round-trips exactly. Dumps are
canonical: sorted keys, two-space indent, trailing newline. Compiled models
are stored as their machine plus compilation parameters; loading recompiles
and then checks that the stored body matches, so a file cannot drift from
what its meta block claims.

Intervention atoms are written ``VAR@STEP=VALUE``; equation rewrites add the
domain row: ``VAR@STEP(VAR=VALUE,...)=VALUE``. Tuple values use parentheses,
``(q0,a,1)``. Atoms are separated by commas at the top bracket level.
"""

from __future__ import annotations

import itertools
import json
import operator
import re
from json.encoder import encode_basestring_ascii
from typing import Iterable

from .core import (
    Configuration,
    Family,
    LazyRange,
    Model,
    PlainVar,
    Signature,
    TableEquation,
    Value,
    VarId,
    render_value,
    value_key,
)
from .compilers import CalculatorModel, compile_machine
from .errors import (
    FormatError,
    InterventionSyntax,
    InvalidMachineKind,
    OutOfRangeValue,
    UnknownVariable,
)
from .interventions import Atom, RewriteAtom
from .machines import KINDS, MOVES, MachineSpec, Transition


def dumps_canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------- values

def value_to_json(value: Value):
    if isinstance(value, bool):
        raise FormatError("boolean values are not part of the format")
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, tuple):
        return [value_to_json(v) for v in value]
    raise FormatError(f"unsupported value type {type(value).__name__}")


def value_from_json(payload) -> Value:
    if isinstance(payload, bool):
        raise FormatError("boolean values are not part of the format")
    if isinstance(payload, float):
        raise FormatError("values must be integers, strings, or arrays")
    if isinstance(payload, (int, str)):
        return payload
    if isinstance(payload, list):
        return tuple(value_from_json(v) for v in payload)
    raise FormatError(f"cannot read a value from {type(payload).__name__}")


def _sorted_values(values) -> list:
    return [value_to_json(v) for v in sorted(values, key=value_key)]


def _require_keys(data: dict, required: set, optional: set, what: str):
    if not isinstance(data, dict):
        raise FormatError(f"{what} must be an object")
    missing = required - set(data)
    unknown = set(data) - required - optional
    if missing:
        raise FormatError(f"{what} is missing keys {sorted(missing)}")
    if unknown:
        raise FormatError(f"{what} has unknown keys {sorted(unknown)}")


def _str(data, key, what) -> str:
    v = data[key]
    if not isinstance(v, str):
        raise FormatError(f"{what}.{key} must be a string")
    return v


def _str_list(data, key, what) -> list[str]:
    v = data[key]
    if not isinstance(v, list) or not all(isinstance(x, str) for x in v):
        raise FormatError(f"{what}.{key} must be an array of strings")
    return v


def _values(data, key, what) -> list:
    v = data[key]
    if not isinstance(v, list):
        raise FormatError(f"{what}.{key} must be an array of values")
    return [value_from_json(x) for x in v]


# ---------------------------------------------------------------- machines

def machine_to_json(spec: MachineSpec) -> dict:
    out = {
        "kind": spec.kind,
        "states": list(spec.states),
        "initial": spec.initial,
        "finals": sorted(spec.finals),
        "input_alphabet": list(spec.input_alphabet),
        "blank": spec.blank,
        "transitions": [
            {"from": t.src, "read": t.read, "to": t.dst, "write": t.write, "move": t.move}
            for t in spec.transitions
        ],
    }
    if spec.kind == "lba":
        out["left_marker"] = spec.left_marker
        out["right_marker"] = spec.right_marker
    return out


def machine_from_json(data) -> MachineSpec:
    required = {"kind", "states", "initial", "finals", "input_alphabet", "transitions"}
    optional = {"blank", "left_marker", "right_marker"}
    _require_keys(data, required, optional, "machine")
    kind = _str(data, "kind", "machine")
    if kind not in KINDS:
        raise InvalidMachineKind(f"machine kind must be one of {KINDS}, got {kind!r}")
    if kind != "lba" and ("left_marker" in data or "right_marker" in data):
        raise FormatError(f"markers are an lba concept, not {kind}")
    transitions = []
    if not isinstance(data["transitions"], list):
        raise FormatError("machine.transitions must be an array")
    for i, entry in enumerate(data["transitions"]):
        _require_keys(entry, {"from", "read", "to", "write", "move"}, set(), f"transition {i}")
        move = entry["move"]
        if isinstance(move, bool) or not isinstance(move, int) or move not in MOVES[kind]:
            raise FormatError(f"transition {i}: move must be one of {MOVES[kind]}")
        transitions.append(
            Transition(
                _str(entry, "from", f"transition {i}"),
                _str(entry, "read", f"transition {i}"),
                _str(entry, "to", f"transition {i}"),
                _str(entry, "write", f"transition {i}"),
                move,
            )
        )
    return MachineSpec(
        kind=kind,
        states=tuple(_str_list(data, "states", "machine")),
        initial=_str(data, "initial", "machine"),
        finals=frozenset(_str_list(data, "finals", "machine")),
        input_alphabet=tuple(_str_list(data, "input_alphabet", "machine")),
        transitions=tuple(transitions),
        blank=_str(data, "blank", "machine") if "blank" in data else "#",
        left_marker=_str(data, "left_marker", "machine") if "left_marker" in data else ">",
        right_marker=_str(data, "right_marker", "machine") if "right_marker" in data else "<",
    )


# ---------------------------------------------------------------- models

def _variables_to_json(sig: Signature) -> list:
    out = []
    for p in sig.plain:
        if isinstance(p.values, LazyRange):
            out.append({"name": p.name, "range": {"size": p.values.size()}})
        else:
            out.append({"name": p.name, "range": _sorted_values(p.values)})
    for f in sig.families:
        out.append(
            {
                "family": f.name,
                "index_range": "unbounded" if not f.bounded else [f.lo, f.hi],
                "range": _sorted_values(f.values),
                "default": value_to_json(f.default),
                "overrides": {str(i): _sorted_values(r) for i, r in sorted(f.overrides.items())},
            }
        )
    return out


def model_to_json(model) -> dict:
    """Serialize a Model or CalculatorModel."""
    calc = model if isinstance(model, CalculatorModel) else None
    m = calc.model if calc else model
    equations = {}
    for name, eq in m.equations.items():
        if isinstance(eq, TableEquation):
            rows = sorted(
                ({"row": [value_to_json(v) for v in row], "out": _sorted_values(outs)}
                 for row, outs in eq.rows.items()),
                key=lambda r: json.dumps(r["row"]),
            )
            equations[name] = {"table": rows}
        elif getattr(eq, "builtin", ""):
            equations[name] = {"builtin": eq.builtin}
        else:
            raise FormatError(f"equation for {name} has no file form")
    out = {
        "variables": _variables_to_json(m.signature),
        "domains": {k: [v.render() for v in d] for k, d in sorted(m.signature.domains.items())},
        "equations": equations,
    }
    if calc:
        out["meta"] = {
            "kind": calc.kind,
            "machine": machine_to_json(calc.machine),
            "machine_hash": calc.machine_hash,
            "tape_len": calc.tape_len,
        }
    return out


def _recompile(meta) -> CalculatorModel:
    _require_keys(meta, {"kind", "machine", "machine_hash", "tape_len"}, set(), "meta")
    spec = machine_from_json(meta["machine"])
    kind = _str(meta, "kind", "meta")
    monolithic = kind == "lba_mono"
    if ("lba" if monolithic else kind) != spec.kind:
        raise FormatError(f"meta.kind {kind!r} does not match the {spec.kind} machine")
    tape_len = meta["tape_len"]
    if spec.kind == "lba" and (
        isinstance(tape_len, bool) or not isinstance(tape_len, int) or tape_len < 1
    ):
        raise FormatError("meta.tape_len must be a positive integer for lba models")
    calc = compile_machine(spec, tape_len=tape_len, monolithic=monolithic)
    if meta["machine_hash"] != calc.machine_hash:
        raise FormatError("meta.machine_hash does not match the machine")
    return calc


def model_from_json(data):
    """Parse a model file; compiled files come back as CalculatorModel."""
    _require_keys(data, {"variables", "equations"}, {"domains", "meta"}, "model")
    if "meta" in data:
        calc = _recompile(data["meta"])
        if model_to_json(calc) != data:
            raise FormatError("model body does not match recompiling its meta machine")
        return calc

    if not isinstance(data["variables"], list):
        raise FormatError("model.variables must be an array")
    if not isinstance(data["equations"], dict):
        raise FormatError("model.equations must be an object")
    if not isinstance(data.get("domains", {}), dict):
        raise FormatError("model.domains must be an object")

    plain, families = [], []
    for i, entry in enumerate(data["variables"]):
        if not isinstance(entry, dict):
            raise FormatError(f"variable {i} must be an object")
        if "name" in entry:
            _require_keys(entry, {"name", "range"}, set(), f"variable {i}")
            if isinstance(entry["range"], dict):
                raise FormatError(f"variable {i}: lazy ranges exist only in compiled models")
            name = _str(entry, "name", f"variable {i}")
            plain.append(PlainVar(name, frozenset(_values(entry, "range", f"variable {i}"))))
        elif "family" in entry:
            _require_keys(
                entry,
                {"family", "index_range", "range", "default"},
                {"overrides"},
                f"variable {i}",
            )
            ir = entry["index_range"]
            if ir == "unbounded":
                lo = hi = None
            elif (
                isinstance(ir, list)
                and len(ir) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in ir)
            ):
                lo, hi = ir
            else:
                raise FormatError(f"variable {i}: index_range must be [lo, hi] or \"unbounded\"")
            if not isinstance(entry.get("overrides", {}), dict):
                raise FormatError(f"variable {i}: overrides must be an object")
            overrides = {}
            for key in entry.get("overrides", {}):
                try:
                    idx = int(key)
                except ValueError:
                    raise FormatError(f"variable {i}: override index {key!r}") from None
                overrides[idx] = frozenset(_values(entry["overrides"], key, f"variable {i}.overrides"))
            families.append(
                Family(
                    _str(entry, "family", f"variable {i}"),
                    lo,
                    hi,
                    frozenset(_values(entry, "range", f"variable {i}")),
                    value_from_json(entry["default"]),
                    overrides,
                )
            )
        else:
            raise FormatError(f"variable {i} needs a \"name\" or \"family\" key")

    try:
        bare = Signature(plain, families)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    domains = {}
    for name in data.get("domains", {}):
        texts = _str_list(data["domains"], name, "domains")
        try:
            domains[name] = tuple(bare.resolve(t) for t in texts)
        except UnknownVariable as exc:
            raise FormatError(f"domains.{name}: unknown variable {exc}") from None

    equations = {}
    for name, body in data["equations"].items():
        if not isinstance(body, dict) or set(body) not in ({"table"}, {"builtin"}):
            raise FormatError(f"equation {name} needs exactly a \"table\" or \"builtin\" key")
        if "builtin" in body:
            raise FormatError(f"equation {name}: builtins exist only in compiled models")
        if not isinstance(body["table"], list):
            raise FormatError(f"equation {name}: table must be an array")
        rows = {}
        for j, r in enumerate(body["table"]):
            what = f"equation {name} row {j}"
            _require_keys(r, {"row", "out"}, set(), what)
            rows[tuple(_values(r, "row", what))] = frozenset(_values(r, "out", what))
        equations[name] = TableEquation(rows)

    return Model(Signature(plain, families, domains), equations)


# ---------------------------------------------------------------- trees

def _record_value(payload, pad: str = "\n      ") -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)``, each newline made ``pad``."""
    if isinstance(payload, str):
        return encode_basestring_ascii(payload)
    if isinstance(payload, int):
        return int.__repr__(payload)
    inner = pad + "  "
    if isinstance(payload, dict):
        items = [f"{encode_basestring_ascii(k)}: {_record_value(v, inner)}" for k, v in sorted(payload.items())]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}" if items else "{}"
    items = [_record_value(v, inner) for v in payload]
    return f"[{inner}{(',' + inner).join(items)}{pad}]" if items else "[]"


_NODE, _EDGE, _TAIL = '    {\n      "assign": ', '    {\n      "from": ', "\n    }"  # record heads, record tail


def dumps_tree(tree, truncated: bool = False) -> str:
    """The canonical text of a tree, ``dumps_canonical`` of its JSON form.

    The record shape is fixed, so it is written from ``counts`` and ``kids``,
    a level at a time, without the per-node lists. Per level, each distinct
    configuration's record and each distinct row of children's edge records
    are encoded once up to the ids, so a node costs a concatenation or two.
    """
    counts, kids, n = tree.counts, tree.kids, tree.node_count
    ids = list(map(str, range(n)))
    assigns, rows, heads, edges = {}, {}, [], []  # records up to their node ids
    level, start, step = list(counts[0]), 0, 0
    while level:
        end = start + len(level)
        row_of = kids[step] if step < len(kids) and end < n else {}
        depth = f',\n      "depth": {step},\n      "id": '
        slots, below = {}, []
        for parent, config in zip(ids[start:end], level):
            slot = slots.get(config)
            if slot is None:
                assign = assigns.get(config)
                if assign is None:
                    assign = assigns[config] = _record_value(
                        {v.render(): value_to_json(x) for v, x in config.support}
                    )
                row = row_of.get(config, ())
                made = rows.get(id(row))  # rows live in the tree, so their ids stay theirs
                if made is None:
                    texts = (_record_value(value_to_json(x)) if x is not None else "null" for _, x in row)
                    made = rows[id(row)] = (
                        [child for child, _ in row], [f',\n      "label": {t},\n      "to": ' for t in texts]
                    )
                slot = slots[config] = (assign + depth, *made)
            head, children, middles = slot
            heads.append(head)
            for middle in middles:
                edges.append(parent + middle)
            below += children
        level, start, step = below[: n - end], end, step + 1
    nodes = f"{_TAIL},\n{_NODE}".join(map(operator.add, heads, ids))
    edges = f"{_TAIL},\n{_EDGE}".join(map(operator.add, edges, ids[1:]))
    opened, closed = (f"[\n{_EDGE}", f"{_TAIL}\n  ]") if edges else ("[]", "")  # a root alone
    return "".join((
        f'{{\n  "depth": {json.dumps(tree.depth)},\n  "edges": ', opened, edges, closed,
        f',\n  "nodes": [\n{_NODE}', nodes, f'{_TAIL}\n  ],\n  "truncated": {json.dumps(truncated)}\n}}\n',
    ))


def tree_to_json(tree, truncated: bool = False) -> dict:
    """The tree's JSON form, read back from ``dumps_tree``."""
    return json.loads(dumps_tree(tree, truncated))


# ---------------------------------------------------------------- reports

def equiv_report_to_json(report) -> dict:
    ce = None
    if report.counterexample is not None:
        ce = {
            "kind": report.counterexample.kind,
            "path": report.counterexample.path_text(),
            "detail": report.counterexample.detail,
        }
    return {
        "equivalent": report.equivalent,
        "kind": report.kind,
        "input": report.input,
        "depth": report.depth,
        "machine_nodes": report.machine_nodes,
        "calc_nodes": report.calc_nodes,
        "rechecked": report.rechecked,
        "counterexample": ce,
    }


def matrix_report_to_json(report) -> dict:
    return {
        "all_agree": report.all_agree,
        "rows": [
            {
                "input": r.input,
                "machine_verdict": r.machine_verdict,
                "calc_verdict": r.calc_verdict,
                "agree": r.agree,
            }
            for r in report.rows
        ],
    }


def cause_verdict_to_json(verdict) -> dict:
    return {
        "is_cause": verdict.is_cause,
        "failing_condition": verdict.failing_condition,
        "witness": verdict.witness,
    }


def sweep_report_to_json(report) -> dict:
    return {
        "baseline_holds": report.baseline_holds,
        "mode": report.mode,
        "truncated": report.truncated,
        "rows": [
            {
                "atoms": [a.render() for a in row.atoms],
                "outcome_holds": row.outcome_holds,
                "classification": row.classification,
            }
            for row in report.rows
        ],
        "by_var": report.by_var(),
    }


# ------------------------------------------------- intervention grammar

def split_top(text: str, sep: str) -> list[tuple[str, int]]:
    """Split at ``sep`` outside parentheses; yields (part, offset) pairs."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InterventionSyntax("unbalanced ')'", position=i)
        elif ch == sep and depth == 0:
            parts.append((text[start:i], start))
            start = i + 1
    if depth != 0:
        raise InterventionSyntax("unbalanced '('", position=len(text))
    parts.append((text[start:], start))
    return parts


_INT_RE = re.compile(r"-?\d+\Z")


def parse_value_text(text: str, position: int = 0) -> Value:
    text = text.strip()
    if not text:
        raise InterventionSyntax("empty value", position=position)
    if text.startswith("("):
        if not text.endswith(")"):
            raise InterventionSyntax("unbalanced '(' in value", position=position)
        inner = text[1:-1]
        if not inner.strip():
            return ()
        return tuple(
            parse_value_text(part, position + 1 + off)
            for part, off in split_top(inner, ",")
        )
    if _INT_RE.match(text):
        return int(text)
    return text


def resolve_value(signature: Signature, var: VarId, text: str, position: int = 0) -> Value:
    """Parse a value token and match it against the variable's range."""
    value = parse_value_text(text, position)
    rng = signature.range_of(var)
    if value in rng:
        return value
    if isinstance(rng, frozenset):
        by_render = {render_value(v): v for v in rng}
        hit = by_render.get(text.strip())
        if hit is not None:
            return hit
    raise OutOfRangeValue(f"{var.render()} = {text.strip()}")


def _parse_one_atom(model: Model, text: str, offset: int):
    sig = model.signature
    at = text.find("@")
    if at <= 0:
        raise InterventionSyntax("expected VAR@STEP", position=offset)
    var = sig.resolve(text[:at].strip())
    i = at + 1
    while i < len(text) and text[i].isspace():
        i += 1
    j = i
    while j < len(text) and text[j].isdecimal():
        j += 1
    if j == i:
        raise InterventionSyntax("step must be a non-negative integer", position=offset + i)
    step = int(text[i:j])
    while j < len(text) and text[j].isspace():
        j += 1
    if j < len(text) and text[j] == "(":
        # split_top hands over balanced parts, so the row's ')' is where the depth is back to 0
        depths = itertools.accumulate((ch == "(") - (ch == ")") for ch in text[j:])
        close = j + next(k for k, depth in enumerate(depths) if depth == 0)
        row = _parse_row(model, text[j + 1 : close], offset + j + 1)
        rest = text[close + 1 :].strip()
        if not rest.startswith("="):
            raise InterventionSyntax("expected '=' after row", position=offset + close + 1)
        value = resolve_value(sig, var, rest[1:], offset + close + 2)
        return RewriteAtom(var, step, row, value)
    if j >= len(text) or text[j] != "=":
        raise InterventionSyntax("expected '=' after step", position=offset + j)
    value = resolve_value(sig, var, text[j + 1 :], offset + j + 1)
    return Atom(var, step, value)


def _parse_row(model: Model, text: str, offset: int) -> tuple:
    entries = []
    for part, off in split_top(text, ","):
        eq = part.find("=")
        if eq <= 0:
            raise InterventionSyntax("row entries are VAR=VALUE", position=offset + off)
        var = model.signature.resolve(part[:eq].strip())
        entries.append((var, resolve_value(model.signature, var, part[eq + 1 :], offset + off + eq + 1)))
    entries.sort(key=lambda e: e[0].key)
    return tuple(entries)


def _parse_list(model: Model, text: str, kind: type, refusal: str) -> list:
    out = []
    for part, off in split_top(text, ","):
        if not part.strip():
            raise InterventionSyntax("empty atom", position=off)
        atom = _parse_one_atom(model, part, off)
        if not isinstance(atom, kind):
            raise InterventionSyntax(refusal, position=off)
        out.append(atom)
    return out


def parse_atoms(model: Model, text: str) -> list[Atom]:
    """Value atoms only: ``X@1=5,Y@0=(a,b)``."""
    return _parse_list(model, text, Atom, "rewrite atoms are not allowed here")


def parse_rewrites(model: Model, text: str) -> list[RewriteAtom]:
    """Rewrite atoms only: ``X@3(X=1)=0``."""
    return _parse_list(model, text, RewriteAtom, "expected a rewrite atom with a (row)")


def parse_timed(model: Model, text: str) -> list[Atom]:
    """Timed assignments for outcomes: value atoms, each equal to its (var, step, value)."""
    return parse_atoms(model, text)


def parse_root(model: Model, payload) -> Configuration:
    if not isinstance(payload, dict):
        raise FormatError("a root must be an object of variable: value pairs")
    assignment = {}
    for name, v in payload.items():
        assignment[model.signature.resolve(name)] = value_from_json(v)
    return model.configuration(assignment)


# ------------------------------------------------------ sweep selectors

_GLOB_CHARS = set("*?[")


def parse_variable_patterns(model: Model, universe: Iterable[VarId], text: str) -> list[VarId]:
    """Resolve sweep --vars text: globs, ``A_lo..A_hi`` ranges, plain names.

    Globs match against the given universe (typically the variables active at
    the root); explicit names and ranges may name any declared variable.
    """
    import fnmatch

    universe = list(universe)
    by_render = {v.render(): v for v in universe}
    sig = model.signature
    out: dict = {}
    for part, off in split_top(text, ","):
        pat = part.strip()
        if not pat:
            raise InterventionSyntax("empty variable pattern", position=off)
        if ".." in pat:
            lo_txt, hi_txt = pat.split("..", 1)
            lo = sig.resolve(lo_txt.strip())
            hi = sig.resolve(hi_txt.strip())
            if lo.name != hi.name or lo.index is None or hi.index is None:
                raise InterventionSyntax(
                    "a range needs two members of one family", position=off
                )
            for i in range(lo.index, hi.index + 1):
                var = VarId(lo.name, i)
                if not sig.is_declared(var):
                    raise UnknownVariable(var.render())
                out[var.key] = var
        elif _GLOB_CHARS & set(pat):
            hits = [v for r, v in by_render.items() if fnmatch.fnmatchcase(r, pat)]
            if not hits:
                raise UnknownVariable(f"pattern {pat!r} matches no active variable")
            for var in hits:
                out[var.key] = var
        else:
            var = sig.resolve(pat)
            if not sig.is_declared(var):
                raise UnknownVariable(var.render())
            out[var.key] = var
    return [out[k] for k in sorted(out)]


class Steps:
    """Sorted disjoint step ranges; iterates over their steps, equals their list."""

    def __init__(self, runs: Iterable[range]):
        self.runs = []
        for run in sorted(runs, key=lambda r: r.start):
            if self.runs and run.start <= self.runs[-1].stop:  # overlapping or adjacent
                self.runs[-1] = range(self.runs[-1].start, max(self.runs[-1].stop, run.stop))
            else:
                self.runs.append(run)

    def __iter__(self):
        return itertools.chain.from_iterable(self.runs)

    def __eq__(self, other):
        return isinstance(other, (list, Steps)) and list(self) == list(other)


def parse_steps(text: str) -> Steps:
    """Step selections: ``3``, ``0..6``, or comma combinations."""
    out = []
    for part, off in split_top(text, ","):
        token = part.strip()
        if ".." in token:
            lo_txt, hi_txt = token.split("..", 1)
            try:
                lo, hi = int(lo_txt), int(hi_txt)
            except ValueError:
                raise InterventionSyntax("step ranges are LO..HI", position=off) from None
            if lo < 0 or hi < lo:
                raise InterventionSyntax("bad step range", position=off)
            out.append(range(lo, hi + 1))
        else:
            try:
                step = int(token)
            except ValueError:
                raise InterventionSyntax("steps are non-negative integers", position=off) from None
            if step < 0:
                raise InterventionSyntax("steps are non-negative integers", position=off)
            out.append(range(step, step + 1))
    return Steps(out)
