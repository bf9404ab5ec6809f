"""Command-line interface.

Subcommands: compile, run, accepts, bisim, intervene, cause, sweep. Results
are canonical JSON on stdout (or ``--out FILE``); sweep and multi-input bisim
print tab-delimited tables on stdout instead, with JSON behind ``--out``.

Exit codes: 0 success, 1 usage or file parse problems, 2 validation and
semantic defects, 3 node budget exhausted (tree commands still emit the
partial tree, marked truncated). The node cap, at least 1, can also be set
through the ``CAUSAL_CALC_NODE_CAP`` environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .core import DEFAULT_NODE_CAP, active_variables, expand_tree, validate_model
from .compilers import (
    CalculatorModel,
    calc_labeler,
    calc_accepts,
    compile_machine,
    initial_calc_config,
)
from .equivalence import check_acceptance_matrix, check_equivalence
from .errors import (
    BudgetExceeded,
    CausalCalcError,
    FormatError,
    InterventionSyntax,
    ValidationFailed,
)
from .formats import (
    cause_verdict_to_json,
    dumps_canonical,
    dumps_tree,
    equiv_report_to_json,
    machine_from_json,
    matrix_report_to_json,
    model_from_json,
    model_to_json,
    parse_atoms,
    parse_rewrites,
    parse_root,
    parse_steps,
    parse_timed,
    parse_variable_patterns,
    sweep_report_to_json,
)
from .interventions import (
    InterventionSpec,
    StructureInterventionSpec,
    apply_intervention,
    apply_structure_intervention,
    is_cause,
    sweep,
)
from .machines import run_machine

ENV_NODE_CAP = "CAUSAL_CALC_NODE_CAP"


class CliUsage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsage(message)


class _Bound(argparse.Action):
    """A --depth or --budget value: an integer of at least 0."""

    least = 0

    def __call__(self, parser, namespace, value, option_string=None):
        if value < self.least:
            raise argparse.ArgumentError(self, f"must be at least {self.least}, got {value}")
        setattr(namespace, self.dest, value)


class _Cap(_Bound):
    """A --node-cap value: an integer of at least 1."""

    least = 1


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process; parsing keeps no state in it."""
    p = _Parser(prog="causalcalc", description="causal calculators for machine runs")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, root=False):
        sp.add_argument("--out", help="write the JSON result to this file")
        sp.add_argument(
            "--node-cap", type=int, action=_Cap, help=f"node budget (default {DEFAULT_NODE_CAP})"
        )
        if root:
            sp.add_argument("--input", help="input string (compiled models)")
            sp.add_argument("--root", help="root configuration as a JSON object")

    c = sub.add_parser("compile", help="compile a machine file into a model file")
    c.add_argument("machine")
    c.add_argument("--tape-len", type=int, help="working cells (lba compiles)")
    c.add_argument("--monolithic", action="store_true", help="single whole-configuration variable")
    common(c)

    r = sub.add_parser("run", help="expand a computation tree")
    r.add_argument("model")
    r.add_argument("--depth", type=int, action=_Bound, required=True)
    common(r, root=True)

    a = sub.add_parser("accepts", help="acceptance verdict for an input")
    a.add_argument("file", help="machine file or compiled model file")
    a.add_argument("--input", required=True)
    a.add_argument("--budget", type=int, action=_Bound, required=True)
    a.add_argument("--tape-len", type=int, help="tape cells when running a raw lba machine")
    common(a)

    b = sub.add_parser("bisim", help="compare a machine with a compiled model")
    b.add_argument("machine")
    b.add_argument("model")
    b.add_argument("--input", help="single input: tree equivalence to --depth")
    b.add_argument("--inputs", help="comma-separated inputs: acceptance matrix to --budget")
    b.add_argument("--depth", type=int, action=_Bound)
    b.add_argument("--budget", type=int, action=_Bound)
    b.add_argument("--seed", type=int, default=0)
    common(b)

    i = sub.add_parser("intervene", help="expand a tree under an intervention")
    i.add_argument("model")
    i.add_argument("--depth", type=int, action=_Bound, required=True)
    i.add_argument("--do", dest="do_atoms", help="value atoms, e.g. 'X@1=5,Y@0=a'")
    i.add_argument("--rewrite", help="rewrite atoms, e.g. 'X@3(X=1)=0'")
    common(i, root=True)

    q = sub.add_parser("cause", help="but-for cause query")
    q.add_argument("model")
    q.add_argument("--candidate", required=True, help="value atoms")
    q.add_argument("--outcome", required=True, help="timed assignments")
    q.add_argument(
        "--split-actual",
        action="store_true",
        help="let candidate and outcome be actual on different branches",
    )
    common(q, root=True)

    s = sub.add_parser("sweep", help="fault-injection sweep against an outcome")
    s.add_argument("model")
    s.add_argument("--vars", required=True, help="names, globs, or A_lo..A_hi ranges")
    s.add_argument("--steps", required=True, help="e.g. '3' or '0..6'")
    s.add_argument("--outcome", required=True)
    s.add_argument("--mode", choices=("some", "all"), default="some")
    s.add_argument("--k", type=int, choices=(1, 2), default=1, help="faults per row")
    common(s, root=True)

    return p


def _node_cap(args) -> int:
    if getattr(args, "node_cap", None) is not None:
        return args.node_cap
    env = os.environ.get(ENV_NODE_CAP)
    if not env:
        return DEFAULT_NODE_CAP
    try:
        cap = int(env)
    except ValueError:
        raise FormatError(f"{ENV_NODE_CAP} must be an integer, got {env!r}") from None
    if cap < _Cap.least:
        raise CliUsage(f"{ENV_NODE_CAP} must be at least {_Cap.least}, got {cap}")
    return cap


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _emit(payload, out_path) -> None:
    _write(dumps_canonical(payload), out_path)


def _write(text, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_model(path):
    loaded = model_from_json(_load_json(path))
    if isinstance(loaded, CalculatorModel):
        return loaded, loaded.model
    defects = validate_model(loaded)
    if defects:
        raise ValidationFailed(f"model file {path} has {len(defects)} defect(s)", defects=defects)
    return None, loaded


def _make_root(calc, model, args):
    if getattr(args, "root", None):
        return parse_root(model, json.loads(args.root))
    if getattr(args, "input", None) is not None:
        if calc is None:
            raise FormatError("--input needs a compiled model; give --root instead")
        return initial_calc_config(calc, args.input)
    raise CliUsage("give --root, or --input for a compiled model")


def _check_tape_len(spec, tape_len) -> None:
    """``--tape-len`` sizes the tape of an lba machine file (``spec``) and nothing else."""
    if tape_len is None:
        return
    if spec is None or spec.kind != "lba":
        raise CliUsage("--tape-len applies only to lba machine files")
    if tape_len < 1:
        raise CliUsage("--tape-len must be at least 1")


def _cmd_compile(args) -> int:
    spec = machine_from_json(_load_json(args.machine))
    if spec.kind == "lba" and args.tape_len is None:
        raise CliUsage("--tape-len is required for lba machines")
    _check_tape_len(spec, args.tape_len)
    calc = compile_machine(spec, tape_len=args.tape_len, monolithic=args.monolithic)
    _emit(model_to_json(calc), args.out)
    return 0


def _write_tree(build, out_path) -> int:
    """Write the tree ``build()`` makes; past the node cap, its cut tree marked truncated."""
    try:
        tree = build()
    except BudgetExceeded as exc:
        _write(dumps_tree(exc.partial, truncated=True), out_path)
        return 3
    _write(dumps_tree(tree), out_path)
    return 0


def _cmd_run(args) -> int:
    calc, model = _load_model(args.model)
    root = _make_root(calc, model, args)
    labeler = calc_labeler(calc) if calc else None
    return _write_tree(
        lambda: expand_tree(model, root, args.depth, node_cap=_node_cap(args), labeler=labeler),
        args.out,
    )


def _cmd_accepts(args) -> int:
    data = _load_json(args.file)
    if isinstance(data, dict) and "transitions" in data:
        spec = machine_from_json(data)
        _check_tape_len(spec, args.tape_len)
        tree, verdict = run_machine(
            spec, args.input, args.budget, tape_len=args.tape_len, node_cap=_node_cap(args)
        )
    else:
        _check_tape_len(None, args.tape_len)
        loaded = model_from_json(data)
        if not isinstance(loaded, CalculatorModel):
            raise FormatError("acceptance needs a machine file or a compiled model")
        tree, verdict = calc_accepts(loaded, args.input, args.budget, node_cap=_node_cap(args))
    _emit(
        {"input": args.input, "verdict": verdict, "nodes_explored": tree.node_count},
        args.out,
    )
    return 0


def _cmd_bisim(args) -> int:
    spec = machine_from_json(_load_json(args.machine))
    loaded = model_from_json(_load_json(args.model))
    if not isinstance(loaded, CalculatorModel):
        raise FormatError("bisim needs a compiled model file")
    if (args.input is None) == (args.inputs is None):
        raise CliUsage("give exactly one of --input or --inputs")
    if args.inputs is not None:
        if args.budget is None:
            raise CliUsage("--inputs needs --budget")
        report = check_acceptance_matrix(
            spec, loaded, args.inputs.split(","), args.budget, node_cap=_node_cap(args)
        )
        for row in report.rows:
            mark = "agree" if row.agree else "DISAGREE"
            print(f"{row.input or '<empty>'}\t{row.machine_verdict}\t{row.calc_verdict}\t{mark}")
        print(f"all_agree\t{report.all_agree}")
        if args.out:
            _emit(matrix_report_to_json(report), args.out)
        return 0
    if args.depth is None:
        raise CliUsage("--input needs --depth")
    report = check_equivalence(
        spec, loaded, args.input, args.depth, seed=args.seed, node_cap=_node_cap(args)
    )
    _emit(equiv_report_to_json(report), args.out)
    return 0


def _cmd_intervene(args) -> int:
    calc, model = _load_model(args.model)
    root = _make_root(calc, model, args)
    if (args.do_atoms is None) == (args.rewrite is None):
        raise CliUsage("give exactly one of --do or --rewrite")
    labeler = calc_labeler(calc) if calc else None
    if args.do_atoms is not None:
        apply, spec = apply_intervention, InterventionSpec(parse_atoms(model, args.do_atoms))
    else:
        apply = apply_structure_intervention
        spec = StructureInterventionSpec(parse_rewrites(model, args.rewrite))
    return _write_tree(
        lambda: apply(model, root, spec, args.depth, node_cap=_node_cap(args), labeler=labeler),
        args.out,
    )


def _cmd_cause(args) -> int:
    calc, model = _load_model(args.model)
    root = _make_root(calc, model, args)
    candidate = parse_atoms(model, args.candidate)
    outcome = parse_atoms(model, args.outcome)
    verdict = is_cause(
        model,
        root,
        candidate,
        outcome,
        same_branch=not args.split_actual,
        node_cap=_node_cap(args),
    )
    _emit(cause_verdict_to_json(verdict), args.out)
    return 0


def _cmd_sweep(args) -> int:
    calc, model = _load_model(args.model)
    root = _make_root(calc, model, args)
    universe = active_variables(model, root)
    variables = parse_variable_patterns(model, universe, args.vars)
    report = sweep(
        model,
        root,
        variables=variables,
        steps=parse_steps(args.steps),
        outcome=parse_timed(model, args.outcome),
        mode=args.mode,
        k_faults=args.k,
        node_cap=_node_cap(args),
    )
    print(f"baseline\t{'holds' if report.baseline_holds else 'fails'}\tmode={report.mode}")
    for row in report.rows:
        atoms = "+".join(a.render() for a in row.atoms)
        held = "holds" if row.outcome_holds else "fails"
        print(f"{atoms}\t{held}\t{row.classification}")
    for name, cls in sorted(report.by_var().items()):
        print(f"var\t{name}\t{cls}")
    if report.truncated:
        print("truncated\ttrue")
    if args.out:
        _emit(sweep_report_to_json(report), args.out)
    return 3 if report.truncated else 0


_DISPATCH = {
    "compile": _cmd_compile,
    "run": _cmd_run,
    "accepts": _cmd_accepts,
    "bisim": _cmd_bisim,
    "intervene": _cmd_intervene,
    "cause": _cmd_cause,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except CliUsage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, InterventionSyntax) as exc:
        pos = getattr(exc, "position", None)
        where = f" (at offset {pos})" if pos is not None else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        for d in exc.defects:
            print(f"  {d.code}: {d.subject}: {d.detail}", file=sys.stderr)
        return 2
    except CausalCalcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
