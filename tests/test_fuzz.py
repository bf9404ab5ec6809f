"""Fuzzers for the model file and command-line boundaries.

Random JSON, and valid model files with one field swapped for random JSON,
must either load or fail with a package error; through the CLI they must end
in a documented exit code, never a traceback. So must random command lines
built from the CLI's own parser over the shared fixture files. Random
``bisim`` lines over a machine and its own compiled model must succeed, so
the equivalence walk and the acceptance matrix run on random arguments.
"""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from causalcalc import compile_lba, compile_lba_monolithic, compile_machine, compile_ntm, compile_tm
from causalcalc.cli import _build_parser, main
from causalcalc.errors import CausalCalcError
from causalcalc.formats import dumps_canonical, machine_to_json, model_from_json, model_to_json
from conftest import (
    abc_lba,
    alternation_tm,
    constant_one_model,
    counter_model,
    guess_ntm,
    parity_lba,
    sweep_lba,
    two_var_model,
    walkback_lba,
)

FAMILY_DOC = {
    "variables": [
        {"name": "P", "range": [0, 1]},
        {
            "family": "F",
            "index_range": [0, 2],
            "range": [0, "a"],
            "default": 0,
            "overrides": {"1": [[0, "a"], 1]},
        },
    ],
    "domains": {"P": ["P", "F_1"]},
    "equations": {"P": {"table": [{"row": [0, 1], "out": [1]}]}},
}

BASE_DOCS = [
    model_to_json(counter_model()),
    model_to_json(two_var_model()),
    FAMILY_DOC,
    model_to_json(compile_lba_monolithic(parity_lba(), 2)),
]

ROOTS = ['{"X": 8}', '{"A": 0, "B": 1}', '{"P": 0, "F_1": 1}', "{}"]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    target = copy
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return copy


@st.composite
def model_docs(draw):
    """Random JSON, or a valid model file with one subtree replaced."""
    if draw(st.booleans()):
        return draw(json_values)
    doc = draw(st.sampled_from(BASE_DOCS))
    path = draw(st.sampled_from(list(_paths(doc))))
    return _replace(doc, path, draw(json_values))


@settings(max_examples=200, deadline=None)
@given(model_docs())
def test_model_files_load_or_raise_a_package_error(doc):
    try:
        model_from_json(doc)
    except CausalCalcError:
        pass


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None)
@given(model_docs(), st.sampled_from(ROOTS), st.integers(0, 3))
def test_cli_run_on_malformed_files_ends_in_an_exit_code(work_dir, doc, root, depth):
    path = work_dir / "model.json"
    path.write_text(dumps_canonical(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(path), "--depth", str(depth), "--root", root])
    assert code in (0, 1, 2, 3)


@pytest.mark.parametrize(
    "doc",
    [
        {"variables": [{"name": "A", "range": 5}], "equations": {}},
        {"variables": [{"name": "A", "range": "ab"}], "equations": {}},
        {"variables": [{"name": "A", "range": [0]}], "domains": {"A": [5]}, "equations": {}},
        {
            "variables": [{"name": "A", "range": [0]}],
            "domains": {"A": ["A"]},
            "equations": {"A": {"table": [{"row": 5, "out": [0]}]}},
        },
        {
            "variables": [{"name": "A", "range": [0]}],
            "domains": {"A": ["A"]},
            "equations": {"A": {"table": [{"row": [0], "out": 0}]}},
        },
        _replace(FAMILY_DOC, ("variables", 1, "overrides", "1"), 1),
        _replace(FAMILY_DOC, ("variables", 1, "range"), "0a"),
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=[
        "range_number",
        "range_string",
        "domain_number",
        "row_number",
        "out_number",
        "override_number",
        "family_range_string",
        "deep_nesting",
    ],
)
def test_malformed_files_are_format_errors(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main(["run", str(path), "--depth", "1", "--root", "{}"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# ------------------------------------------------------------ random argv

MACHINES = {
    "parity": parity_lba(),
    "abc": abc_lba(),
    "sweep": sweep_lba(),
    "walkback": walkback_lba(),
    "alternation": alternation_tm(),
    "guess": guess_ntm(),
}
MODELS = {
    "counter": model_to_json(counter_model()),
    "two_var": model_to_json(two_var_model()),
    "one": model_to_json(constant_one_model()),
    "parity_lba": model_to_json(compile_lba(parity_lba(), 2)),
    "parity_mono": model_to_json(compile_lba_monolithic(parity_lba(), 2)),
    "alternation_tm": model_to_json(compile_tm(alternation_tm())),
    "guess_ntm": model_to_json(compile_ntm(guess_ntm())),
}

# Values for the string options, shaped like real requests on the fixture
# files; random text is drawn next to them.
STRINGS = {
    "input": ["", "0", "1", "01", "11", "0101", "abc", "x"],
    "inputs": ["", ",0,1,11", "01,10", "abc,x"],
    "root": ['{"X": 8}', '{"A": 0, "B": 1}', '{"X": 1}', "{}", "[]", "{", '{"X": "8"}'],
    "do_atoms": ["X@1=5", "X@0=8", "A@1=1", "X@9=0", "S@1=acc", "X_1@1=1", "X@-1=0", "X@1="],
    "rewrite": ["X@1(X=1)=0", "X@3(X=1)=0,X@3(X=0)=0", "A@1(B=0)=1", "X@1(Y=1)=0", "X@1(X=1"],
    "candidate": ["X@0=8", "X@1=9", "A@0=0", "S@0=s", "X_1@0=1", "X@0"],
    "outcome": ["X@2=9", "X@1=0", "B@2=1", "S@3=acc", "X@99=1", "X@2"],
    "vars": ["X", "A,B", "X_0..X_2", "X_*", "X_2..X_0", "Q"],
    "steps": ["0", "1", "0..2", "2..0", "0,1", "-1", "x"],
}
TEXT = st.text(alphabet='XABS_@=(),.01#*-{}":', max_size=8)


def _subcommands():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(sub.choices.items())


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Positional file choices per argument name, plus an output directory."""
    base = tmp_path_factory.mktemp("argv")

    def write(name, doc):
        path = base / f"{name}.json"
        path.write_text(doc if isinstance(doc, str) else dumps_canonical(doc))
        return str(path)

    broken = [write("garbled", "{not json"), str(base / "missing.json")]
    machines = [write(n, machine_to_json(spec)) for n, spec in MACHINES.items()] + broken
    models = [write(f"{n}_model", doc) for n, doc in MODELS.items()] + broken
    out_dir = base / "out"
    out_dir.mkdir()
    files = {"machine": machines, "model": models, "file": machines + models}
    return files, out_dir


def _value(action, out_dir):
    if action.dest == "out":
        return st.sampled_from([str(out_dir / "result.json"), str(out_dir)])
    if action.type is int:
        numbers = st.integers(-2, 3).map(str) | st.sampled_from(["x", ""])
        if action.choices:
            return st.sampled_from([str(c) for c in action.choices]) | numbers
        return numbers
    if action.choices:
        return st.sampled_from(list(action.choices)) | TEXT
    return st.sampled_from(STRINGS[action.dest]) | TEXT


@st.composite
def argvs(draw, files, out_dir):
    """A subcommand with its positionals, its required options and a random
    subset of the others; ``-h/--help`` exits through argparse by design."""
    name, sub = draw(st.sampled_from(_subcommands()))
    argv = [name]
    for action in sub._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:
            argv.append(draw(st.sampled_from(files[action.dest])))
        elif action.required or draw(st.booleans()):
            argv.append(action.option_strings[0])
            if action.nargs != 0:
                argv.append(draw(_value(action, out_dir)))
    return argv


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cli_on_random_argv_ends_in_an_exit_code(cli_files, data):
    files, out_dir = cli_files
    argv = data.draw(argvs(files, out_dir), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv


# ------------------------------------------------------ matched bisim pairs

# Each fixture machine with the compile options of its model file. LBA models
# fix a tape length, and inputs are drawn no longer than it.
BISIM_PAIRS = [
    ("parity", {"tape_len": 2}),
    ("parity", {"tape_len": 3, "monolithic": True}),
    ("abc", {"tape_len": 3}),
    ("abc", {"tape_len": 3, "monolithic": True}),
    ("sweep", {"tape_len": 2}),
    ("walkback", {"tape_len": 3}),
    ("walkback", {"tape_len": 2, "monolithic": True}),
    ("alternation", {}),
    ("guess", {}),
]


@pytest.fixture(scope="module")
def bisim_files(tmp_path_factory):
    """(machine path, model path, input alphabet, tape length) per pair."""
    base = tmp_path_factory.mktemp("bisim")
    files = []
    for n, (name, options) in enumerate(BISIM_PAIRS):
        spec = MACHINES[name]
        machine, model = base / f"{n}_{name}.json", base / f"{n}_{name}_model.json"
        machine.write_text(dumps_canonical(machine_to_json(spec)))
        model.write_text(dumps_canonical(model_to_json(compile_machine(spec, **options))))
        files.append((str(machine), str(model), spec.input_alphabet, options.get("tape_len", 4)))
    return files


@st.composite
def bisim_argvs(draw, files):
    """``bisim --input`` with a depth, or ``--inputs`` with a budget, on a matched pair."""
    machine, model, alphabet, longest = draw(st.sampled_from(files))
    words = st.lists(st.sampled_from(alphabet), max_size=longest).map("".join)
    argv = ["bisim", machine, model]
    if draw(st.booleans()):
        argv += ["--input", draw(words), "--depth", str(draw(st.integers(0, 8)))]
    else:
        inputs = draw(st.lists(words, min_size=1, max_size=4))
        argv += ["--inputs", ",".join(inputs), "--budget", str(draw(st.integers(0, 30)))]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(0, 5)))]
    return argv


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bisim_on_a_machine_and_its_own_model_succeeds(bisim_files, data):
    argv = data.draw(bisim_argvs(bisim_files), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, (argv, err.getvalue())
    if "--input" in argv:
        assert json.loads(out.getvalue())["equivalent"], argv
        return
    *rows, last = out.getvalue().splitlines()
    assert last.startswith("all_agree\t")
    for row in rows:
        _, machine_verdict, calc_verdict, _ = row.split("\t")
        # window models can still miss a rejection (see ROADMAP), never an acceptance
        assert (machine_verdict == "ACCEPT") == (calc_verdict == "ACCEPT"), (argv, row)
