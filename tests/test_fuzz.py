"""Fuzzers for the model file boundary.

Random JSON, and valid model files with one field swapped for random JSON,
must either load or fail with a package error; through the CLI they must end
in a documented exit code, never a traceback.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from causalcalc import compile_lba_monolithic
from causalcalc.cli import main
from causalcalc.errors import CausalCalcError
from causalcalc.formats import dumps_canonical, model_from_json, model_to_json
from conftest import counter_model, parity_lba, two_var_model

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
