"""Fuzzers for the machine file, the intervention grammar and the tree writer.

Every valid machine spec survives a dump and load through canonical JSON
unchanged; any other JSON either loads or fails with ``FormatError`` or
``InvalidMachineKind``. A compiled model whose ``meta.kind`` does not name its
machine's kind is a ``FormatError``. Every ``InterventionSyntax`` the grammar
raises points at an offset inside the text it was given, so the CLI's
``(at offset N)`` is always a real place; any other failure is a package
error, never a traceback. ``dumps_tree`` writes the bytes the generic
encoder writes for a tree's JSON form built as dicts, on random table models
and compiled fixtures, whole or cut at a node cap.
"""

import itertools
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from causalcalc import (
    InterventionSpec,
    Model,
    PlainVar,
    Signature,
    StructureInterventionSpec,
    TableEquation,
    VarId,
    active_variables,
    apply_intervention,
    apply_structure_intervention,
    calc_labeler,
    compile_lba,
    compile_lba_monolithic,
    compile_machine,
    compile_ntm,
    compile_tm,
    edge_label,
    expand_tree,
    render_value,
)
from causalcalc.cli import main
from causalcalc.errors import (
    BudgetExceeded,
    CausalCalcError,
    FormatError,
    InterventionSyntax,
    InvalidMachineKind,
)
from causalcalc.formats import (
    dumps_canonical,
    dumps_tree,
    machine_from_json,
    machine_to_json,
    model_from_json,
    model_to_json,
    parse_atoms,
    parse_rewrites,
    parse_steps,
    parse_variable_patterns,
    tree_to_json,
    value_to_json,
)
from causalcalc.machines import KINDS, MOVES, MachineSpec, Transition, validate_machine
from conftest import (
    abc_lba,
    alternation_tm,
    constant_one_model,
    counter_model,
    guess_ntm,
    parity_lba,
    walk_lba,
)
from test_fuzz import _paths, _replace, json_values

# plain tokens: the characters the grammar and the table output reserve are out
TOKENS = st.text(
    alphabet=st.characters(
        blacklist_characters=" \t\n,()=@;.\"'", blacklist_categories=("Cs", "Cc", "Zs")
    ),
    min_size=1,
    max_size=3,
)


@st.composite
def machine_specs(draw):
    """A spec that passes ``validate_machine``, of any kind."""
    kind = draw(st.sampled_from(KINDS))
    n_specials = 3 if kind == "lba" else 1
    symbols = draw(st.lists(TOKENS, min_size=n_specials, max_size=n_specials + 3, unique=True))
    blank, *markers = symbols[:n_specials]
    inputs = symbols[n_specials:]
    left, right = markers if markers else (">", "<")
    states = draw(st.lists(TOKENS, min_size=2, max_size=4, unique=True))
    finals = draw(st.sets(st.sampled_from(states), max_size=len(states) - 1))
    live = [q for q in states if q not in finals]
    inner = inputs + [blank]
    tape = inner + markers
    walls = {left: (0, 1), right: (-1, 0)} if markers else {}

    def step(read):
        if read in walls:  # an lba marker is written back and never crossed
            return read, draw(st.sampled_from(walls[read]))
        return draw(st.sampled_from(inner)), draw(st.sampled_from(MOVES[kind]))

    if kind == "tm":
        keys = [(q, g) for q in live for g in tape]
    else:
        keys = draw(st.lists(st.tuples(st.sampled_from(live), st.sampled_from(tape)), max_size=6))
    transitions = []
    for q, g in keys:
        t = Transition(q, g, draw(st.sampled_from(states)), *step(g))
        if t not in transitions:
            transitions.append(t)
    spec = MachineSpec(
        kind=kind,
        states=tuple(states),
        initial=draw(st.sampled_from(states)),
        finals=frozenset(finals),
        input_alphabet=tuple(inputs),
        transitions=tuple(transitions),
        blank=blank,
        left_marker=left,
        right_marker=right,
    )
    assert validate_machine(spec) == []
    return spec


@settings(max_examples=200, deadline=None)
@given(machine_specs())
def test_valid_machine_specs_round_trip_exactly(spec):
    text = dumps_canonical(machine_to_json(spec))
    assert machine_from_json(json.loads(text)) == spec


BASE_MACHINES = [machine_to_json(m()) for m in (parity_lba, abc_lba, alternation_tm, guess_ntm)]


@st.composite
def machine_docs(draw):
    """Random JSON, or a fixture machine file with one subtree replaced."""
    if draw(st.booleans()):
        return draw(json_values)
    doc = draw(st.sampled_from(BASE_MACHINES))
    path = draw(st.sampled_from(list(_paths(doc))))
    return _replace(doc, path, draw(json_values))


@settings(max_examples=300, deadline=None)
@given(machine_docs())
def test_other_machine_json_loads_or_raises_a_format_error(doc):
    try:
        spec = machine_from_json(doc)
    except (FormatError, InvalidMachineKind):
        return
    assert machine_from_json(machine_to_json(spec)) == spec


@pytest.mark.parametrize("kind", ["lba", "lba_mono", "tm", "ntm", "tm_mono", "x"])
@pytest.mark.parametrize("machine", [parity_lba, alternation_tm, guess_ntm])
def test_compiled_meta_kind_must_match_its_machine(machine, kind):
    calc = compile_machine(machine(), tape_len=2)
    doc = model_to_json(calc)
    doc["meta"]["kind"] = kind
    if kind == calc.kind:
        assert model_from_json(doc).kind == kind
    elif kind == "lba_mono" and calc.kind == "lba":
        with pytest.raises(FormatError, match="does not match recompiling"):
            model_from_json(doc)
    else:
        with pytest.raises(FormatError, match=f"meta.kind '{kind}' does not match"):
            model_from_json(doc)


# ------------------------------------------------- intervention grammar

COUNTER = counter_model()
LBA = compile_lba(parity_lba(), 2)
UNIVERSE = active_variables(LBA.model, LBA.initial("1"))

# grammar-shaped text next to arbitrary text; kept short so a step range such
# as "0..99999999" cannot ask for millions of steps
GRAMMAR = st.text(alphabet="XS_@=(),.*?[]-0129 ²", max_size=9) | st.text(max_size=9)
PARSERS = {
    "atoms": lambda text: parse_atoms(COUNTER, text),
    "rewrites": lambda text: parse_rewrites(COUNTER, text),
    "lba atoms": lambda text: parse_atoms(LBA.model, text),
    "lba rewrites": lambda text: parse_rewrites(LBA.model, text),
    "steps": parse_steps,
    "patterns": lambda text: parse_variable_patterns(LBA.model, UNIVERSE, text),
}


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(PARSERS)), GRAMMAR)
@example("atoms", "X@²=1")  # a digit that int() refuses
@example("rewrites", "X@1(X=(1)=0")
@example("patterns", "X_0..X_2,")
def test_syntax_errors_point_inside_the_text(parser, text):
    try:
        PARSERS[parser](text)
    except InterventionSyntax as exc:
        assert exc.position is not None and 0 <= exc.position <= len(text), (text, exc)
    except CausalCalcError:
        pass


# ------------------------------------------------------------ tree writer


def ref(tree, truncated=False):
    """The reference for the tree writer: the tree's JSON form built as dicts."""
    nodes = [
        {
            "id": i,
            "depth": tree.depth_of[i],
            "assign": {v.render(): value_to_json(x) for v, x in tree.nodes[i].support},
        }
        for i in range(tree.node_count)
    ]
    edges = [
        {
            "from": tree.parent[i],
            "to": i,
            "label": None if tree.labels[i] is None else value_to_json(tree.labels[i]),
        }
        for i in range(tree.node_count)
        if tree.parent[i] is not None
    ]
    return {"depth": tree.depth, "truncated": truncated, "nodes": nodes, "edges": edges}


# strings with escapes (quotes, backslashes, control characters, non-ASCII)
# next to negative ints and nested tuples
TREE_VALUES = st.recursive(
    st.integers(-40, 40) | st.text(max_size=4) | st.sampled_from(['"', "\\", "\n\t\x00", "é✓"]),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=5,
)

COMPILED = [
    compile_lba(parity_lba(), 2),
    compile_lba_monolithic(parity_lba(), 2),
    compile_tm(alternation_tm()),
    compile_ntm(guess_ntm()),
]


@st.composite
def table_trees(draw):
    """A random table model, a root, and a labeler over drawn labels or none."""
    names = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=3, unique=True))
    ranges = {
        n: draw(st.lists(TREE_VALUES, min_size=2, max_size=3, unique_by=render_value))
        for n in names
    }
    own = {n: (VarId(n),) for n in names}

    def outputs(n):  # an empty output set leaves a dead branch
        return frozenset(x for x in ranges[n] if draw(st.booleans()))

    equations = {n: TableEquation({(x,): outputs(n) for x in ranges[n]}) for n in names}
    model = Model(
        Signature([PlainVar(n, frozenset(r)) for n, r in ranges.items()], domains=own), equations
    )
    root = model.configuration({VarId(n): draw(st.sampled_from(r)) for n, r in ranges.items()})
    labels = draw(st.lists(st.none() | TREE_VALUES, min_size=1, max_size=3))
    first = VarId(names[0])

    def labeler(parent, child):
        return labels[len(render_value(child.get(first))) % len(labels)]

    return model, root, draw(st.sampled_from([labeler, None]))


@st.composite
def compiled_trees(draw):
    """A compiled fixture, a root, and the moves as labels or inside tuple labels."""
    calc = draw(st.sampled_from(COMPILED))
    root = calc.initial(draw(st.text(alphabet="01", max_size=2)))
    tag = draw(TREE_VALUES)

    def labeler(parent, child):
        return (edge_label(calc, parent, child), tag)

    return calc.model, root, draw(st.sampled_from([labeler, calc_labeler(calc)]))


@settings(max_examples=200, deadline=None)
@given(table_trees() | compiled_trees(), st.sampled_from([1, 3, 8, 30, 200]))
def test_tree_writer_matches_the_generic_encoder(case, node_cap):
    model, root, labeler = case
    for depth in range(6):  # the root alone, then deeper and wider trees
        try:
            tree = expand_tree(model, root, depth, node_cap=node_cap, labeler=labeler)
            truncated = False
        except BudgetExceeded as exc:
            tree, truncated = exc.partial, True
        want = ref(tree, truncated)
        assert dumps_tree(tree, truncated) == json.dumps(want, sort_keys=True, indent=2) + "\n"
        assert tree_to_json(tree, truncated) == want


def _x(model, value):
    return model.configuration({VarId("X"): value})


ONE, COUNTER_MODEL, WALK = constant_one_model(), counter_model(), compile_lba(walk_lba(), 4)
SHAPED_TREES = {
    # deep and thin: the 50-step constant_one chain, plain and under the all-rows rewrite
    "chain": lambda cap: expand_tree(ONE, _x(ONE, 0), 50, node_cap=cap),
    "chain_rewrite": lambda cap: apply_structure_intervention(
        ONE, _x(ONE, 1), StructureInterventionSpec(parse_rewrites(ONE, "X@0(X=0)=0,X@0(X=1)=0")),
        50, node_cap=cap,
    ),
    # wide: the counter to depths 10-12, with and without pinned values
    "counter_10": lambda cap: expand_tree(COUNTER_MODEL, _x(COUNTER_MODEL, 0), 10, node_cap=cap),
    "counter_12": lambda cap: expand_tree(COUNTER_MODEL, _x(COUNTER_MODEL, 3), 12, node_cap=cap),
    "counter_do": lambda cap: apply_intervention(
        COUNTER_MODEL, _x(COUNTER_MODEL, 2), InterventionSpec(parse_atoms(COUNTER_MODEL, "X@2=1,X@5=8")),
        11, node_cap=cap,
    ),
    # labelled compiled runs, as `run --input` builds them
    **{
        f"compiled_{i}": (
            lambda cap, calc=calc, word=word: expand_tree(
                calc.model, calc.initial(word), 8, node_cap=cap, labeler=calc_labeler(calc)
            )
        )
        for i, (calc, word) in enumerate(zip(COMPILED, ["10", "11", "0101", "01"]))
    },
    # a wide labelled run, its moves also inside tuple labels with escaped text
    "compiled_walk": lambda cap: expand_tree(
        WALK.model, WALK.initial("ab"), 10, node_cap=cap, labeler=calc_labeler(WALK)
    ),
    "compiled_walk_tuples": lambda cap: expand_tree(
        WALK.model, WALK.initial("ab"), 9, node_cap=cap,
        labeler=lambda parent, child: (edge_label(WALK, parent, child), "é\n\"", ()),
    ),
}


@pytest.mark.parametrize("name", sorted(SHAPED_TREES))
def test_tree_writer_matches_the_generic_encoder_on_deep_wide_and_cut_trees(name):
    """Whole trees, and trees cut by node caps that fall inside a level, at its
    ends and past the tree; a cut tree is the whole tree's first nodes."""
    build = SHAPED_TREES[name]
    whole = build(10**7)
    ends = list(itertools.accumulate(len(whole.nodes_at(s)) for s in range(whole.depth_of[-1] + 1)))
    inside = {(a + b) // 2 for a, b in zip(ends, ends[1:]) if b - a > 1}
    caps = sorted({1, 2, 3, *ends, *(e + 1 for e in ends), *inside, whole.node_count - 1} - {0})
    assert inside or whole.node_count == len(ends), "no cap falls inside a level of a wide tree"
    for cap in caps:
        try:
            tree, truncated = build(cap), False
        except BudgetExceeded as exc:
            tree, truncated = exc.partial, True
        assert truncated == (cap < whole.node_count)
        size = min(cap, whole.node_count)
        assert tree.node_count == size
        assert tree.nodes == whole.nodes[:size]
        assert tree.parent == whole.parent[:size]
        assert tree.labels == whole.labels[:size]
        assert tree.depth_of == whole.depth_of[:size]
        want = ref(tree, truncated)
        assert dumps_tree(tree, truncated) == json.dumps(want, sort_keys=True, indent=2) + "\n"
        assert tree_to_json(tree, truncated) == want


@pytest.mark.parametrize(
    "model, argv, code",
    [
        ("counter", ["run", "--root", '{"X": 8}', "--depth", "4"], 0),
        ("counter", ["run", "--root", '{"X": 8}', "--depth", "6", "--node-cap", "20"], 3),
        ("counter", ["intervene", "--root", '{"X": 8}', "--depth", "3", "--do", "X@1=5"], 0),
        ("parity", ["run", "--input", "11", "--depth", "5"], 0),
        ("guess", ["run", "--input", "01", "--depth", "6", "--node-cap", "4"], 3),
    ],
    ids=["run", "truncated", "intervene", "labelled", "labelled-truncated"],
)
def test_out_file_gets_the_bytes_stdout_gets(capsys, tmp_path, model, argv, code):
    calcs = {"counter": COUNTER, "parity": COMPILED[0], "guess": COMPILED[3]}
    path = tmp_path / "model.json"
    path.write_text(dumps_canonical(model_to_json(calcs[model])))
    argv = [argv[0], str(path), *argv[1:]]
    assert main(argv) == code
    stdout = capsys.readouterr().out
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()
    assert stdout == dumps_canonical(json.loads(stdout))
