import pytest

from causalcalc import (
    ACCEPT,
    NO_ACCEPT_WITHIN_BUDGET,
    LbaConfig,
    TapeConfig,
    Transition,
    VarId,
    calc_accepts,
    calc_labeler,
    compile_lba,
    compile_lba_monolithic,
    compile_machine,
    compile_ntm,
    compile_tm,
    decode_config,
    edge_label,
    encode_config,
    expand_tree,
    initial_machine_config,
    machine_step,
    machine_tree,
    run_machine,
    successors,
    validate_model,
)
from causalcalc import reference
from causalcalc.compilers import WholeConfigRange, delta_f_image
from causalcalc.errors import (
    InvalidMachineKind,
    RangeTooLarge,
    UndecodableConfig,
)
from conftest import walkback_lba

S = VarId("S")
V = VarId("V")


def X(i):
    return VarId("X", i)


def test_delta_with_frozen_finals(parity_spec):
    assert delta_f_image(parity_spec, "even", "1") == (("odd", "1", 1),)
    assert delta_f_image(parity_spec, "acc", "<") == (("acc", "<", 0),)
    assert delta_f_image(parity_spec, "odd", "<") == ()


def test_lba_compile_shapes(parity_spec):
    calc = compile_lba(parity_spec, 1)
    fam = calc.model.signature.family("X")
    assert (fam.lo, fam.hi) == (-2, 2)
    assert fam.default == "#"
    assert len(fam.overrides[0]) == 3 * 5 * 3  # states x tape symbols x moves
    assert calc.machine_hash == parity_spec.fingerprint()
    assert validate_model(calc.model) == []


def test_compiled_models_validate_clean(tm_spec, ntm_spec, parity_spec):
    for calc in (
        compile_tm(tm_spec),
        compile_ntm(ntm_spec),
        compile_lba(parity_spec, 2),
        compile_lba_monolithic(parity_spec, 2),
    ):
        assert validate_model(calc.model) == []


def test_initial_configs_per_kind(tm_spec, ntm_spec, parity_spec):
    lba = compile_lba(parity_spec, 2).initial("1")
    assert lba.get(X(0)) == ("even", ">", 0)
    assert [lba.get(X(i)) for i in (1, 2, 3)] == ["1", "#", "<"]
    assert lba.get(X(-3)) == "#"

    mono = compile_lba_monolithic(parity_spec, 2).initial("1")
    assert mono.get(V) == ("even", 0, ">", "1", "#", "<")

    tm = compile_tm(tm_spec).initial("01")
    assert tm.get(S) == "s"
    assert (tm.get(X(0)), tm.get(X(1)), tm.get(X(2))) == ("0", "1", "#")

    ntm = compile_ntm(ntm_spec).initial("01")
    assert ntm.get(X(0)) == ("g", "0", 0)
    assert ntm.get(X(1)) == "1"


def test_window_step_values_are_the_frozen_ones(parity_spec):
    calc = compile_lba(parity_spec, 2)
    root = calc.initial("1")

    (step1,) = successors(calc.model, root)
    assert step1.get(X(0)) == ("even", ">", 1)
    assert [step1.get(X(i)) for i in (1, 2, 3)] == ["1", "#", "<"]

    (step2,) = successors(calc.model, step1)
    assert step2.get(X(0)) == ("odd", "1", 1)
    assert step2.get(X(-1)) == ">"
    assert [step2.get(X(i)) for i in (1, 2)] == ["#", "<"]
    # the wall keeps its stale copy once the frame has moved past it
    assert step2.get(X(3)) == "<"


def test_decode_needs_the_move_labels(parity_spec):
    calc = compile_lba(parity_spec, 2)
    root = calc.initial("1")
    (step1,) = successors(calc.model, root)
    (step2,) = successors(calc.model, step1)
    assert decode_config(calc, root) == initial_machine_config(parity_spec, "1", 2)
    assert decode_config(calc, step2, offset=1, last_move=1) == LbaConfig(
        "odd", 2, (">", "1", "#", "<")
    )
    with pytest.raises(UndecodableConfig):
        decode_config(calc, step2, offset=1, last_move=0)  # the move must match the triple
    bad = calc.model.configuration({X(0): ("even", ">", -1)})
    with pytest.raises(UndecodableConfig):
        decode_config(calc, bad, last_move=-1)  # head would sit left of the tape


def test_walkback_decode_after_a_left_move():
    spec = walkback_lba()
    calc = compile_lba(spec, 2)
    tree = expand_tree(calc.model, calc.initial("aa"), 3, labeler=calc_labeler(calc))
    leaf = next(n for n in range(tree.node_count) if tree.depth_of[n] == 3)
    labels = tree.label_path(leaf)
    assert labels == (1, 1, -1)
    decoded = decode_config(calc, tree.nodes[leaf], sum(labels[:-1]), labels[-1])
    assert decoded == LbaConfig("x", 1, (">", "a", "b", "<"))
    mtree = machine_tree(spec, "aa", 3, tape_len=2)
    depth3 = [mtree.nodes[n] for n in range(mtree.node_count) if mtree.depth_of[n] == 3]
    assert decoded in depth3


def test_tm_encoding_round_trips(tm_spec):
    calc = compile_tm(tm_spec)
    for m in (
        initial_machine_config(tm_spec, "0101"),
        TapeConfig("ra", ((-2, "0"), (0, "1"))),
        TapeConfig("acc", ()),
    ):
        assert decode_config(calc, encode_config(calc, m)) == m


def test_ntm_decode_shifts_by_the_last_label(ntm_spec):
    calc = compile_ntm(ntm_spec)
    tree = expand_tree(calc.model, calc.initial("01"), 2, labeler=calc_labeler(calc))
    mtree = machine_tree(ntm_spec, "01", 2)
    for nid in range(tree.node_count):
        labels = tree.label_path(nid)
        decoded = decode_config(calc, tree.nodes[nid], last_move=labels[-1] if labels else None)
        level = [
            mtree.nodes[m] for m in range(mtree.node_count)
            if mtree.depth_of[m] == tree.depth_of[nid]
        ]
        assert decoded in level


def test_each_kind_agrees_with_the_direct_construction(tm_spec, ntm_spec, parity_spec):
    calcs = [
        compile_tm(tm_spec),
        compile_ntm(ntm_spec),
        compile_lba(parity_spec, 2),
        compile_lba_monolithic(parity_spec, 2),
    ]
    inputs = ["01", "01", "1", "1"]
    for calc, word in zip(calcs, inputs):
        tree = expand_tree(calc.model, calc.initial(word), 3)
        for nid in range(tree.node_count):
            cfg = tree.nodes[nid]
            assert frozenset(successors(calc.model, cfg)) == reference.successor_set(
                calc, cfg
            ), (calc.kind, nid)


def test_accepting_configurations_self_loop(parity_spec):
    calc = compile_lba(parity_spec, 2)
    tree, verdict = calc_accepts(calc, "11", 20)
    assert verdict == ACCEPT
    final = next(n for n in tree.nodes if calc.accepting(n))
    assert successors(calc.model, final) == (final,)


def _final_configs(spec):
    """A configuration of each final state over each tape symbol, that symbol scanned."""
    for q in sorted(spec.finals):
        for g in spec.tape_alphabet:
            if spec.kind != "lba":
                yield g, TapeConfig.from_cells(q, {-1: "1", 0: g, 1: "0"}, spec.blank)
            elif g in (spec.left_marker, spec.right_marker):
                yield g, LbaConfig(q, 0 if g == spec.left_marker else 3, (">", "0", "1", "<"))
            else:
                yield g, LbaConfig(q, 1, (">", g, "1", "<"))


def _encode(calc, m):
    """``m`` as a node of ``calc`` whose frame sits on the head, no move recorded."""
    if calc.kind == "tm":
        return encode_config(calc, m)
    if calc.kind == "lba_mono":
        return calc.model.configuration({V: (m.state, m.head, *m.tape)})
    if calc.kind == "lba":
        cells = {i - m.head: g for i, g in enumerate(m.tape)}
    else:
        cells = dict(m.cells)
    assign = {X(0): (m.state, cells.pop(0, calc.machine.blank), 0)}
    assign.update((X(i), g) for i, g in cells.items())
    return calc.model.configuration(assign)


@pytest.mark.parametrize("name", ["parity_spec", "tm_spec", "ntm_spec"])
def test_final_states_freeze_on_every_route(request, name):
    spec = request.getfixturevalue(name)
    if spec.kind == "lba":
        calcs = [compile_lba(spec, 2), compile_lba_monolithic(spec, 2)]
    else:
        calcs = [compile_machine(spec)]
    seen = 0
    for g, m in _final_configs(spec):
        assert spec.delta_f(m.state, g) == (Transition(m.state, g, m.state, g, 0),)
        ((nxt, t, d),) = machine_step(spec, m)
        assert (nxt, t.move, d) == (m, 0, 0)
        for calc in calcs:
            node = _encode(calc, m)
            head = m.head if spec.kind == "lba" else 0
            assert decode_config(calc, node, offset=head, last_move=0) == m
            assert successors(calc.model, node) == (node,), (calc.kind, g)
            assert edge_label(calc, node, node) == 0
        seen += 1
    assert seen == len(spec.finals) * len(spec.tape_alphabet)


def test_calc_side_verdicts_match_the_machine(parity_spec, ntm_spec):
    lba = compile_lba(parity_spec, 2)
    mono = compile_lba_monolithic(parity_spec, 2)
    ntm = compile_ntm(ntm_spec)
    for word in ("", "1", "11", "10"):
        _, expected = run_machine(parity_spec, word, 30, tape_len=2)
        assert calc_accepts(lba, word, 30)[1] == expected, word
        assert calc_accepts(mono, word, 30)[1] == expected, word
    for word in ("01", "10", "001"):
        _, expected = run_machine(ntm_spec, word, 10)
        assert calc_accepts(ntm, word, 10)[1] == expected, word
    assert calc_accepts(lba, "11", 2)[1] == NO_ACCEPT_WITHIN_BUDGET


def test_edge_labels_per_kind(tm_spec, parity_spec):
    tm = compile_tm(tm_spec)
    root = tm.initial("0101")
    (child,) = successors(tm.model, root)
    assert edge_label(tm, root, child) == 1
    acc = encode_config(tm, TapeConfig("acc", ()))
    assert edge_label(tm, acc, acc) == 0

    mono = compile_lba_monolithic(parity_spec, 2)
    mroot = mono.initial("1")
    (mchild,) = successors(mono.model, mroot)
    assert edge_label(mono, mroot, mchild) == 1


def test_whole_config_range_membership(parity_spec):
    rng = WholeConfigRange(parity_spec, 2)
    assert rng.size() == 3 * 4 * 5 * 5
    assert ("even", 0, ">", "1", "#", "<") in rng
    assert ("even", 3, ">", "1", "#", "<") in rng
    assert ("even", 4, ">", "1", "#", "<") not in rng  # head past the right marker
    assert ("even", True, ">", "1", "#", "<") not in rng
    assert ("nope", 0, ">", "1", "#", "<") not in rng
    assert ("even", 0, ">", "z", "#", "<") not in rng
    assert ("even", 0, "#", "1", "#", "<") not in rng
    assert ("even", 0, ">", "1", "<") not in rng
    with pytest.raises(RangeTooLarge):
        list(rng.members())


def test_monolithic_compile_honors_the_size_cap(parity_spec):
    with pytest.raises(RangeTooLarge):
        compile_lba_monolithic(parity_spec, 10)  # 351,562,500 values
    with pytest.raises(RangeTooLarge):
        compile_lba_monolithic(parity_spec, 100_000)  # too long to even size
    calc = compile_lba_monolithic(parity_spec, 2)
    assert calc.kind == "lba_mono"
    assert compile_lba_monolithic(parity_spec, 9).kind == "lba_mono"  # 64,453,125 values


def test_dispatch_checks_kinds(tm_spec, ntm_spec, parity_spec):
    with pytest.raises(InvalidMachineKind):
        compile_tm(parity_spec)
    with pytest.raises(InvalidMachineKind):
        compile_lba(tm_spec, 2)
    with pytest.raises(InvalidMachineKind):
        compile_ntm(tm_spec)
    with pytest.raises(InvalidMachineKind):
        compile_machine(tm_spec, monolithic=True)
    with pytest.raises(ValueError):
        compile_machine(parity_spec)
    with pytest.raises(ValueError):
        compile_lba(parity_spec, 0)
    assert compile_machine(parity_spec, tape_len=2).kind == "lba"
    assert compile_machine(parity_spec, tape_len=2, monolithic=True).kind == "lba_mono"
    assert compile_machine(tm_spec).kind == "tm"
    assert compile_machine(ntm_spec).kind == "ntm"
