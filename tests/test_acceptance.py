"""Acceptance scorecard: nine end-to-end checks, one printed line each.

Each test prints CRITERION n: PASS or FAIL through the capture barrier, so
any full-suite log carries the scorecard. Every comparison is exact; the
random pieces run from frozen seeds.
"""

import dataclasses
import itertools
import json
import random
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from causalcalc import (
    ACCEPT,
    REJECT_EXHAUSTED,
    Atom,
    InterventionSpec,
    LbaConfig,
    Model,
    OverrideEquation,
    PlainVar,
    RewriteAtom,
    Signature,
    StructureInterventionSpec,
    TableEquation,
    TapeConfig,
    VarId,
    apply_intervention,
    apply_structure_intervention,
    calc_accepts,
    check_acceptance_matrix,
    check_equivalence,
    compile_lba,
    compile_lba_monolithic,
    compile_ntm,
    compile_tm,
    decode_config,
    encode_config,
    expand_tree,
    holds_at,
    is_cause,
    machine_step,
    machine_tree,
    run_machine,
    successors,
)
from causalcalc import reference
from causalcalc.cli import main
from causalcalc.compilers import calc_labeler
from causalcalc.formats import (
    dumps_canonical,
    machine_from_json,
    machine_to_json,
    model_from_json,
    model_to_json,
    value_from_json,
    value_to_json,
)
from conftest import abc_lba, alternation_tm, constant_one_model, guess_ntm, parity_lba
import oracle_cause

TM = alternation_tm()
TM_CALC = compile_tm(TM)
PARITY = parity_lba()
ABC = abc_lba()
GUESS = guess_ntm()


@contextmanager
def criterion(capsys, number):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"CRITERION {number}: FAIL")
        raise
    with capsys.disabled():
        print(f"CRITERION {number}: PASS")


def words(alphabet, max_len, min_len=0):
    return [
        "".join(p)
        for n in range(min_len, max_len + 1)
        for p in itertools.product(alphabet, repeat=n)
    ]


# ---------------------------------------------------------------- 1


def test_criterion_1_deterministic_machine_agreement(capsys):
    with criterion(capsys, 1):
        inputs = words("01", 6, min_len=1)
        assert len(inputs) == 126
        accepted = 0
        for word in inputs:
            _, machine_verdict = run_machine(TM, word, 100)
            _, calc_verdict = calc_accepts(TM_CALC, word, 100)
            assert machine_verdict == calc_verdict, word
            accepted += machine_verdict == ACCEPT
            # the lockstep walk decodes the calculator configuration at every
            # step and matches it against the machine's, which is the
            # per-step agreement being claimed
            report = check_equivalence(TM, TM_CALC, word, 20)
            assert report.equivalent, (word, report.counterexample)
        assert accepted == 12  # two strictly alternating strings per length


# ---------------------------------------------------------------- 2


def test_criterion_2_lba_equivalence_and_acceptance(capsys):
    with criterion(capsys, 2):
        boundary = ["aabbcc", "aaabbbccc", "aabbc", "abbcc", "aabcc", "aaabbbcc", "aabbbccc"]
        jobs = [
            (PARITY, 3, words("01", 3), 30, 8),
            (ABC, 9, words("abcABC", 3) + boundary, 200, 11),
        ]
        for spec, tape_len, inputs, budget, expect_accepts in jobs:
            calc = compile_lba(spec, tape_len)
            for word in inputs:
                report = check_equivalence(spec, calc, word, 20)
                assert report.equivalent, (spec.kind, word, report.counterexample)
            matrix = check_acceptance_matrix(spec, calc, inputs, budget)
            assert matrix.all_agree
            assert sum(r.machine_verdict == ACCEPT for r in matrix.rows) == expect_accepts


# ---------------------------------------------------------------- 3


def test_criterion_3_nondeterministic_equivalence(capsys):
    with criterion(capsys, 3):
        calc = compile_ntm(GUESS)
        inputs = words("01", 4)
        for word in inputs:
            report = check_equivalence(GUESS, calc, word, 8)
            assert report.equivalent, (word, report.counterexample)
        matrix = check_acceptance_matrix(GUESS, calc, inputs, 8)
        assert matrix.all_agree
        # the guessing machine accepts exactly the strings containing "01":
        # of length n, all but the 1*0* strings, so 1 + 4 + 11 of length 2..4
        assert sum(r.machine_verdict == ACCEPT for r in matrix.rows) == 16


# ---------------------------------------------------------------- 4


def _isomorphic(spec, mono, word, depth):
    mt = machine_tree(spec, word, depth, tape_len=mono.tape_len)
    ct = expand_tree(mono.model, mono.initial(word), depth, labeler=calc_labeler(mono))

    def walk(mnode, cnode):
        if decode_config(mono, ct.nodes[cnode]) != mt.nodes[mnode]:
            return False
        mkids = {(mt.labels[k][1], mt.nodes[k]): k for k in mt.children[mnode]}
        ckids = {
            (ct.labels[k], decode_config(mono, ct.nodes[k])): k
            for k in ct.children[cnode]
        }
        return set(mkids) == set(ckids) and all(
            walk(mkids[key], ckids[key]) for key in mkids
        )

    return walk(0, 0)


def test_criterion_4_monolithic_isomorphism(capsys):
    with criterion(capsys, 4):
        for spec, tape_len, word in [(PARITY, 2, "11"), (ABC, 3, "abc")]:
            mono = compile_lba_monolithic(spec, tape_len)
            assert _isomorphic(spec, mono, word, 10)
            root = mono.initial(word)
            tree = expand_tree(mono.model, root, 10)
            assert reference.matches_tree(reference.expand(mono, root, 10), tree)
            assert check_equivalence(spec, mono, word, 10).equivalent


# ---------------------------------------------------------------- 5


def _corrupt(calc, name, key, outputs):
    equations = dict(calc.model.equations)
    equations[name] = OverrideEquation(calc.model, name, {key: outputs})
    return dataclasses.replace(calc, model=Model(calc.model.signature, equations))


def _head_pool(spec):
    return [
        (q, g, d)
        for q in sorted(spec.states)
        for g in sorted(spec.tape_alphabet)
        for d in (-1, 0, 1)
    ]


def _mutations(calc, word, rng, count=20):
    """(equation, row key, forced outputs): half from rows a depth-5 tree
    actually exercises, the rest drawn blind from the row space."""
    spec = calc.machine
    model = calc.model
    tree = expand_tree(model, calc.initial(word), 5)

    def forced(pool, old):
        return frozenset([rng.choice([p for p in pool if p not in old])])

    muts = []
    if calc.kind in ("lba", "ntm"):
        eq = model.equations["X"]
        dom = eq.domain_of(0)
        pool = _head_pool(spec)
        symbols = sorted(spec.tape_alphabet)
        reached = sorted({tuple(cfg.get(v) for v in dom) for cfg in tree.nodes})
        rng.shuffle(reached)
        for row in reached[: count // 2]:
            muts.append(("X", (0, row), forced(pool, eq.outputs(0, dict(zip(dom, row))))))
        while len(muts) < count:
            row = (rng.choice(symbols), rng.choice(pool), rng.choice(symbols))
            muts.append(("X", (0, row), forced(pool, eq.outputs(0, dict(zip(dom, row))))))
    elif calc.kind == "tm":
        states = sorted(spec.states)
        symbols = sorted(spec.tape_alphabet)
        state_eq, cell_eq = model.equations["S"], model.equations["X"]
        reached = set()
        for cfg in tree.nodes:
            srow = tuple(cfg.get(v) for v in state_eq.domain_of(None))
            reached.add(("S", (None, srow)))
            for i in (-1, 0, 1):
                dom = cell_eq.domain_of(i)
                reached.add(("X", (i, tuple(cfg.get(v) for v in dom))))
        reached = sorted(reached)
        rng.shuffle(reached)
        for name, key in reached[: count // 2]:
            eq = model.equations[name]
            old = eq.outputs(key[0], dict(zip(eq.domain_of(key[0]), key[1])))
            muts.append((name, key, forced(states if name == "S" else symbols, old)))
        while len(muts) < count:
            i = rng.choice([-1, 0, 1, 2])
            dom = cell_eq.domain_of(i)
            row = tuple(rng.choice(states if v.name == "S" else symbols) for v in dom)
            old = cell_eq.outputs(i, dict(zip(dom, row)))
            muts.append(("X", (i, row), forced(symbols, old)))
    else:  # lba_mono
        eq = model.equations["V"]
        states = sorted(spec.states)
        symbols = sorted(spec.tape_alphabet)

        def state_swap(whole, old):
            picks = [(q, *whole[1:]) for q in states if (q, *whole[1:]) != whole]
            return frozenset([rng.choice([p for p in picks if p not in old])])

        reached = sorted({(cfg.get(VarId("V")),) for cfg in tree.nodes})
        rng.shuffle(reached)
        for row in reached[: count // 2]:
            muts.append(("V", (None, row), state_swap(row[0], eq.outputs(None, {VarId("V"): row[0]}))))
        n = calc.tape_len
        while len(muts) < count:
            tape = (">", *(rng.choice(symbols) for _ in range(n)), "<")
            whole = (rng.choice(states), rng.randint(0, n + 1), *tape)
            muts.append(("V", (None, (whole,)), state_swap(whole, eq.outputs(None, {VarId("V"): whole}))))
    return muts


def test_criterion_5_mutation_sensitivity(capsys):
    with criterion(capsys, 5):
        rng = random.Random(7)
        jobs = [
            (PARITY, compile_lba(PARITY, 2), "11"),
            (ABC, compile_lba(ABC, 3), "abc"),
            (TM, TM_CALC, "0101"),
            (GUESS, compile_ntm(GUESS), "01"),
            (PARITY, compile_lba_monolithic(PARITY, 2), "11"),
        ]
        for spec, calc, word in jobs:
            root = calc.initial(word)
            pristine = reference.expand(calc, root, 6)
            changed = 0
            for name, key, outputs in _mutations(calc, word, rng):
                mutant = _corrupt(calc, name, key, outputs)
                tree = expand_tree(mutant.model, root, 6)
                behavior_changed = not reference.matches_tree(pristine, tree)
                report = check_equivalence(spec, mutant, word, 6)
                # a counterexample exactly when the reference sees a change
                assert report.equivalent == (not behavior_changed), (calc.kind, key)
                changed += behavior_changed
            assert changed >= 4, calc.kind  # the sweep was not vacuous


# ---------------------------------------------------------------- 6


def _random_task(rng):
    names = ["A", "B", "C"][: rng.randint(1, 3)]
    variables = {n: sorted(rng.sample(range(4), rng.randint(1, 3))) for n in names}
    domains = {n: rng.sample(names, rng.randint(1, len(names))) for n in names}
    tables = {}
    for n in names:
        table = {}
        for row in itertools.product(*(variables[d] for d in domains[n])):
            if rng.random() < 0.15 and len(variables[n]) > 1:
                table[row] = set(rng.sample(variables[n], 2))
            else:
                table[row] = {rng.choice(variables[n])}
        tables[n] = table
    return {"variables": variables, "domains": domains, "tables": tables}


def _as_model(task):
    sig = Signature(
        plain=[PlainVar(n, frozenset(vs)) for n, vs in task["variables"].items()],
        domains={n: tuple(VarId(d) for d in ds) for n, ds in task["domains"].items()},
    )
    return Model(sig, {n: TableEquation(task["tables"][n]) for n in task["variables"]})


def test_criterion_6_cause_oracle_agreement(capsys):
    with criterion(capsys, 6):
        rng = random.Random(20260816)
        causes = 0
        for _ in range(200):
            task = _random_task(rng)
            model = _as_model(task)
            names = sorted(task["variables"])
            root = {n: rng.choice(task["variables"][n]) for n in names}
            horizon = rng.randint(1, 4 if len(names) <= 2 else 3)
            branch = rng.choice(oracle_cause.branches(task, root, horizon))

            def pick(max_step):
                step = rng.randint(0, max_step)
                name = rng.choice(names)
                if rng.random() < 0.6 and step < len(branch):
                    return (name, step, branch[step][name])
                return (name, step, rng.choice(task["variables"][name]))

            candidate = [pick(horizon - 1)]
            if rng.random() < 0.4:
                extra = pick(horizon - 1)
                if (extra[0], extra[1]) != (candidate[0][0], candidate[0][1]):
                    candidate.append(extra)
            outcome = [pick(horizon)]

            want = oracle_cause.brute_is_cause(task, root, candidate, outcome)
            got = is_cause(
                model,
                model.configuration({VarId(n): v for n, v in root.items()}),
                [Atom(VarId(n), s, v) for n, s, v in candidate],
                [Atom(VarId(n), s, v) for n, s, v in outcome],
            )
            assert want == (got.is_cause, got.failing_condition), (task, root, candidate, outcome)
            causes += got.is_cause
        assert causes >= 10  # enough positive verdicts to mean something


# ---------------------------------------------------------------- 7


def test_criterion_7_fault_analysis_walkthrough(capsys, tmp_path):
    with criterion(capsys, 7):
        machine_file = tmp_path / "alternation.json"
        machine_file.write_text(dumps_canonical(machine_to_json(TM)))
        model_file = tmp_path / "alternation_model.json"
        assert main(["compile", str(machine_file), "--out", str(model_file)]) == 0

        cause_file = tmp_path / "cause.json"
        code = main(
            [
                "cause", str(model_file),
                "--input", "0101",
                "--candidate", "X_1@0=1",
                "--outcome", "S@5=acc",
                "--out", str(cause_file),
            ]
        )
        assert code == 0
        verdict = json.loads(cause_file.read_text())
        assert verdict["is_cause"] is True
        assert verdict["failing_condition"] is None
        assert verdict["witness"]["preventing"] == {"X_1@0=1": "0"}

        sweep_file = tmp_path / "sweep.json"
        code = main(
            [
                "sweep", str(model_file),
                "--input", "0101",
                "--vars", "X_0..X_7",
                "--steps", "0",
                "--outcome", "S@5=acc",
                "--out", str(sweep_file),
            ]
        )
        assert code == 0
        report = json.loads(sweep_file.read_text())
        assert report["baseline_holds"] is True
        assert report["by_var"] == {
            # the four input cells and the blank the head halts on matter;
            # cells the run never reaches cannot
            "X_0": "critical",
            "X_1": "critical",
            "X_2": "critical",
            "X_3": "critical",
            "X_4": "critical",
            "X_5": "inert",
            "X_6": "inert",
            "X_7": "inert",
        }


# ---------------------------------------------------------------- 8


def test_criterion_8_structure_rewrite_inexpressibility(capsys):
    model = constant_one_model()
    X = VarId("X")
    with criterion(capsys, 8):
        root = model.configuration({X: 1})
        to_zero = StructureInterventionSpec(
            [RewriteAtom(X, 0, ((X, 0),), 0), RewriteAtom(X, 0, ((X, 1),), 0)]
        )
        tree = apply_structure_intervention(model, root, to_zero, 50)
        assert len(tree.nodes) == 51
        assert all(
            tree.nodes[i].get(X) == 0
            for i in range(len(tree.nodes))
            if tree.depth_of[i] >= 1
        )
        # no value pin can reproduce that: one step after, the equation has
        # already pulled X back to 1
        for k in range(11):
            for v in (0, 1):
                pinned = apply_intervention(
                    model, root, InterventionSpec([Atom(X, k, v)]), k + 1
                )
                assert holds_at(pinned, [(X, k + 1, 1)], "all").holds
        # nor any combination of pins, exhaustively over short horizons
        for top in range(7):
            for tail in itertools.product((None, 0, 1), repeat=top):
                for v in (0, 1):
                    atoms = [Atom(X, s, x) for s, x in enumerate(tail) if x is not None]
                    atoms.append(Atom(X, top, v))
                    pinned = apply_intervention(
                        model, root, InterventionSpec(atoms), top + 1
                    )
                    assert holds_at(pinned, [(X, top + 1, 1)], "all").holds


# ---------------------------------------------------------------- 9


@st.composite
def little_models(draw):
    names = ("A", "B", "C")[: draw(st.integers(1, 3))]
    ranges = {
        n: draw(st.frozensets(st.integers(0, 3), min_size=1, max_size=3)) for n in names
    }
    domains = {}
    equations = {}
    for n in names:
        parents = draw(st.permutations(names))[: draw(st.integers(1, len(names)))]
        domains[n] = tuple(VarId(p) for p in parents)
        rows = {}
        for row in itertools.product(*(sorted(ranges[p]) for p in parents)):
            rows[row] = frozenset(
                draw(st.sets(st.sampled_from(sorted(ranges[n])), min_size=1, max_size=2))
            )
        equations[n] = TableEquation(rows)
    sig = Signature(plain=[PlainVar(n, ranges[n]) for n in names], domains=domains)
    model = Model(sig, equations)
    root = model.configuration(
        {VarId(n): draw(st.sampled_from(sorted(ranges[n]))) for n in names}
    )
    return model, root


@given(little_models())
@settings(max_examples=40, deadline=None)
def prop_successors_sound_and_complete(pack):
    model, root = pack
    names = sorted(model.equations)
    pools = []
    for n in names:
        row = tuple(root.get(d) for d in model.signature.domains[n])
        pools.append(sorted(model.equations[n].rows[row], key=repr))
    brute = {
        model.configuration(dict(zip((VarId(n) for n in names), combo)))
        for combo in itertools.product(*pools)
    }
    assert set(successors(model, root)) == brute


@given(st.text(alphabet="01", max_size=3), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def prop_finite_support_is_preserved(word, depth):
    for calc in (compile_ntm(GUESS), TM_CALC):
        tree = expand_tree(calc.model, calc.initial(word), depth)
        for cfg in tree.nodes:
            assert len(cfg.support) <= len(word) + depth + 2
            assert all(
                abs(v.index) <= len(word) + depth + 1
                for v, _ in cfg.support
                if v.index is not None
            )


@given(
    st.lists(st.sampled_from("01#"), min_size=1, max_size=3),
    st.integers(0, 6),
    st.dictionaries(st.integers(-3, 3), st.sampled_from("01"), max_size=3),
)
@settings(max_examples=30, deadline=None)
def prop_final_states_freeze(cells, head, tape_map):
    tape = (">", *cells, "<")
    lba_cfg = LbaConfig("acc", head % len(tape), tape)
    assert [(c, d) for c, _, d in machine_step(PARITY, lba_cfg)] == [(lba_cfg, 0)]
    tm_cfg = TapeConfig("acc", tuple(sorted(tape_map.items())))
    assert [(c, d) for c, _, d in machine_step(TM, tm_cfg)] == [(tm_cfg, 0)]
    encoded = encode_config(TM_CALC, tm_cfg)
    assert successors(TM_CALC.model, encoded) == (encoded,)


@given(st.text(alphabet="01", max_size=2), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def prop_exactly_one_head(word, depth):
    for calc in (compile_lba(PARITY, 2), compile_ntm(GUESS)):
        tree = expand_tree(calc.model, calc.initial(word), depth)
        for cfg in tree.nodes:
            triples = [v for v, value in cfg.support if isinstance(value, tuple)]
            assert triples == [VarId("X", 0)]


@given(little_models())
@settings(max_examples=40, deadline=None)
def prop_model_serialization_round_trips(pack):
    model, _ = pack
    text = dumps_canonical(model_to_json(model))
    again = model_from_json(json.loads(text))
    assert again == model
    assert dumps_canonical(model_to_json(again)) == text


_scalars = st.one_of(
    st.integers(-9, 9), st.text(alphabet="ab01#><q", min_size=1, max_size=3)
)


@given(st.one_of(_scalars, st.tuples(_scalars, _scalars, st.integers(-1, 1))))
@settings(max_examples=60, deadline=None)
def prop_value_serialization_round_trips(value):
    assert value_from_json(value_to_json(value)) == value


def test_criterion_9_invariant_suites(capsys):
    with criterion(capsys, 9):
        prop_successors_sound_and_complete()
        prop_finite_support_is_preserved()
        prop_final_states_freeze()
        prop_exactly_one_head()
        prop_model_serialization_round_trips()
        prop_value_serialization_round_trips()
        for spec in (TM, PARITY, ABC, GUESS):
            text = dumps_canonical(machine_to_json(spec))
            assert machine_from_json(json.loads(text)) == spec
            assert dumps_canonical(machine_to_json(machine_from_json(json.loads(text)))) == text
        # once a branch accepts it stays accepted, on the compiled side too
        for calc, word, depth in [
            (compile_lba(PARITY, 2), "11", 8),
            (TM_CALC, "0101", 8),
            (compile_ntm(GUESS), "01", 6),
            (compile_lba_monolithic(PARITY, 2), "11", 8),
        ]:
            tree = expand_tree(calc.model, calc.initial(word), depth)
            hit = 0
            for i, cfg in enumerate(tree.nodes):
                if calc.accepting(cfg) and tree.depth_of[i] < depth:
                    kids = tree.children[i]
                    assert len(kids) == 1
                    assert calc.accepting(tree.nodes[kids[0]])
                    hit += 1
            assert hit > 0, calc.kind
