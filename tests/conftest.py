"""Shared models and machines for the test suite.

The machines are small by design: each one exists to pin a specific behavior
(bounded sweeps, marking loops, rejection by bouncing, nondeterministic
guessing) that the semantics must reproduce exactly.
"""

import pytest

from causalcalc import ComputationTree, Model, PlainVar, Signature, TableEquation, VarId
from causalcalc.machines import MachineSpec, Transition as T


def counter_model() -> Model:
    """Saturating counter over 0..9: from 9 stay, otherwise reset or step."""
    rows = {(x,): frozenset({9}) if x == 9 else frozenset({0, x + 1}) for x in range(10)}
    sig = Signature(
        plain=[PlainVar("X", frozenset(range(10)))],
        domains={"X": (VarId("X"),)},
    )
    return Model(sig, {"X": TableEquation(rows)})


def constant_one_model() -> Model:
    """X becomes 1 whatever it was; the fixpoint no intervention can break."""
    sig = Signature(
        plain=[PlainVar("X", frozenset({0, 1}))],
        domains={"X": (VarId("X"),)},
    )
    return Model(sig, {"X": TableEquation({(0,): {1}, (1,): {1}})})


def two_var_model() -> Model:
    """A carries B's old value, B flips nondeterministically from 0."""
    sig = Signature(
        plain=[PlainVar("A", frozenset({0, 1})), PlainVar("B", frozenset({0, 1}))],
        domains={"A": (VarId("B"),), "B": (VarId("B"),)},
    )
    return Model(
        sig,
        {
            "A": TableEquation({(0,): {0}, (1,): {1}}),
            "B": TableEquation({(0,): {0, 1}, (1,): {1}}),
        },
    )


def alternation_tm() -> MachineSpec:
    """Accepts binary strings whose symbols strictly alternate.

    A violation enters a two-state bounce that repeats the same head-relative
    configuration forever, so rejection closes instead of running the budget
    out.
    """
    ts = [
        T("s", "0", "e1", "0", 1),
        T("s", "1", "e0", "1", 1),
        T("s", "#", "acc", "#", 1),
        T("e1", "1", "e0", "1", 1),
        T("e1", "0", "ra", "0", 1),
        T("e1", "#", "acc", "#", 1),
        T("e0", "0", "e1", "0", 1),
        T("e0", "1", "ra", "1", 1),
        T("e0", "#", "acc", "#", 1),
    ]
    for g in "01#":
        ts.append(T("ra", g, "rb", g, -1))
        ts.append(T("rb", g, "ra", g, 1))
    return MachineSpec(
        kind="tm",
        states=("s", "e0", "e1", "acc", "ra", "rb"),
        initial="s",
        finals=frozenset({"acc"}),
        input_alphabet=("0", "1"),
        transitions=tuple(ts),
    )


def parity_lba() -> MachineSpec:
    """Accepts binary strings with an even number of ones (one sweep right)."""
    return MachineSpec(
        kind="lba",
        states=("even", "odd", "acc"),
        initial="even",
        finals=frozenset({"acc"}),
        input_alphabet=("0", "1"),
        transitions=(
            T("even", ">", "even", ">", 1),
            T("even", "0", "even", "0", 1),
            T("even", "1", "odd", "1", 1),
            T("odd", "0", "odd", "0", 1),
            T("odd", "1", "even", "1", 1),
            T("even", "#", "even", "#", 1),
            T("odd", "#", "odd", "#", 1),
            T("even", "<", "acc", "<", 0),
        ),
    )


def abc_lba() -> MachineSpec:
    """Accepts a^n b^n c^n by marking one triple per round and rewinding.

    The work markers A, B, C are ordinary alphabet symbols, so pre-marked
    inputs are legal strings; the machine treats them as already-verified.
    """
    ts = [
        T("q0", ">", "fa", ">", 1),
        T("fa", "A", "fa", "A", 1),
        T("fa", "a", "fb", "A", 1),
        T("fa", "B", "chk_b", "B", 1),
        T("fa", "#", "chk_c", "#", 1),
        T("fa", "<", "acc", "<", 0),
        T("fb", "a", "fb", "a", 1),
        T("fb", "B", "fb", "B", 1),
        T("fb", "b", "fc", "B", 1),
        T("fc", "b", "fc", "b", 1),
        T("fc", "C", "fc", "C", 1),
        T("fc", "c", "rw", "C", -1),
        T("rw", ">", "fa", ">", 1),
        T("chk_b", "B", "chk_b", "B", 1),
        T("chk_b", "C", "chk_c", "C", 1),
        T("chk_c", "C", "chk_c", "C", 1),
        T("chk_c", "#", "chk_c", "#", 1),
        T("chk_c", "<", "acc", "<", 0),
    ]
    for g in "aAbBC":
        ts.append(T("rw", g, "rw", g, -1))
    return MachineSpec(
        kind="lba",
        states=("q0", "fa", "fb", "fc", "rw", "chk_b", "chk_c", "acc"),
        initial="q0",
        finals=frozenset({"acc"}),
        input_alphabet=("a", "b", "c", "A", "B", "C"),
        transitions=tuple(ts),
    )


def guess_ntm() -> MachineSpec:
    """Accepts strings containing "01" by guessing where the 1 follows a 0."""
    return MachineSpec(
        kind="ntm",
        states=("g", "v", "acc"),
        initial="g",
        finals=frozenset({"acc"}),
        input_alphabet=("0", "1"),
        transitions=(
            T("g", "0", "g", "0", 1),
            T("g", "1", "g", "1", 1),
            T("g", "1", "v", "1", -1),
            T("v", "0", "acc", "0", 0),
        ),
    )


def sweep_lba() -> MachineSpec:
    """Nondeterministic sweep over {a, b}: every 'a' may be rewritten to 'b'."""
    return MachineSpec(
        kind="lba",
        states=("s", "t", "acc"),
        initial="s",
        finals=frozenset({"acc"}),
        input_alphabet=("a", "b"),
        transitions=(
            T("s", ">", "s", ">", 1),
            T("s", "a", "s", "a", 1),
            T("s", "a", "t", "b", 1),
            T("s", "b", "s", "b", 1),
            T("s", "#", "s", "#", 1),
            T("s", "<", "acc", "<", 0),
            T("t", "a", "t", "a", 1),
            T("t", "b", "t", "b", 1),
            T("t", "#", "t", "#", 1),
        ),
    )


def walkback_lba() -> MachineSpec:
    """Three fixed moves right, right, left; exists to pin decode offsets."""
    return MachineSpec(
        kind="lba",
        states=("u", "w", "x", "acc"),
        initial="u",
        finals=frozenset({"acc"}),
        input_alphabet=("a", "b"),
        transitions=(
            T("u", ">", "u", ">", 1),
            T("u", "a", "w", "a", 1),
            T("w", "a", "x", "b", -1),
            T("x", "a", "acc", "a", 0),
        ),
    )


def walk_lba() -> MachineSpec:
    """A reflecting walk that reconverges: the runs of bench's ``walk_lba``.

    The markers turn the head back; every working cell may step either way,
    writing ``b`` over ``a`` and ``a`` over ``b`` or a blank. Many branches
    reach the same configuration, so its tree far outgrows its reachable set.
    """
    ts = [T("w", ">", "w", ">", 1), T("w", "<", "w", "<", -1)]
    for read, write in (("a", "b"), ("b", "a"), ("#", "a")):
        ts += [T("w", read, "w", write, -1), T("w", read, "w", write, 1)]
    return MachineSpec(
        kind="lba",
        states=("w", "acc"),
        initial="w",
        finals=frozenset({"acc"}),
        input_alphabet=("a", "b"),
        transitions=tuple(ts),
    )


@pytest.fixture
def counter():
    return counter_model()


@pytest.fixture
def constant_one():
    return constant_one_model()


@pytest.fixture
def two_var():
    return two_var_model()


@pytest.fixture
def tm_spec():
    return alternation_tm()


@pytest.fixture
def parity_spec():
    return parity_lba()


@pytest.fixture
def abc_spec():
    return abc_lba()


@pytest.fixture
def ntm_spec():
    return guess_ntm()


@pytest.fixture
def sweep_spec():
    return sweep_lba()


@pytest.fixture
def list_builds(monkeypatch):
    """The per-node tree lists read while a test runs; reading one builds them all."""
    reads = []
    build = ComputationTree.__getattr__

    def spy(tree, name):
        if name in ("nodes", "parent", "depth_of", "children", "labels"):
            reads.append(name)
        return build(tree, name)

    monkeypatch.setattr(ComputationTree, "__getattr__", spy)
    return reads
