"""Compile machine specs into causal calculator models.

Four targets:

* ``lba``: one bounded cell family ``X`` over a window wide enough for every
  head-relative frame; ``X_0`` carries (state, written symbol, move) triples.
* ``tm``: a plain state variable ``S`` plus an unbounded symbol family ``X``
  in head-relative coordinates.
* ``ntm``: like ``lba`` but unbounded and without wall cells.
* ``lba_mono``: a single variable whose values are whole machine
  configurations packed into flat tuples.

The windowed encodings keep the frame centered on the *previous* head
position: the triple at ``X_0`` records the transition just taken, its move
component says where the head now is relative to the frame, and every step
shifts the frame by the parent's recorded move. Decoding therefore needs the
frame: where it sits on the tape and the move into the node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import (
    DEFAULT_NODE_CAP,
    ComputationTree,
    Configuration,
    Family,
    LazyRange,
    Model,
    PlainVar,
    RuleEquation,
    Signature,
    VarId,
    memo_successors,
)
from .errors import (
    InvalidMachineKind,
    MalformedConfig,
    RangeTooLarge,
    StuckConfiguration,
    UndecodableConfig,
)
from .machines import (
    LbaConfig,
    MachineSpec,
    TapeConfig,
    closure_run,
    initial_machine_config,
    require_valid,
)

CELL = "X"
STATE = "S"
WHOLE = "V"
HEAD_ID, STATE_ID, WHOLE_ID = VarId(CELL, 0), VarId(STATE), VarId(WHOLE)
# most values a monolithic lba calculator's whole-configuration range may hold
MAX_WHOLE_RANGE = 10**8


def delta_f_image(spec: MachineSpec, state: str, symbol: str) -> tuple:
    """δ_f's (state, written symbol, move) outputs, as the head triple holds them."""
    return tuple((t.dst, t.write, t.move) for t in spec.delta_f(state, symbol))


@dataclass
class CalculatorModel:
    """A compiled model together with its provenance."""

    model: Model
    kind: str  # lba | tm | ntm | lba_mono
    machine: MachineSpec
    tape_len: int | None
    machine_hash: str

    def initial(self, input_str: str) -> Configuration:
        return initial_calc_config(self, input_str)

    def accepting(self, config: Configuration) -> bool:
        if self.kind == "tm":
            return config.get(STATE_ID) in self.machine.finals
        if self.kind == "lba_mono":
            return config.get(WHOLE_ID)[0] in self.machine.finals
        return config.get(HEAD_ID)[0] in self.machine.finals


class _Compiled:
    """Identity of what a compile builds from a spec and a tape length ``n``
    (None for unbounded tapes): equal when type, fingerprint and ``n`` are."""

    def __init__(self, spec: MachineSpec, tape_len: int | None = None):
        self.spec = spec
        self.n = tape_len

    def _identity(self) -> tuple:
        return (type(self), self.spec.fingerprint(), self.n)

    def __eq__(self, other):
        return isinstance(other, _Compiled) and self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())


class _MachineRule(_Compiled, RuleEquation):
    builtin = ""


class LbaWindowRule(_MachineRule):
    """Def-style window equations over the bounded cell family."""

    builtin = "lba_window_step"
    mortal_members = (0,)  # δ_f can be empty at the head triple; cells only shift

    def domain_of(self, index: int | None) -> tuple[VarId, ...]:
        w = self.n + 1
        if index is None or not -w <= index <= w:
            raise ValueError(f"{CELL}_{index} outside the window")
        if index == 0:
            return (VarId(CELL, -1), HEAD_ID, VarId(CELL, 1))
        if index == w:
            return (HEAD_ID, VarId(CELL, w - 1), VarId(CELL, w))
        if index == -w:
            return (HEAD_ID, VarId(CELL, -w), VarId(CELL, -w + 1))
        return (HEAD_ID, VarId(CELL, index - 1), VarId(CELL, index), VarId(CELL, index + 1))

    def outputs(self, index, view) -> frozenset:
        state, written, move = view[HEAD_ID]
        if index == 0:
            neighbor = view[VarId(CELL, move)]
            scanned = written if move == 0 else neighbor
            return frozenset(delta_f_image(self.spec, state, scanned))
        n, j = self.n, index + move
        if n is not None and not -n - 1 <= j <= n + 1:
            # wall cells have no outer neighbor; their stale content is never
            # inside the decodable frame again, so they may keep it
            j = index
        if j == 0:
            return frozenset([written])
        return frozenset([view[VarId(CELL, j)]])


class NtmWindowRule(LbaWindowRule):
    """Unbounded variant of the window equations; no wall cells (``n`` is None)."""

    builtin = "ntm_window_step"

    def domain_of(self, index: int | None) -> tuple[VarId, ...]:
        if index is None:
            raise ValueError(f"{CELL} is a family; a member index is required")
        if index == 0:
            return (VarId(CELL, -1), HEAD_ID, VarId(CELL, 1))
        out = [HEAD_ID]
        for j in (index - 1, index, index + 1):
            if j != 0:
                out.append(VarId(CELL, j))
        return tuple(out)


class TmStateRule(_MachineRule):
    builtin = "tm_state_step"
    mortal_members = ()  # δ is total on a valid tm spec and final states loop

    def domain_of(self, index):
        if index is not None:
            raise ValueError(f"{STATE} is plain")
        return (STATE_ID, HEAD_ID)

    def outputs(self, index, view) -> frozenset:
        state, scanned = view[STATE_ID], view[HEAD_ID]
        entries = self.spec.delta_f(state, scanned)
        if not entries:
            raise StuckConfiguration(f"no move from ({state},{scanned})")
        return frozenset(t.dst for t in entries)


class TmCellRule(_MachineRule):
    """Head-relative cell shift; the machine frame re-centers every step."""

    builtin = "tm_cell_step"
    mortal_members = ()

    def domain_of(self, index: int | None) -> tuple[VarId, ...]:
        if index is None:
            raise ValueError(f"{CELL} is a family; a member index is required")
        out = [HEAD_ID, STATE_ID]
        for j in (index - 1, index, index + 1):
            if j != 0:
                out.append(VarId(CELL, j))
        return tuple(out)

    def outputs(self, index, view) -> frozenset:
        state, scanned = view[STATE_ID], view[HEAD_ID]
        entries = self.spec.delta_f(state, scanned)
        if not entries:
            raise StuckConfiguration(f"no move from ({state},{scanned})")
        t = entries[0]
        if index == -t.move:
            # the cell just written lands opposite the move after re-centering
            # (a final state's loop writes the scanned cell back in place)
            return frozenset([t.write])
        return frozenset([view[VarId(CELL, index + t.move)]])


class WholeConfigRange(_Compiled, LazyRange):
    """All (state, head, tape...) tuples for a fixed machine and tape length."""

    def __contains__(self, value) -> bool:
        spec, n = self.spec, self.n
        if not isinstance(value, tuple) or len(value) != n + 4:
            return False
        state, head, tape = value[0], value[1], value[2:]
        return (
            state in spec.states
            and isinstance(head, int)
            and not isinstance(head, bool)
            and 0 <= head <= n + 1
            and tape[0] == spec.left_marker
            and tape[-1] == spec.right_marker
            and all(g in spec.tape_alphabet for g in tape[1:-1])
        )

    def size(self) -> int:
        return len(self.spec.states) * (self.n + 2) * len(self.spec.tape_alphabet) ** self.n


class WholeConfigRule(_MachineRule):
    builtin = "lba_whole_config_step"

    def domain_of(self, index):
        if index is not None:
            raise ValueError(f"{WHOLE} is plain")
        return (WHOLE_ID,)

    def outputs(self, index, view) -> frozenset:
        value = view[WHOLE_ID]
        state, head, tape = value[0], value[1], list(value[2:])
        out = []
        for t in self.spec.delta_f(state, tape[head]):
            nxt = list(tape)
            nxt[head] = t.write
            out.append((t.dst, head + t.move, *nxt))
        return frozenset(out)


def _check_compile(spec: MachineSpec, kind: str, tape_len: int | None = None) -> None:
    """The spec is valid and of ``kind``; an lba compile has a tape of at least one cell."""
    require_valid(spec)
    if spec.kind != kind:
        article = "a" if kind == "tm" else "an"
        raise InvalidMachineKind(f"expected {article} {kind} spec, got {spec.kind}")
    if kind == "lba" and tape_len < 1:
        raise ValueError("tape_len must be at least 1")


def _compile_window(spec: MachineSpec, kind: str, tape_len: int | None) -> CalculatorModel:
    """The cell family ``X`` with head triples at 0, walled when ``tape_len`` is given."""
    _check_compile(spec, kind, tape_len)
    w = None if tape_len is None else tape_len + 1
    triples = frozenset(
        (q, g, d) for q in spec.states for g in spec.tape_alphabet for d in (-1, 0, 1)
    )
    fam = Family(
        CELL,
        lo=None if w is None else -w,
        hi=w,
        values=frozenset(spec.tape_alphabet),
        default=spec.blank,
        overrides={0: triples},
    )
    rule = (LbaWindowRule if kind == "lba" else NtmWindowRule)(spec, tape_len)
    model = Model(Signature(families=[fam]), {CELL: rule})
    return CalculatorModel(model, kind, spec, tape_len, spec.fingerprint())


def compile_lba(spec: MachineSpec, tape_len: int) -> CalculatorModel:
    return _compile_window(spec, "lba", tape_len)


def compile_ntm(spec: MachineSpec) -> CalculatorModel:
    return _compile_window(spec, "ntm", None)


def compile_tm(spec: MachineSpec) -> CalculatorModel:
    _check_compile(spec, "tm")
    state = PlainVar(STATE, frozenset(spec.states))
    fam = Family(
        CELL, lo=None, hi=None, values=frozenset(spec.tape_alphabet), default=spec.blank
    )
    sig = Signature(plain=[state], families=[fam])
    model = Model(sig, {STATE: TmStateRule(spec), CELL: TmCellRule(spec)})
    return CalculatorModel(model, "tm", spec, None, spec.fingerprint())


def compile_lba_monolithic(spec: MachineSpec, tape_len: int) -> CalculatorModel:
    _check_compile(spec, "lba", tape_len)
    rng = WholeConfigRange(spec, tape_len)
    # every cell holds one of at least two symbols, so a tape longer than the
    # cap's bit length is too large without computing the (huge) size
    if tape_len > MAX_WHOLE_RANGE.bit_length() or rng.size() > MAX_WHOLE_RANGE:
        raise RangeTooLarge(
            f"whole-config range of a {tape_len}-cell tape exceeds {MAX_WHOLE_RANGE} values"
        )
    sig = Signature(plain=[PlainVar(WHOLE, rng)])
    model = Model(sig, {WHOLE: WholeConfigRule(spec, tape_len)})
    return CalculatorModel(model, "lba_mono", spec, tape_len, spec.fingerprint())


def compile_machine(spec: MachineSpec, *, tape_len: int | None = None, monolithic: bool = False) -> CalculatorModel:
    """Dispatch on the spec's kind; lba compiles need a tape length."""
    if spec.kind == "lba":
        if tape_len is None:
            raise ValueError("an lba compile needs tape_len")
        if monolithic:
            return compile_lba_monolithic(spec, tape_len)
        return compile_lba(spec, tape_len)
    if monolithic:
        raise InvalidMachineKind("only lba specs have a monolithic form")
    if spec.kind == "tm":
        return compile_tm(spec)
    if spec.kind == "ntm":
        return compile_ntm(spec)
    raise InvalidMachineKind(spec.kind)


def initial_calc_config(calc: CalculatorModel, input_str: str) -> Configuration:
    spec = calc.machine
    m = initial_machine_config(spec, input_str, calc.tape_len)
    if calc.kind == "lba_mono":
        return calc.model.configuration({WHOLE_ID: (m.state, m.head, *m.tape)})
    if calc.kind == "tm":
        return encode_tm_config(calc, m)
    # window encodings: the head triple holds the scanned symbol and no move yet
    if calc.kind == "lba":
        scanned, cells = m.tape[m.head], enumerate(m.tape)
    else:
        scanned, cells = m.cell(0, spec.blank), m.cells
    assign = {HEAD_ID: (spec.initial, scanned, 0)}
    for i, g in cells:
        if i != 0:
            assign[VarId(CELL, i)] = g
    return calc.model.configuration(assign)


def encode_tm_config(calc: CalculatorModel, m: TapeConfig) -> Configuration:
    if calc.kind != "tm":
        raise MalformedConfig(f"tm encoding asked of a {calc.kind} calculator")
    assign = {STATE_ID: m.state}
    for i, g in m.cells:
        assign[VarId(CELL, i)] = g
    return calc.model.configuration(assign)


def decode_config(calc: CalculatorModel, config: Configuration, offset: int = 0, last_move=None):
    """Recover the machine configuration a calculator node denotes.

    The windowed encodings need the frame: ``offset`` places the window lba's
    frame on the tape (it is the parent configuration's head), and
    ``last_move`` is the move into the node, None at the root. Raises
    UndecodableConfig when the node cannot be a run configuration there.
    """
    spec = calc.machine
    if calc.kind == "tm":
        cells = {v.index: val for v, val in config.support if v.name == CELL}
        return TapeConfig.from_cells(config.get(STATE_ID), cells, spec.blank)

    if calc.kind == "lba_mono":
        value = config.get(WHOLE_ID)
        return LbaConfig(value[0], value[1], tuple(value[2:]))

    state, written, move = config.get(HEAD_ID)
    if last_move is not None and last_move != move:
        raise UndecodableConfig(
            f"head triple move {move} disagrees with last path label {last_move}"
        )
    if calc.kind == "lba":
        head = offset + (last_move or 0)
        w = calc.tape_len + 1
        if not (0 <= offset <= w and 0 <= head <= w):
            raise UndecodableConfig(f"labels place the frame at {offset}, head at {head}")
        frame = range(-offset, w + 1 - offset)
        tape = tuple(written if i == 0 else config.get(VarId(CELL, i)) for i in frame)
        return LbaConfig(state, head, tape)

    # ntm: the frame lags the head by exactly the last move
    shift = last_move or 0
    cells = {v.index - shift: val for v, val in config.support if v.name == CELL and v.index != 0}
    cells[-shift] = written
    return TapeConfig.from_cells(state, cells, spec.blank)


def edge_label(calc: CalculatorModel, parent: Configuration, child: Configuration) -> int:
    """The move taken on this tree edge."""
    if calc.kind in ("lba", "ntm"):
        return child.get(HEAD_ID)[2]
    if calc.kind == "lba_mono":
        return child.get(WHOLE_ID)[1] - parent.get(WHOLE_ID)[1]
    return calc.machine.delta_f(parent.get(STATE_ID), parent.get(HEAD_ID))[0].move


def calc_labeler(calc: CalculatorModel):
    return lambda parent, child: edge_label(calc, parent, child)


def calc_accepts(
    calc: CalculatorModel,
    input_str: str,
    budget: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[ComputationTree, str]:
    """Acceptance verdict computed entirely on the calculator side."""
    root = initial_calc_config(calc, input_str)
    return closure_run(
        root,
        memo_successors(calc.model, calc_labeler(calc)),
        calc.accepting,
        budget,
        node_cap=node_cap,
    )
