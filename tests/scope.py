"""Every machine in a small scope, checked against each calculator it compiles to.

Bugs in a compiler show on small machines (the small scope hypothesis:
Jackson, *Software Abstractions*, 2006; SmallCheck: Runciman, Naylor and
Lindblad, 2008), so instead of sampling specs this module enumerates every
valid machine of a scope: its non-final states, input alphabet and the most
transitions per (state, read). Each machine is compiled to every calculator
kind it admits and checked on a few inputs:

* (a) the lockstep walk is equivalent at depth ``depth``, every node rechecked
  through the reference interpreter;
* (b) ``decode_config`` inverts ``encode_config`` on every configuration the
  machine reaches within ``depth`` steps;
* (c) each of those configurations, put in the final state, freezes on the
  machine and on the calculator;
* (d) the acceptance verdicts agree at every budget from 0 to ``budget``.

``tests/test_scope.py`` runs a fixed slice of each scope. Run this file to
check the whole of every scope:

    PYTHONPATH=src:tests python tests/scope.py

It prints each scope's counts and the rows whose verdicts disagree, and exits
non-zero when a check fails where it is expected to hold, or when a known
disagreement (window calculators, below) no longer shows.
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass

from causalcalc import (
    calc_accepts,
    check_equivalence,
    compile_machine,
    decode_config,
    encode_config,
    initial_machine_config,
    machine_step,
    run_machine,
    successors,
)
from causalcalc.machines import MOVES, MachineSpec, Transition, validate_machine

FINAL = "acc"


def machines(kind: str, states: int = 1, alphabet: tuple = ("a",), per_read: int = 1):
    """Every valid ``kind`` spec over non-final states q0.. and the final ``acc``.

    Each (non-final state, tape symbol) pair has at most ``per_read``
    transitions (exactly one for a tm, whose δ is a total function); a
    transition goes to any state and writes any symbol the markers allow.
    """
    names = tuple(f"q{i}" for i in range(states)) + (FINAL,)
    blank, left, right = "#", ">", "<"
    reads = alphabet + (blank,) + ((left, right) if kind == "lba" else ())

    def options(src, read):
        writes, moves = alphabet + (blank,), MOVES[kind]
        if kind == "lba" and read in (left, right):  # a marker is a wall
            writes, moves = (read,), (0, 1) if read == left else (-1, 0)
        return [Transition(src, read, dst, w, m) for dst in names for w in writes for m in moves]

    sizes = (1,) if kind == "tm" else range(per_read + 1)
    cells = [
        [c for k in sizes for c in itertools.combinations(options(src, read), k)]
        for src in names[:-1]
        for read in reads
    ]
    for rows in itertools.product(*cells):
        yield MachineSpec(
            kind=kind,
            states=names,
            initial="q0",
            finals=frozenset({FINAL}),
            input_alphabet=alphabet,
            transitions=tuple(t for row in rows for t in row),
        )


@dataclass(frozen=True)
class Scope:
    """A scope of machines and how each one is checked."""

    name: str
    kind: str
    per_read: int
    alphabet: tuple
    inputs: tuple
    depth: int  # of the lockstep walk and of the reached configurations
    budget: int  # the largest budget whose verdicts are compared
    tape_len: int | None = None

    def machines(self):
        return machines(self.kind, alphabet=self.alphabet, per_read=self.per_read)

    def calculators(self, spec: MachineSpec):
        if self.kind != "lba":
            return [compile_machine(spec)]
        return [compile_machine(spec, tape_len=self.tape_len, monolithic=m) for m in (False, True)]


SCOPES = (
    Scope("lba", "lba", 1, ("a",), ("", "a", "aa"), depth=6, budget=8, tape_len=2),
    Scope("ntm", "ntm", 2, ("a",), ("", "a", "aa"), depth=5, budget=6),
    Scope("tm", "tm", 1, ("0", "1"), ("", "0", "01"), depth=5, budget=6),
)
# calculator kinds whose verdicts are known to disagree with their machine's:
# a window configuration also records the last move (and an lba window keeps
# stale wall cells), so its closure can still reach new nodes after the
# machine has run out of new configurations
KNOWN_VERDICT_BUG = ("lba", "ntm")


def reached(spec: MachineSpec, word: str, depth: int, tape_len: int | None) -> set:
    """The machine configurations reachable within ``depth`` steps."""
    level = {initial_machine_config(spec, word, tape_len)}
    seen = set(level)
    for _ in range(depth):
        level = {child for m in level for child, _, _ in machine_step(spec, m)} - seen
        seen |= level
    return seen


def check_structure(scope: Scope, spec: MachineSpec, calc, word: str) -> list[str]:
    """Checks (a) to (c) for one machine, calculator and input; the failures."""
    failures = []
    report = check_equivalence(spec, calc, word, scope.depth, recheck_fraction=1.0)
    if not report.equivalent:
        failures.append(f"(a) walk: {report.counterexample}")
    for m in sorted(reached(spec, word, scope.depth, scope.tape_len)):
        frame = m.head if calc.kind == "lba" else 0
        node = encode_config(calc, m)
        if decode_config(calc, node, frame, 0) != m:
            failures.append(f"(b) decode(encode({m})) = {decode_config(calc, node, frame, 0)}")
        final = m._replace(state=FINAL)
        node = encode_config(calc, final)
        if [(c, d) for c, _, d in machine_step(spec, final)] != [(final, 0)]:
            failures.append(f"(c) machine does not freeze {final}")
        if successors(calc.model, node) != (node,):
            failures.append(f"(c) calculator does not freeze {final}")
    return failures


def verdict_rows(scope: Scope, spec: MachineSpec, calc, word: str) -> list[tuple]:
    """Check (d): the (budget, machine verdict, calculator verdict) rows that disagree."""
    rows = []
    for budget in range(scope.budget + 1):
        _, want = run_machine(spec, word, budget, tape_len=scope.tape_len)
        _, got = calc_accepts(calc, word, budget)
        if got != want:
            rows.append((budget, want, got))
    return rows


def describe(spec: MachineSpec) -> str:
    rows = " ".join(f"{t.src},{t.read}->{t.dst},{t.write},{t.move}" for t in spec.transitions)
    return rows or "(no transitions)"


def run_scope(scope: Scope, out=sys.stdout) -> tuple[int, int]:
    """Check every machine of ``scope``; (unexpected failures, known disagreements)."""
    start, count, unexpected, known = time.perf_counter(), 0, 0, {}
    for spec in scope.machines():
        assert validate_machine(spec) == [], describe(spec)
        count += 1
        for calc in scope.calculators(spec):
            for word in scope.inputs:
                for failure in check_structure(scope, spec, calc, word):
                    unexpected += 1
                    print(f"FAIL {calc.kind} {word!r} [{describe(spec)}]: {failure}", file=out)
                for budget, want, got in verdict_rows(scope, spec, calc, word):
                    row = f"{calc.kind} {word!r} budget {budget}: machine {want}, calculator {got}"
                    if calc.kind in KNOWN_VERDICT_BUG:
                        known[calc.kind] = known.get(calc.kind, 0) + 1
                        print(f"known {row} [{describe(spec)}]", file=out)
                    else:
                        unexpected += 1
                        print(f"FAIL {row} [{describe(spec)}]", file=out)
    seconds = time.perf_counter() - start
    print(f"scope {scope.name}: {count} machines, {unexpected} unexpected failures, "
          f"known verdict disagreements {known}, {seconds:.1f} s", file=out)
    return unexpected, sum(known.values())


def main() -> int:
    unexpected = known = 0
    for scope in SCOPES:
        u, k = run_scope(scope)
        unexpected, known = unexpected + u, known + k
    if known == 0:
        print("the window calculators' known verdict disagreement no longer shows")
    return 1 if unexpected or known == 0 else 0


if __name__ == "__main__":
    sys.exit(main())
