"""A fixed slice of the small scopes in ``scope.py``: every STRIDE-th machine.

The whole scopes run as ``PYTHONPATH=src:tests python tests/scope.py``.
"""

import itertools

import pytest

from scope import KNOWN_VERDICT_BUG, SCOPES, check_structure, describe, verdict_rows

STRIDE = 29  # coprime to every scope's innermost choice count, so the slice varies it
KINDS = {"lba": SCOPES[0], "lba_mono": SCOPES[0], "ntm": SCOPES[1], "tm": SCOPES[2]}


def sliced(kind):
    """(scope, spec, calculator) for every STRIDE-th machine of ``kind``'s scope."""
    scope = KINDS[kind]
    for spec in itertools.islice(scope.machines(), 0, None, STRIDE):
        (calc,) = [c for c in scope.calculators(spec) if c.kind == kind]
        yield scope, spec, calc


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_machine_in_the_slice_encodes_walks_and_freezes(kind):
    failures = [
        f"{word!r} [{describe(spec)}]: {failure}"
        for scope, spec, calc in sliced(kind)
        for word in scope.inputs
        for failure in check_structure(scope, spec, calc, word)
    ]
    assert failures == []


@pytest.mark.parametrize(
    "kind",
    [
        pytest.param(
            kind,
            marks=[pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="a window configuration also records the last move (and an lba window "
                "keeps stale wall cells), so its closure can reach new nodes after the machine "
                "has run out of new configurations",
            )] if kind in KNOWN_VERDICT_BUG else [],
        )
        for kind in sorted(KINDS)
    ],
)
def test_every_machine_in_the_slice_reaches_its_verdicts_at_every_budget(kind):
    rows = [
        (word, *row, describe(spec))
        for scope, spec, calc in sliced(kind)
        for word in scope.inputs
        for row in verdict_rows(scope, spec, calc, word)
    ]
    assert rows == []
