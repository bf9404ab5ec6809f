"""The lockstep equivalence walk, one tree node at a time.

This is the walk ``check_equivalence`` ran before it moved onto
``core.reach_layers``: it expands the machine's run tree and the calculator's
computation tree level by level, keeps every node with its label path, and
checks each node in BFS order (decode its children, then the node cap, then
the match). The pair walk must report exactly what this one reports, so the
tests compare every ``EquivReport`` field with it.
"""

import random

from causalcalc.compilers import calc_labeler, decode_config, initial_calc_config
from causalcalc.core import DEFAULT_NODE_CAP, memo_successors
from causalcalc.equivalence import Counterexample, EquivReport, _compat
from causalcalc.errors import UndecodableConfig
from causalcalc.machines import initial_machine_config, machine_step
from causalcalc import reference


def _recheck(calc, succ, visited, fraction, seed):
    rng = random.Random(seed)
    k = max(1, int(len(visited) * fraction))
    sample = rng.sample(visited, min(k, len(visited)))
    for cfg in sample:
        if frozenset(c for c, _ in succ(cfg)) != reference.successor_set(calc, cfg):
            return len(sample), Counterexample(
                "reference_disagreement",
                (),
                "two successor routes differ on a visited configuration",
                calc_config=cfg,
            )
    return len(sample), None


def lockstep_walk(spec, calc, input_str, depth, *, recheck_fraction=0.1, seed=0,
                  node_cap=DEFAULT_NODE_CAP):
    _compat(spec, calc)
    report = EquivReport(True, calc.kind, input_str, depth)
    mroot = initial_machine_config(spec, input_str, calc.tape_len)
    croot = initial_calc_config(calc, input_str)
    visited = [croot]
    succ = memo_successors(calc.model, calc_labeler(calc))

    def fail(kind, path, detail, m=None, c=None):
        report.equivalent = False
        report.counterexample = Counterexample(kind, tuple(path), detail, m, c)
        return report

    if decode_config(calc, croot) != mroot:
        return fail("translation_mismatch", (), "root decodes wrong", mroot, croot)

    pairs = [(mroot, croot, ())]
    report.machine_nodes.append(1)
    report.calc_nodes.append(1)
    for _ in range(depth):
        nxt = []
        for m, c, labels in pairs:
            mkeys = {(d, child) for child, _, d in machine_step(spec, m)}
            ckeys = {}
            for child, d in succ(c):
                path = labels + (d,)
                try:
                    decoded = decode_config(calc, child, sum(path[:-1]), path[-1])
                except UndecodableConfig as exc:
                    return fail("undecodable", path, str(exc), m, child)
                ckeys[(d, decoded)] = child
            if len(visited) + len(ckeys) > node_cap:
                return fail("node_cap", labels, f"walk exceeds {node_cap} nodes")
            if mkeys != set(ckeys):
                missing = sorted(str(k) for k in mkeys - set(ckeys))
                extra = sorted(str(k) for k in set(ckeys) - mkeys)
                return fail(
                    "successor_mismatch",
                    labels,
                    f"machine-only children {missing}; calculator-only {extra}",
                    m,
                    c,
                )
            for (d, mchild), cchild in sorted(
                ckeys.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
            ):
                visited.append(cchild)
                nxt.append((mchild, cchild, labels + (d,)))
        pairs = nxt
        report.machine_nodes.append(len(pairs))
        report.calc_nodes.append(len(pairs))
        if not pairs:
            break
    report.rechecked, bad = _recheck(calc, succ, visited, recheck_fraction, seed)
    if bad is not None:
        report.equivalent = False
        report.counterexample = bad
    return report
