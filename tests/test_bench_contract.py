"""The benchmark's tracer wraps package functions by name and reads trees.

``bench/tracer.py`` names the functions it wraps in ``TRACED`` and reads tree
attributes in its ``AFTER`` hooks. A rename in the package would otherwise
break ``bench/run.py --trace 1`` without any test noticing.
"""

import importlib.util
from pathlib import Path

import causalcalc
from causalcalc import VarId, calc_accepts, compile_lba, expand_tree, run_machine
from causalcalc.machines import closure_run

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_on_the_package():
    tracer = _load_tracer()
    missing = [
        f"{mod}.{name}"
        for mod, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(getattr(causalcalc, mod), name, None))
    ]
    assert missing == []
    for hooked in tracer.AFTER:
        mod, _, name = hooked.rpartition(".")
        assert name in tracer.TRACED[mod], hooked


def test_trees_carry_what_the_tracer_hooks_read(counter, parity_spec):
    tracer = _load_tracer()
    root = counter.configuration({VarId("X"): 8})
    tree = expand_tree(counter, root, 2)
    # a closure run over plain integers: 0 -> 1 -> 2 -> back to 0
    closed = closure_run(0, lambda n: [((n + 1) % 3, 1)], lambda n: False, 10)
    machine_run = run_machine(parity_spec, "11", 20)
    calc_run = calc_accepts(compile_lba(parity_spec, 2), "11", 20)
    for t in (tree, closed[0], machine_run[0], calc_run[0]):
        for attr in ("node_count", "depth_of", "nodes", "children"):
            assert hasattr(t, attr), attr

    spans = tracer.Tracer(causalcalc)
    tracer.AFTER["core.expand_tree"](spans, (counter, root, 2), tree)
    tracer.AFTER["core.holds_at"](spans, (tree, []), None)
    tracer.AFTER["machines.closure_run"](spans, (), closed)
    tracer.AFTER["machines.run_machine"](spans, (), machine_run)
    tracer.AFTER["compilers.calc_accepts"](spans, (), calc_run)
    assert spans.counts["core.expand_tree.nodes"] == 6
    assert spans.counts["core.holds_at.branches"] == 3
    assert spans.counts["machines.closure_run.nodes"] == 3
    assert spans.counts["machines.run_machine.nodes"] == machine_run[0].node_count
    assert spans.counts["compilers.calc_accepts.nodes"] == calc_run[0].node_count
