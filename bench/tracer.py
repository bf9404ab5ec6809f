"""Spans around calls into causalcalc's modules, recorded from outside.

Installing a Tracer replaces each traced public function with a wrapper, on
its defining module and wherever another module bound the same object by
name (``interventions.expand_tree``, ``compilers.successors`` and so on), and
``Configuration.make`` on its class. A wrapper opens a span on entry and
closes it on exit. Closed spans fold into in-memory totals keyed by
(calling span, called function), so the program's own work is all that runs
while spans are open, and the totals are read once the run ends. Self time
is a span's duration minus the durations of its child spans. Counters that
need a function's arguments or result (tree sizes, distinct configurations)
run after the span closes, and their time is charged to no span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

TRACED = {
    "core": ("eval_equation", "successor_choices", "successors", "expand_choices",
             "expand_tree", "holds_at", "active_variables", "validate_model"),
    "interventions": ("apply_intervention", "apply_structure_intervention", "is_cause", "sweep"),
    "machines": ("machine_step", "closure_run", "plain_run", "run_machine", "machine_tree"),
    "compilers": ("compile_machine", "compile_lba", "compile_lba_monolithic", "compile_ntm",
                  "compile_tm", "initial_calc_config", "decode_config", "edge_label",
                  "calc_accepts"),
    "reference": ("successor_set", "expand", "matches_tree"),
    "equivalence": ("check_equivalence", "check_acceptance_matrix"),
    "formats": ("dumps_canonical", "model_from_json", "model_to_json", "machine_from_json",
                "tree_to_json", "parse_atoms", "parse_rewrites", "parse_timed", "parse_root",
                "parse_variable_patterns", "parse_steps"),
    "cli": ("main",),
}
PER_NODE = {"machines": ("run_machine",), "compilers": ("calc_accepts",)}
QUERIES = ("interventions.is_cause", "interventions.sweep")

# Functions whose summed self time is reported under one name.
GROUPS = {
    "formats.parse": [f"formats.{n}" for n in TRACED["formats"] if n.startswith("parse_")],
    "compilers.compile_machine": [f"compilers.{n}" for n in TRACED["compilers"]
                                  if n.startswith("compile_")],
}

# Per-layer metrics: name -> (unit, better). Counts and times are per round
# of the workload's operation mix.
LAYER_METRICS = {}
for _name in ("core.eval_equation", "core.successor_choices", "core.configuration_make",
              "core.expand_tree", "core.holds_at", "interventions.is_cause",
              "interventions.sweep", "interventions.apply_intervention",
              "interventions.apply_structure_intervention", "machines.closure_run",
              "machines.machine_step", "equivalence.check_equivalence",
              "equivalence.check_acceptance_matrix", "compilers.decode_config",
              "compilers.edge_label", "reference.successor_set", "formats.model_from_json",
              "formats.tree_to_json", "formats.dumps_canonical"):
    LAYER_METRICS[f"{_name}.calls"] = ("count/round", "lower")
    LAYER_METRICS[f"{_name}.self_s"] = ("s/round", "lower")
for _name in ("core.expand_choices", "formats.parse", "cli.main", "compilers.compile_machine"):
    LAYER_METRICS[f"{_name}.self_s"] = ("s/round", "lower")
LAYER_METRICS.update({
    "core.successor_choices.distinct_frac": ("ratio", "higher"),
    "core.expand_tree.nodes": ("count/round", "lower"),
    "core.expand_tree.distinct_frac": ("ratio", "higher"),
    "core.holds_at.branches": ("count/round", "lower"),
    "interventions.sweep.rows": ("count/round", "higher"),
    "interventions.trees_per_query": ("count/query", "lower"),
    "machines.closure_run.nodes": ("count/round", "lower"),
    "machines.run_machine.us_per_node": ("us/node", "lower"),
    "compilers.calc_accepts.us_per_node": ("us/node", "lower"),
    "compilers.calc_over_machine": ("ratio", "lower"),
    "equivalence.pairs": ("count/round", "lower"),
    "formats.bytes_out": ("bytes/round", "lower"),
    "core.budget_exceeded": ("count/round", "lower"),
    "trace.ops_per_s": ("1/s", "higher"),
    "trace.untraced_ops_per_s": ("1/s", "higher"),
    "trace.overhead": ("ratio", "lower"),
})


def _leaves(tree):
    return sum(1 for kids in tree.children if not kids)


# Counters read from a closed span's arguments and result.
def _after_successor_choices(tracer, args, result):
    tracer.per_op["core.successor_choices"].add(args[1])


def _after_expand_tree(tracer, args, tree):
    tracer.counts["core.expand_tree.nodes"] += tree.node_count
    tracer.counts["core.expand_tree.distinct"] += len(set(zip(tree.depth_of, tree.nodes)))
    if any(frame[0] in QUERIES for frame in tracer.stack):
        tracer.counts["interventions.query_trees"] += 1


def _count(key, measure):
    def after(tracer, args, result):
        tracer.counts[key] += measure(args, result)
    return after


AFTER = {
    "core.successor_choices": _after_successor_choices,
    "core.expand_tree": _after_expand_tree,
    "core.holds_at": _count("core.holds_at.branches", lambda a, r: _leaves(a[0])),
    "interventions.sweep": _count("interventions.sweep.rows", lambda a, r: len(r.rows)),
    "machines.closure_run": _count("machines.closure_run.nodes", lambda a, r: r[0].node_count),
    "machines.run_machine": _count("machines.run_machine.nodes", lambda a, r: r[0].node_count),
    "compilers.calc_accepts": _count("compilers.calc_accepts.nodes", lambda a, r: r[0].node_count),
    "equivalence.check_equivalence": _count("equivalence.pairs", lambda a, r: sum(r.calc_nodes)),
    "formats.dumps_canonical": _count("formats.bytes_out", lambda a, r: len(r.encode())),
}


class Tracer:
    """Wraps the traced functions of a loaded causalcalc while installed."""

    def __init__(self, pkg, targets=TRACED, make=True):
        self.pkg = pkg
        self.targets = targets
        self.make = make
        self.stack = [["<op>", 0.0]]
        self.edges = {}  # (caller, callee) -> [calls, total seconds, self seconds]
        self.counts = defaultdict(float)
        self.per_op = defaultdict(set)
        self._patches = []
        self._last_budget = None

    def _wrap(self, name, fn):
        stack, edges, clock = self.stack, self.edges, time.perf_counter
        after = AFTER.get(name)
        budget_error = self.pkg.errors.BudgetExceeded

        @functools.wraps(fn)
        def span(*args, **kwargs):
            caller = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except budget_error as exc:
                if exc is not self._last_budget:
                    self._last_budget = exc
                    self.counts["core.budget_exceeded"] += 1
                raise
            finally:
                took = clock() - start
                stack.pop()
                caller[1] += took
                totals = edges.get((caller[0], name))
                if totals is None:
                    totals = edges[(caller[0], name)] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += took
                totals[2] += took - frame[1]
            if after is not None:
                begun = clock()
                after(self, args, result)
                caller[1] += clock() - begun
            return result

        return span

    def install(self):
        wrappers = {}
        for mod_name, names in self.targets.items():
            mod = getattr(self.pkg, mod_name)
            for n in names:
                fn = getattr(mod, n)
                wrappers[id(fn)] = (fn, self._wrap(f"{mod_name}.{n}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "causalcalc" and not mod_name.startswith("causalcalc."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        if self.make:
            cls = self.pkg.core.Configuration
            original = cls.__dict__["make"]
            self._patches.append((cls, "make", original))
            cls.make = classmethod(self._wrap("core.configuration_make", original.__func__))

    def uninstall(self):
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    def end_op(self):
        """Fold per-operation distinct sets; memo caches would live per loaded model."""
        for name, seen in self.per_op.items():
            self.counts[f"{name}.distinct"] += len(seen)
        self.per_op.clear()

    def totals(self):
        """{function: [calls, total seconds, self seconds]} over all callers."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, callee), (calls, total, own) in self.edges.items():
            row = out[callee]
            row[0] += calls
            row[1] += total
            row[2] += own
        return out

    def per_node_us(self, name):
        _, total, _ = self.totals().get(name, (0, 0.0, 0.0))
        nodes = self.counts[f"{name}.nodes"]
        return 1e6 * total / nodes if nodes else 0.0

    def layer_metrics(self, rounds):
        """Every per-layer metric except the per-node and overhead figures."""
        totals = self.totals()
        counts = self.counts
        out = {}
        for metric in LAYER_METRICS:
            base, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = totals[base][0] / rounds
            elif field == "self_s":
                out[metric] = sum(totals[n][2] for n in GROUPS.get(base, [base])) / rounds
        calls = totals["core.successor_choices"][0]
        out["core.successor_choices.distinct_frac"] = (
            counts["core.successor_choices.distinct"] / calls if calls else 0.0)
        nodes = counts["core.expand_tree.nodes"]
        out["core.expand_tree.distinct_frac"] = (
            counts["core.expand_tree.distinct"] / nodes if nodes else 0.0)
        queries = sum(totals[q][0] for q in QUERIES)
        out["interventions.trees_per_query"] = (
            counts["interventions.query_trees"] / queries if queries else 0.0)
        for key in ("core.expand_tree.nodes", "core.holds_at.branches", "interventions.sweep.rows",
                    "machines.closure_run.nodes", "equivalence.pairs", "formats.bytes_out",
                    "core.budget_exceeded"):
            out[key] = counts[key] / rounds
        return out

    def span_table(self, rounds):
        """Caller -> callee totals per round, for the record printed with a traced run."""
        return {
            f"{caller} > {callee}": [n / rounds, round(total / rounds, 6), round(own / rounds, 6)]
            for (caller, callee), (n, total, own) in sorted(self.edges.items())
        }
