"""Seeded operation mixes for the three benchmark workloads.

Each workload function writes its machine and model files into a work directory,
compiles and serialises the calculators it needs, loads every file once,
and returns the operation list for one round of the closed loop. The seed
picks roots, inputs, random table models, random-walk machines and
mutations; the kinds and counts of operations do not depend on it.

Every operation carries a ``check`` that compares its output against an
independent reference (see ``oracle.py``). References are computed only when
``check`` is called, outside the timed loop.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass
from typing import Callable

import oracle


@dataclass
class Op:
    """One operation: CLI arguments, or a direct call for corrupted calculators."""

    kind: str
    check: Callable[[str], bool]
    argv: list | None = None
    call: Callable[[], str] | None = None


def _t(src, read, dst, write, move):
    return {"from": src, "read": read, "to": dst, "write": write, "move": move}


def _machine(kind, states, initial, finals, alphabet, transitions):
    return {
        "kind": kind,
        "states": list(states),
        "initial": initial,
        "finals": list(finals),
        "input_alphabet": list(alphabet),
        "transitions": transitions,
    }


def alternation_tm():
    """Accepts binary strings whose symbols strictly alternate."""
    ts = [
        _t("s", "0", "e1", "0", 1), _t("s", "1", "e0", "1", 1), _t("s", "#", "acc", "#", 1),
        _t("e1", "1", "e0", "1", 1), _t("e1", "0", "ra", "0", 1), _t("e1", "#", "acc", "#", 1),
        _t("e0", "0", "e1", "0", 1), _t("e0", "1", "ra", "1", 1), _t("e0", "#", "acc", "#", 1),
    ]
    for g in "01#":
        ts += [_t("ra", g, "rb", g, -1), _t("rb", g, "ra", g, 1)]
    return _machine("tm", ("s", "e0", "e1", "acc", "ra", "rb"), "s", ["acc"], "01", ts)


def parity_lba():
    """Accepts binary strings with an even number of ones, in one sweep."""
    ts = [
        _t("even", ">", "even", ">", 1), _t("even", "0", "even", "0", 1),
        _t("even", "1", "odd", "1", 1), _t("odd", "0", "odd", "0", 1),
        _t("odd", "1", "even", "1", 1), _t("even", "#", "even", "#", 1),
        _t("odd", "#", "odd", "#", 1), _t("even", "<", "acc", "<", 0),
    ]
    return _machine("lba", ("even", "odd", "acc"), "even", ["acc"], "01", ts)


def abc_lba():
    """Accepts a^n b^n c^n by marking one triple per round and rewinding."""
    ts = [
        _t("q0", ">", "fa", ">", 1), _t("fa", "A", "fa", "A", 1), _t("fa", "a", "fb", "A", 1),
        _t("fa", "B", "chk_b", "B", 1), _t("fa", "#", "chk_c", "#", 1),
        _t("fa", "<", "acc", "<", 0), _t("fb", "a", "fb", "a", 1), _t("fb", "B", "fb", "B", 1),
        _t("fb", "b", "fc", "B", 1), _t("fc", "b", "fc", "b", 1), _t("fc", "C", "fc", "C", 1),
        _t("fc", "c", "rw", "C", -1), _t("rw", ">", "fa", ">", 1),
        _t("chk_b", "B", "chk_b", "B", 1), _t("chk_b", "C", "chk_c", "C", 1),
        _t("chk_c", "C", "chk_c", "C", 1), _t("chk_c", "#", "chk_c", "#", 1),
        _t("chk_c", "<", "acc", "<", 0),
    ]
    ts += [_t("rw", g, "rw", g, -1) for g in "aAbBC"]
    states = ("q0", "fa", "fb", "fc", "rw", "chk_b", "chk_c", "acc")
    return _machine("lba", states, "q0", ["acc"], "abcABC", ts)


def guess_ntm():
    """Accepts strings containing "01" by guessing where the 1 follows a 0."""
    ts = [
        _t("g", "0", "g", "0", 1), _t("g", "1", "g", "1", 1),
        _t("g", "1", "v", "1", -1), _t("v", "0", "acc", "0", 0),
    ]
    return _machine("ntm", ("g", "v", "acc"), "g", ["acc"], "01", ts)


def walk_lba(rng):
    """A reflecting random walk: every working cell may step either way.

    The seed picks what each step writes, so tree nodes far outnumber the
    distinct configurations while the tree shape stays fixed.
    """
    ts = [_t("w", ">", "w", ">", 1), _t("w", "<", "w", "<", -1)]
    for g in "ab#":
        for move in (-1, 1):
            ts.append(_t("w", g, "w", rng.choice("ab"), move))
    return _machine("lba", ("w", "acc"), "w", ["acc"], "ab", ts)


def walk_ntm(rng):
    """An unbounded random walk with seeded writes; it never halts."""
    ts = []
    for g in "ab#":
        for move in (-1, 1):
            ts.append(_t("w", g, "w", rng.choice("ab"), move))
    return _machine("ntm", ("w", "acc"), "w", ["acc"], "ab", ts)


def counter_task():
    """Saturating counter over 0..9: from 9 stay, otherwise reset or step."""
    return {
        "variables": {"X": list(range(10))},
        "domains": {"X": ["X"]},
        "tables": {"X": {(x,): {9} if x == 9 else {0, x + 1} for x in range(10)}},
    }


def two_var_task():
    """A carries B's old value; B flips nondeterministically from 0."""
    return {
        "variables": {"A": [0, 1], "B": [0, 1]},
        "domains": {"A": ["B"], "B": ["B"]},
        "tables": {"A": {(0,): {0}, (1,): {1}}, "B": {(0,): {0, 1}, (1,): {1}}},
    }


def constant_one_task():
    """X becomes 1 whatever it was."""
    return {
        "variables": {"X": [0, 1]},
        "domains": {"X": ["X"]},
        "tables": {"X": {(0,): {1}, (1,): {1}}},
    }


def random_task(rng, size):
    """A random table model drawn as in the cause-oracle acceptance test."""
    names = ["A", "B", "C"][:size]
    variables = {n: sorted(rng.sample(range(4), rng.randint(1, 3))) for n in names}
    domains = {n: sorted(rng.sample(names, rng.randint(1, len(names)))) for n in names}
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


def _task_json(task):
    return {
        "variables": [{"name": n, "range": vs} for n, vs in sorted(task["variables"].items())],
        "domains": {n: list(ds) for n, ds in sorted(task["domains"].items())},
        "equations": {
            n: {"table": [{"row": list(r), "out": sorted(o)} for r, o in sorted(t.items())]}
            for n, t in sorted(task["tables"].items())
        },
    }


class Files:
    """Writes workload files and loads each once, as set-up."""

    def __init__(self, pkg, work):
        self.pkg = pkg
        self.work = work

    def _write(self, name, payload):
        """The file's path and its content as read back."""
        path = self.work / f"{name}.json"
        path.write_text(self.pkg.formats.dumps_canonical(payload), encoding="utf-8")
        return str(path), json.loads(path.read_text(encoding="utf-8"))

    def table(self, name, task) -> str:
        path, data = self._write(name, _task_json(task))
        if self.pkg.core.validate_model(self.pkg.formats.model_from_json(data)):
            raise ValueError(f"generated model {name} is invalid")
        return path

    def machine(self, name, data):
        """Machine file path and the machine's spec object."""
        path, data = self._write(name, data)
        return path, self.pkg.formats.machine_from_json(data)

    def calculator(self, name, spec, tape_len=None, monolithic=False):
        """Compiled model file path and the calculator loaded back from it."""
        calc = self.pkg.compilers.compile_machine(spec, tape_len=tape_len, monolithic=monolithic)
        path, data = self._write(name, self.pkg.formats.model_to_json(calc))
        return path, self.pkg.formats.model_from_json(data)


# ---------------------------------------------------------------- output readers

def _tree_branches(text):
    """Root-to-leaf assignment paths of a tree printed by run/intervene."""
    tree = json.loads(text)
    if tree["truncated"]:
        return None
    kids = {}
    for e in tree["edges"]:
        kids.setdefault(e["from"], []).append(e["to"])
    assign = {n["id"]: n["assign"] for n in tree["nodes"]}
    out, stack = [], [[0]]
    while stack:
        path = stack.pop()
        nxt = kids.get(path[-1])
        if not nxt:
            out.append(tuple(tuple(sorted(assign[i].items())) for i in path))
        else:
            stack.extend(path + [c] for c in nxt)
    return sorted(out)


def _branches_check(task, root, depth, pins=None, rewrites=()):
    """The printed tree's branches against the oracle's enumeration."""
    def check(out):
        want = sorted(
            tuple(tuple(sorted(cfg.items())) for cfg in b)
            for b in oracle.branches(task, root, depth, pins, rewrites)
        )
        return _tree_branches(out) == want
    return check


def _cause_check(task, root, candidate, outcome):
    def check(out):
        got = json.loads(out)
        want = oracle.is_cause(task, root, candidate, outcome)
        return (got["is_cause"], got["failing_condition"]) == want
    return check


def _sweep_rows(text):
    """(baseline, {frozenset of atom texts: holds}, by_var) from sweep's table."""
    lines = [ln.split("\t") for ln in text.splitlines()]
    baseline = lines[0][1] == "holds"
    rows, by_var = {}, {}
    for parts in lines[1:]:
        if parts[0] == "var":
            by_var[parts[1]] = parts[2]
        elif parts[0] != "truncated":
            held = parts[1] == "holds"
            if (parts[2] == "critical") != (held != baseline):
                return None
            rows[frozenset(parts[0].split("+"))] = held
    return baseline, rows, by_var


def _atom(name, step, value):
    return f"{name}@{step}={value}"


# ---------------------------------------------------------------- table-model ops

def _table_ops(path, task, root, rng, horizon, tag):
    """run, intervene --do/--rewrite, cause and k=1/k=2 sweeps on one table model."""
    names = sorted(task["variables"])
    rootj = json.dumps(root)
    branch = rng.choice(oracle.branches(task, root, horizon))

    def pick(max_step):
        step = rng.randint(0, max_step)
        name = rng.choice(names)
        if rng.random() < 0.6 and step < len(branch):
            return (name, step, branch[step][name])
        return (name, step, rng.choice(task["variables"][name]))

    ops = []
    ops.append(Op(f"{tag}run", check=_branches_check(task, root, horizon),
                  argv=["run", path, "--root", rootj, "--depth", str(horizon)]))

    pins = {}
    for _ in range(2):
        name, step = rng.choice(names), rng.randint(1, horizon)
        pins[(name, step)] = rng.choice(task["variables"][name])
    do = ",".join(_atom(n, s, v) for (n, s), v in sorted(pins.items()))
    ops.append(Op(f"{tag}intervene_do", check=_branches_check(task, root, horizon, pins),
                  argv=["intervene", path, "--root", rootj, "--depth", str(horizon), "--do", do]))

    name = rng.choice(names)
    row = {d: rng.choice(task["variables"][d]) for d in task["domains"][name]}
    rewrite = (name, rng.randint(0, horizon - 1), row, rng.choice(task["variables"][name]))
    rtext = "{}@{}({})={}".format(
        name, rewrite[1], ",".join(f"{d}={v}" for d, v in sorted(row.items())), rewrite[3]
    )
    ops.append(Op(f"{tag}intervene_rewrite",
                  check=_branches_check(task, root, horizon, rewrites=[rewrite]),
                  argv=["intervene", path, "--root", rootj, "--depth", str(horizon),
                        "--rewrite", rtext]))

    candidate = [pick(horizon - 1)]
    extra = pick(horizon - 1)
    if rng.random() < 0.4 and extra[:2] != candidate[0][:2]:
        candidate.append(extra)
    outcome = [pick(horizon)]

    ops.append(Op(f"{tag}cause", check=_cause_check(task, root, candidate, outcome),
                  argv=["cause", path, "--root", rootj,
                        "--candidate", ",".join(_atom(*a) for a in candidate),
                        "--outcome", _atom(*outcome[0])]))

    # k=2 rows grow with the square of the cells, so that sweep faults step 0 only
    for k, mode, last in ((1, "some", 1), (2, "all", 0)):
        cells = [(n, s) for n in names for s in range(last + 1)]

        def verdict(atoms, mode=mode):
            depth = max([horizon] + [s for _, s, _ in atoms])
            pins = {(n, s): v for n, s, v in atoms}
            return oracle.holds(task, root, depth, outcome, mode, pins)

        ops.append(Op(f"{tag}sweep_k{k}",
                      check=_sweep_check(verdict, cells, task["variables"].get, k),
                      argv=["sweep", path, "--root", rootj, "--vars", ",".join(names),
                            "--steps", f"0..{last}", "--outcome", _atom(*outcome[0]),
                            "--mode", mode, "--k", str(k)]))
    return ops


def _sweep_check(verdict, cells, values, k, by_var=None):
    """Every printed row, and the baseline, against ``verdict(atoms)``."""
    def check(out):
        parsed = _sweep_rows(out)
        if parsed is None:
            return False
        want = {frozenset(_atom(*atom) for atom in row): verdict(row)
                for row in oracle.fault_rows(cells, values, k)}
        return parsed[:2] == (verdict(()), want) and by_var in (None, parsed[2])
    return check


# ---------------------------------------------------------------- workloads

RANDOM_MODELS = 13


def counterfactual(pkg, rng, work):
    """Cause, sweep, intervene and run queries on table models and the TM."""
    files = Files(pkg, work)
    ops = []

    counter = counter_task()
    cpath = files.table("counter", counter)
    for i in range(6):
        root = {"X": rng.randint(0, 3)}
        pins = {("X", rng.randint(1, 3)): rng.randint(0, 3)}
        if i < 4:
            ops.append(Op("counter_run", check=_branches_check(counter, root, 10),
                          argv=["run", cpath, "--root", json.dumps(root), "--depth", "10"]))
        ops.append(Op("counter_intervene_do", check=_branches_check(counter, root, 10, pins),
                      argv=["intervene", cpath, "--root", json.dumps(root), "--depth", "10",
                            "--do", ",".join(_atom(n, s, v) for (n, s), v in pins.items())]))
    for _ in range(2):
        root = {"X": rng.randint(0, 3)}
        branch = rng.choice(oracle.branches(counter, root, 8))
        candidate, outcome = [("X", 0, root["X"])], [("X", 8, branch[8]["X"])]
        ops.append(Op("counter_cause", check=_cause_check(counter, root, candidate, outcome),
                      argv=["cause", cpath, "--root", json.dumps(root), "--candidate",
                            _atom(*candidate[0]), "--outcome", _atom(*outcome[0])]))

    two = two_var_task()
    ops += _table_ops(files.table("two_var", two), two, {"A": 0, "B": 0}, rng, 4, "two_var_")

    one = constant_one_task()
    opath = files.table("constant_one", one)
    rewrite_all = [("X", 0, {"X": 0}, 0), ("X", 0, {"X": 1}, 0)]
    ops.append(Op("constant_one_rewrite",
                  check=_branches_check(one, {"X": 1}, 50, rewrites=rewrite_all),
                  argv=["intervene", opath, "--root", '{"X": 1}', "--depth", "50",
                        "--rewrite", "X@0(X=0)=0,X@0(X=1)=0"]))

    for i in range(RANDOM_MODELS):
        size = 1 + i % 3
        task = random_task(rng, size)
        root = {n: rng.choice(vs) for n, vs in task["variables"].items()}
        horizon = rng.randint(2, 4 if size <= 2 else 3)
        ops += _table_ops(files.table(f"random{i}", task), task, root, rng, horizon, "random_")

    tm_data = alternation_tm()
    _, tm_spec = files.machine("alternation", tm_data)
    tpath, _ = files.calculator("alternation_model", tm_spec)
    def tm_cause_check(out):
        """The hand-written answer of the fault-analysis acceptance criterion."""
        got = json.loads(out)
        return (got["is_cause"], got["failing_condition"], got["witness"]["preventing"]) == (
            True, None, {"X_1@0=1": "0"})

    ops.append(Op("tm_cause", check=tm_cause_check,
                  argv=["cause", tpath, "--input", "0101", "--candidate", "X_1@0=1",
                        "--outcome", "S@5=acc"]))

    def tm_verdict(atoms):
        """Acceptance at step 5, by stepping the machine itself under the faults."""
        pins = {}
        for name, step, value in atoms:
            pins.setdefault(step, {})[int(name.split("_")[1])] = value
        return oracle.simulate_tm(tm_data, dict(enumerate("0101")), pins, 5) == "acc"

    def symbols(name):
        return ("#", "0", "1")

    by_var = {f"X_{i}": "critical" if i < 5 else "inert" for i in range(8)}
    ops.append(Op("tm_sweep_k1",
                  check=_sweep_check(tm_verdict, [(f"X_{i}", 0) for i in range(8)], symbols, 1,
                                     by_var),
                  argv=["sweep", tpath, "--input", "0101", "--vars", "X_0..X_7", "--steps", "0",
                        "--outcome", "S@5=acc"]))
    ops.append(Op("tm_sweep_k2",
                  check=_sweep_check(tm_verdict, [(f"X_{i}", s) for i in range(6) for s in (0, 1)],
                                     symbols, 2),
                  argv=["sweep", tpath, "--input", "0101", "--vars", "X_0..X_5", "--steps",
                        "0..1", "--outcome", "S@5=acc", "--k", "2"]))
    rng.shuffle(ops)
    return ops


def _words(rng, alphabet, length, count):
    return ["".join(rng.choice(alphabet) for _ in range(length)) for _ in range(count)]


# The input batteries below keep each machine's run length nearly fixed while
# the seed varies the words and verdicts, so one seed's round costs about what
# another's does.

def _abc_words(rng, n, count):
    """a^n b^n c^(n-1) and a last letter: c (accepted) on even positions, else a or b."""
    return ["a" * n + "b" * n + "c" * (n - 1) + ("c" if i % 2 == 0 else rng.choice("ab"))
            for i in range(count)]


def _guess_words(rng, length, count):
    """1^k 0^j and a last symbol, 1 (accepted) on even positions: "01" can only end it."""
    out = []
    for i in range(count):
        ones = rng.choice((length // 2 - 1, length // 2))
        out.append("1" * ones + "0" * (length - 1 - ones) + ("1" if i % 2 == 0 else "0"))
    return out


def _alternation_words(rng, length, count):
    """An alternating prefix and two random symbols."""
    out = []
    for _ in range(count):
        first = rng.randint(0, 1)
        prefix = "".join(str((first + i) % 2) for i in range(length - 2))
        out.append(prefix + rng.choice("01") + rng.choice("01"))
    return out


def compiled_run(pkg, rng, work):
    """accepts and run on compiled calculators, each paired with the machine."""
    files = Files(pkg, work)
    jobs = [
        # name, machine dict, tape_len, monolithic, inputs, budget, run depth; the
        # first input is accepted where the verdict is seeded, and the run depth
        # reaches past its acceptance, so the printed tree shows final states
        ("parity", parity_lba(), 8, False, _words(rng, "01", 8, 4), 30, 12),
        ("parity_mono", parity_lba(), 8, True, _words(rng, "01", 8, 4), 30, 12),
        ("abc", abc_lba(), 9, False, _abc_words(rng, 3, 4), 300, 64),
        ("abc_mono", abc_lba(), 6, True, _abc_words(rng, 2, 4), 300, 34),
        ("guess", guess_ntm(), None, False, _guess_words(rng, 8, 4), 12, 10),
        ("alternation", alternation_tm(), None, False, _alternation_words(rng, 12, 4), 100, 15),
    ]
    ops = []
    for name, data, tape_len, mono, inputs, budget, depth in jobs:
        mpath, spec = files.machine(name + "_machine", data)
        cpath, calc = files.calculator(name + "_model", spec, tape_len, mono)
        tape = ["--tape-len", str(tape_len)] if tape_len else []
        for word in inputs:
            check = _verdict_check(pkg, spec, word, budget, tape_len)
            ops.append(Op(f"accepts_model_{name}", check=check,
                          argv=["accepts", cpath, "--input", word, "--budget", str(budget)]))
            ops.append(Op(f"accepts_machine_{name}", check=check,
                          argv=["accepts", mpath, "--input", word, "--budget", str(budget)]
                          + tape))
        ops.append(Op(f"run_model_{name}", check=_run_check(pkg, calc, data, inputs[0], depth),
                      argv=["run", cpath, "--input", inputs[0], "--depth", str(depth)]))
    rng.shuffle(ops)
    return ops


def _verdict_check(pkg, spec, word, budget, tape_len):
    def check(out):
        _, want = pkg.machines.run_machine(spec, word, budget, tape_len=tape_len)
        return json.loads(out)["verdict"] == want
    return check


def _jsonable(value):
    return [_jsonable(v) for v in value] if isinstance(value, tuple) else value


def _run_check(pkg, calc, data, word, depth):
    """The printed tree against the reference interpreter's tree, node by node."""
    delta = {(t["from"], t["read"]): t["move"] for t in data["transitions"]}

    def label(parent, child):
        p = {v.render(): x for v, x in parent.support}
        c = {v.render(): x for v, x in child.support}
        if calc.kind in ("lba", "ntm"):
            return c["X_0"][2]
        if calc.kind == "lba_mono":
            return c["V"][1] - p["V"][1]
        if p["S"] in data["finals"]:
            return 0
        return delta[(p["S"], p.get("X_0", "#"))]

    def check(out):
        root = calc.initial(word)
        want, level = [], [(pkg.reference.expand(calc, root, depth), None, None)]
        while level:
            nxt = []
            for node, parent_id, parent_cfg in level:
                cfg, nid = node["config"], len(want)
                assign = {v.render(): _jsonable(x) for v, x in cfg.support}
                want.append((parent_id, assign, parent_cfg and label(parent_cfg, cfg)))
                nxt += [(kid, nid, cfg) for kid in node["children"]]
            level = nxt
        tree = json.loads(out)
        edges = {e["to"]: (e["from"], e["label"]) for e in tree["edges"]}
        got = [
            (edges.get(n["id"], (None, None))[0], n["assign"], edges.get(n["id"], (None, None))[1])
            for n in tree["nodes"]
        ]
        return not tree["truncated"] and got == want
    return check


def _mutants(pkg, calc, word, rng, count):
    """Single-row corruptions: half on rows a depth-5 tree uses, half blind."""
    spec, model = calc.machine, calc.model
    tree = pkg.core.expand_tree(model, calc.initial(word), 5)
    states, symbols = sorted(spec.states), sorted(spec.tape_alphabet)
    heads = [(q, g, d) for q in states for g in symbols for d in (-1, 0, 1)]
    out = []
    while len(out) < count:
        used = len(out) < count // 2
        cfg = rng.choice(tree.nodes)
        if calc.kind in ("lba", "ntm"):
            eq = model.equations["X"]
            dom = eq.domain_of(0)
            row = tuple(cfg.get(v) for v in dom) if used else (
                rng.choice(symbols), rng.choice(heads), rng.choice(symbols))
            old = eq.outputs(0, dict(zip(dom, row)))
            key, name, pool = (0, row), "X", [h for h in heads if h not in old]
        elif calc.kind == "tm":
            eq = model.equations["X"]
            i = rng.choice([-1, 0, 1])
            dom = eq.domain_of(i)
            row = tuple(cfg.get(v) for v in dom) if used else tuple(
                rng.choice(states if v.name == "S" else symbols) for v in dom)
            old = eq.outputs(i, dict(zip(dom, row)))
            key, name, pool = (i, row), "X", [g for g in symbols if g not in old]
        else:
            eq = model.equations["V"]
            whole = cfg.get(pkg.core.VarId("V"))
            old = eq.outputs(None, {pkg.core.VarId("V"): whole})
            key, name = (None, (whole,)), "V"
            pool = [(q, *whole[1:]) for q in states if (q, *whole[1:]) not in old]
        mutant_eq = pkg.core.OverrideEquation(model, name, {key: [rng.choice(pool)]})
        equations = dict(model.equations, **{name: mutant_eq})
        out.append(dataclasses.replace(calc, model=pkg.core.Model(model.signature, equations)))
    return out


def bisim(pkg, rng, work):
    """Equivalence checks: pristine calculators, corrupted ones, acceptance matrices."""
    files = Files(pkg, work)
    ops = []
    jobs = [
        # name, machine dict, tape_len, monolithic, input, depth
        ("parity", parity_lba(), 3, False, _words(rng, "01", 3, 1)[0], 20),
        ("parity_mono", parity_lba(), 3, True, _words(rng, "01", 3, 1)[0], 10),
        ("abc", abc_lba(), 3, False, _abc_words(rng, 1, 1)[0], 12),
        ("abc_mono", abc_lba(), 3, True, _abc_words(rng, 1, 1)[0], 10),
        ("guess", guess_ntm(), None, False, _guess_words(rng, 5, 1)[0], 8),
        ("alternation", alternation_tm(), None, False, _alternation_words(rng, 6, 1)[0], 20),
    ]
    for i in range(2):
        # reconverging walks: many more tree nodes than distinct configurations
        jobs += [
            ("walk", walk_lba(rng), 4, False, _words(rng, "ab", 4, 1)[0], 10),
            ("walk_mono", walk_lba(rng), 4, True, _words(rng, "ab", 4, 1)[0], 10),
            ("walk_ntm", walk_ntm(rng), None, False, _words(rng, "ab", 3, 1)[0], 7),
        ]
    specs = {}
    for n, (name, data, tape_len, mono, word, depth) in enumerate(jobs):
        mpath, spec = files.machine(f"{n}_{name}_machine", data)
        cpath, calc = files.calculator(f"{n}_{name}_model", spec, tape_len, mono)
        specs[name] = (mpath, cpath, spec, calc, tape_len)
        ops.append(Op(f"bisim_{name}",
                      check=_pristine_check(pkg, spec, word, depth, tape_len),
                      argv=["bisim", mpath, cpath, "--input", word, "--depth", str(depth)]))

    for name, word in (("parity", "11"), ("abc", "abc"), ("alternation", "0101"),
                       ("guess", "01"), ("parity_mono", "11")):
        _, _, spec, calc, _ = specs[name]
        for mutant in _mutants(pkg, calc, word, rng, 4):
            ops.append(Op(f"mutant_{name}", check=_mutant_check(pkg, calc, mutant, word),
                          call=_mutant_call(pkg, spec, mutant, word)))

    for name, inputs, budget in (("parity", _words(rng, "01", 3, 6), 30),
                                 ("guess", _guess_words(rng, 5, 6), 10),
                                 ("alternation", _alternation_words(rng, 6, 6), 100)):
        mpath, cpath, spec, calc, tape_len = specs[name]
        ops.append(Op(f"matrix_{name}", check=_matrix_check(pkg, spec, inputs, budget, tape_len),
                      argv=["bisim", mpath, cpath, "--inputs", ",".join(inputs),
                            "--budget", str(budget)]))
    rng.shuffle(ops)
    return ops


def _pristine_check(pkg, spec, word, depth, tape_len):
    def check(out):
        report = json.loads(out)
        tree = pkg.machines.machine_tree(spec, word, depth, tape_len=tape_len)
        levels = [tree.depth_of.count(d) for d in range(depth + 1)]
        walked = report["machine_nodes"]
        # the walk stops after the first empty level
        return (report["equivalent"] is True and levels[:len(walked)] == walked
                and not any(levels[len(walked):]))
    return check


def _mutant_call(pkg, spec, mutant, word):
    def call():
        report = pkg.equivalence.check_equivalence(spec, mutant, word, 6)
        ce = report.counterexample
        return json.dumps([report.equivalent, ce and [ce.kind, list(ce.path)]])
    return call


def _mutant_check(pkg, calc, mutant, word):
    def check(out):
        root = calc.initial(word)
        tree = pkg.core.expand_tree(mutant.model, root, 6)
        changed = not pkg.reference.matches_tree(pkg.reference.expand(calc, root, 6), tree)
        return json.loads(out)[0] == (not changed)
    return check


def _matrix_check(pkg, spec, inputs, budget, tape_len):
    def check(out):
        want = [pkg.machines.run_machine(spec, w, budget, tape_len=tape_len)[1] for w in inputs]
        lines = [ln.split("\t") for ln in out.splitlines()]
        rows = [(m, c, a) for _, m, c, a in lines[:-1]]
        return rows == [(v, v, "agree") for v in want] and lines[-1] == ["all_agree", "True"]
    return check


WORKLOADS = {"counterfactual": counterfactual, "compiled_run": compiled_run, "bisim": bisim}
