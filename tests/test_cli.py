import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from causalcalc.cli import _build_parser, main
from causalcalc.formats import dumps_canonical, machine_to_json, model_to_json


@pytest.fixture
def parity_file(tmp_path, parity_spec):
    path = tmp_path / "parity.json"
    path.write_text(dumps_canonical(machine_to_json(parity_spec)))
    return str(path)


@pytest.fixture
def tm_file(tmp_path, tm_spec):
    path = tmp_path / "tm.json"
    path.write_text(dumps_canonical(machine_to_json(tm_spec)))
    return str(path)


@pytest.fixture
def parity_model_file(tmp_path, parity_file):
    path = tmp_path / "parity_model.json"
    assert main(["compile", parity_file, "--tape-len", "2", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture
def counter_file(tmp_path, counter):
    path = tmp_path / "counter.json"
    path.write_text(dumps_canonical(model_to_json(counter)))
    return str(path)


@pytest.fixture
def constant_one_file(tmp_path, constant_one):
    path = tmp_path / "one.json"
    path.write_text(dumps_canonical(model_to_json(constant_one)))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------- compile

def test_compile_writes_a_loadable_model(capsys, parity_file):
    code, data = run_json(capsys, ["compile", parity_file, "--tape-len", "2"])
    assert code == 0
    assert data["meta"]["kind"] == "lba"
    assert data["equations"]["X"] == {"builtin": "lba_window_step"}


def test_compile_monolithic_and_tm(capsys, parity_file, tm_file):
    code, data = run_json(
        capsys, ["compile", parity_file, "--tape-len", "2", "--monolithic"]
    )
    assert code == 0 and data["meta"]["kind"] == "lba_mono"
    code, data = run_json(capsys, ["compile", tm_file])
    assert code == 0 and data["meta"]["kind"] == "tm"


def test_compile_lba_requires_tape_len(capsys, parity_file):
    assert main(["compile", parity_file]) == 1
    assert "tape-len" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [["--tape-len", "0"], ["--tape-len", "-2"], ["--tape-len", "0", "--monolithic"]],
)
def test_compile_lba_rejects_tape_len_below_one(capsys, parity_file, extra):
    assert main(["compile", parity_file, *extra]) == 1
    assert "--tape-len must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "COUNTER", "--root", '{"X": 8}', "--depth", "-2"],
        [
            "intervene", "COUNTER", "--root", '{"X": 8}',
            "--rewrite", "X@1(X=0)=1", "--depth", "-1",
        ],
        ["bisim", "PARITY", "MODEL", "--input", "1", "--depth", "-1"],
        ["accepts", "MODEL", "--input", "1", "--budget", "-5"],
        ["bisim", "PARITY", "MODEL", "--inputs", "1,0", "--budget", "-1"],
    ],
    ids=["run", "intervene", "bisim-depth", "accepts", "bisim-budget"],
)
def test_negative_depth_and_budget_are_usage_errors(
    capsys, counter_file, parity_file, parity_model_file, argv
):
    files = {"COUNTER": counter_file, "PARITY": parity_file, "MODEL": parity_model_file}
    assert main([files.get(arg, arg) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err and "must be at least 0" in captured.err


def test_the_cached_parser_keeps_no_state_between_calls(
    capsys, counter_file, parity_file, parity_model_file
):
    sweep = ["sweep", counter_file, "--root", '{"X": 8}', "--vars", "X", "--steps", "0..1",
             "--outcome", "X@2=9"]
    commands = [
        ["run", counter_file, "--root", '{"X": 8}', "--depth", "-1"],
        sweep + ["--mode", "all", "--k", "2"],
        sweep,
        ["bisim", parity_file, parity_model_file, "--input", "1", "--depth", "2"],
    ]

    def call(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    _build_parser.cache_clear()
    shared = [call(argv) for argv in commands]
    fresh = []
    for argv in commands:
        _build_parser.cache_clear()
        fresh.append(call(argv))
    assert shared == fresh
    assert shared[0][0] == 1 and "must be at least 0" in shared[0][2]
    all_pairs, some_singles = shared[1][1].splitlines(), shared[2][1].splitlines()
    assert all_pairs[0].endswith("mode=all") and "+" in all_pairs[1]
    assert some_singles[0].endswith("mode=some") and "+" not in some_singles[1]
    assert shared[3][0] == 0 and json.loads(shared[3][1])["equivalent"]


# ---------------------------------------------------------- run

def test_run_compiled_model_by_input(capsys, parity_model_file):
    code, data = run_json(
        capsys, ["run", parity_model_file, "--input", "1", "--depth", "2"]
    )
    assert code == 0
    assert not data["truncated"]
    assert [n["id"] for n in data["nodes"]] == [0, 1, 2]
    assert [e["label"] for e in data["edges"]] == [1, 1]


def test_run_plain_model_by_root(capsys, counter_file):
    code, data = run_json(
        capsys, ["run", counter_file, "--root", '{"X": 8}', "--depth", "2"]
    )
    assert code == 0
    assert len(data["nodes"]) == 6
    assert data["nodes"][0]["assign"] == {"X": 8}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["run", "--root", '{"X": 0}', "--depth", "9"], 0),
        (["run", "--root", '{"X": 0}', "--depth", "9", "--node-cap", "300"], 3),
        (["intervene", "--root", '{"X": 1}', "--depth", "9", "--do", "X@2=0,X@4=7"], 0),
        (["intervene", "--root", '{"X": 1}', "--depth", "9", "--do", "X@2=0", "--node-cap", "7"], 3),
        (["intervene", "--root", '{"X": 1}', "--depth", "9", "--rewrite", "X@1(X=2)=5"], 0),
        (["intervene", "--root", '{"X": 1}', "--depth", "9", "--rewrite", "X@1(X=2)=5",
          "--node-cap", "40"], 3),
    ],
    ids=["run", "run-cut", "do", "do-cut", "rewrite", "rewrite-cut"],
)
def test_trees_are_written_without_per_node_lists(
    capsys, tmp_path, counter_file, list_builds, argv, code
):
    """The caps fall inside a level; stdout and --out get the same bytes."""
    argv = [argv[0], counter_file, *argv[1:]]
    assert main(argv) == code
    stdout = capsys.readouterr().out
    out = tmp_path / "tree.json"
    assert main([*argv, "--out", str(out)]) == code
    assert out.read_bytes() == stdout.encode()
    assert json.loads(stdout)["truncated"] == (code == 3)
    assert list_builds == []


def test_labelled_runs_and_accepts_build_no_per_node_lists(capsys, parity_model_file, list_builds):
    assert main(["run", parity_model_file, "--input", "11", "--depth", "6"]) == 0
    assert main(["run", parity_model_file, "--input", "11", "--depth", "6", "--node-cap", "3"]) == 3
    capsys.readouterr()
    code, report = run_json(capsys, ["accepts", parity_model_file, "--input", "11", "--budget", "20"])
    assert (code, report["verdict"]) == (0, "ACCEPT")
    assert list_builds == []


def test_run_requires_some_root(capsys, counter_file):
    assert main(["run", counter_file, "--depth", "2"]) == 1
    assert main(["run", counter_file, "--input", "1", "--depth", "2"]) == 1
    err = capsys.readouterr().err
    assert "--root" in err


def test_out_file_replaces_stdout(capsys, tmp_path, counter_file):
    out = tmp_path / "tree.json"
    code = main(
        ["run", counter_file, "--root", '{"X": 9}', "--depth", "3", "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert len(json.loads(out.read_text())["nodes"]) == 4


def test_node_cap_env_var(capsys, monkeypatch, counter_file):
    monkeypatch.setenv("CAUSAL_CALC_NODE_CAP", "3")
    code, data = run_json(
        capsys, ["run", counter_file, "--root", '{"X": 8}', "--depth", "10"]
    )
    assert code == 3
    assert data["truncated"]
    assert len(data["nodes"]) == 3


def test_node_cap_flag_beats_env(monkeypatch, capsys, counter_file):
    monkeypatch.setenv("CAUSAL_CALC_NODE_CAP", "3")
    code = main(
        [
            "run", counter_file,
            "--root", '{"X": 8}',
            "--depth", "2",
            "--node-cap", "1000",
        ]
    )
    assert code == 0
    monkeypatch.setenv("CAUSAL_CALC_NODE_CAP", "three")
    assert main(["run", counter_file, "--root", '{"X": 8}', "--depth", "2"]) == 1


@pytest.mark.parametrize("cap", ["0", "-2"])
def test_node_cap_below_one_is_a_usage_error(capsys, monkeypatch, counter_file, cap):
    commands = [
        ["run", counter_file, "--root", '{"X": 8}', "--depth", "2"],
        ["cause", counter_file, "--root", '{"X": 0}', "--candidate", "X@0=0",
         "--outcome", "X@1=0"],
    ]
    for argv in commands:
        assert main(argv + ["--node-cap", cap]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: argument --node-cap: must be at least 1")
    monkeypatch.setenv("CAUSAL_CALC_NODE_CAP", cap)
    for argv in commands:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: CAUSAL_CALC_NODE_CAP must be at least 1, got {cap}\n"
    assert main(commands[0] + ["--node-cap", "1"]) == 3


# ---------------------------------------------------------- accepts

def test_accepts_machine_and_model_routes(capsys, parity_file, parity_model_file):
    code, data = run_json(
        capsys,
        ["accepts", parity_file, "--input", "11", "--budget", "30", "--tape-len", "2"],
    )
    assert code == 0 and data["verdict"] == "ACCEPT"
    code, data = run_json(
        capsys, ["accepts", parity_model_file, "--input", "11", "--budget", "30"]
    )
    assert code == 0 and data["verdict"] == "ACCEPT"
    code, data = run_json(
        capsys, ["accepts", parity_model_file, "--input", "1", "--budget", "30"]
    )
    assert data["verdict"] == "REJECT_EXHAUSTED"


@pytest.mark.parametrize("tape_len", ["0", "-1"])
def test_accepts_lba_machine_rejects_tape_len_below_one(capsys, parity_file, tape_len):
    argv = ["accepts", parity_file, "--input", "", "--budget", "5", "--tape-len", tape_len]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: --tape-len must be at least 1" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["accepts", "PARITY_MODEL", "--input", "1111", "--budget", "30", "--tape-len", "4"],
        ["accepts", "PARITY_MODEL", "--input", "11", "--budget", "30", "--tape-len", "-3"],
        ["accepts", "TM", "--input", "01", "--budget", "30", "--tape-len", "0"],
        ["accepts", "TM", "--input", "01", "--budget", "30", "--tape-len", "3"],
        ["compile", "TM", "--tape-len", "-1"],
        ["compile", "TM", "--tape-len", "2"],
    ],
)
def test_tape_len_is_only_for_lba_machine_files(capsys, parity_model_file, tm_file, argv):
    files = {"PARITY_MODEL": parity_model_file, "TM": tm_file}
    assert main([files.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --tape-len applies only to lba machine files\n"


def test_accepts_rejects_plain_models(capsys, counter_file):
    assert main(["accepts", counter_file, "--input", "1", "--budget", "5"]) == 1
    assert "compiled" in capsys.readouterr().err


# ---------------------------------------------------------- bisim

def test_bisim_single_input(capsys, parity_file, parity_model_file):
    code, data = run_json(
        capsys, ["bisim", parity_file, parity_model_file, "--input", "1", "--depth", "6"]
    )
    assert code == 0
    assert data["equivalent"] is True
    assert data["counterexample"] is None


def test_bisim_matrix_table(capsys, tmp_path, parity_file, parity_model_file):
    out = tmp_path / "matrix.json"
    code = main(
        [
            "bisim", parity_file, parity_model_file,
            "--inputs", ",1,11,10",
            "--budget", "30",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("<empty>\t")
    assert lines[-1] == "all_agree\tTrue"
    assert all("\tagree" in line for line in lines[1:-1])
    data = json.loads(out.read_text())
    assert data["all_agree"] and len(data["rows"]) == 4


def test_bisim_input_flags_are_exclusive(capsys, parity_file, parity_model_file):
    assert main(["bisim", parity_file, parity_model_file, "--depth", "3"]) == 1
    assert (
        main(
            [
                "bisim", parity_file, parity_model_file,
                "--input", "1", "--inputs", "1,11",
                "--depth", "3", "--budget", "5",
            ]
        )
        == 1
    )
    assert main(["bisim", parity_file, parity_model_file, "--input", "1"]) == 1
    assert main(["bisim", parity_file, parity_model_file, "--inputs", "1"]) == 1


# ---------------------------------------------------------- intervene

def test_intervene_do(capsys, counter_file):
    code, data = run_json(
        capsys,
        [
            "intervene", counter_file,
            "--root", '{"X": 8}',
            "--depth", "2",
            "--do", "X@1=5",
        ],
    )
    assert code == 0
    assert [n["assign"]["X"] for n in data["nodes"]] == [8, 5, 0, 6]


def test_intervene_rewrite(capsys, constant_one_file):
    code, data = run_json(
        capsys,
        [
            "intervene", constant_one_file,
            "--root", '{"X": 1}',
            "--depth", "6",
            "--rewrite", "X@3(X=1)=0,X@3(X=0)=0",
        ],
    )
    assert code == 0
    assert [n["assign"]["X"] for n in data["nodes"]] == [1, 1, 1, 1, 0, 0, 0]


def test_intervene_needs_exactly_one_mode(capsys, counter_file):
    base = ["intervene", counter_file, "--root", '{"X": 8}', "--depth", "2"]
    assert main(base) == 1
    assert main(base + ["--do", "X@1=5", "--rewrite", "X@1(X=0)=1"]) == 1


def test_intervene_on_a_monolithic_value_with_digit_symbols(capsys, tmp_path, parity_file):
    model = str(tmp_path / "mono.json")
    assert main(["compile", parity_file, "--tape-len", "2", "--monolithic", "--out", model]) == 0
    base = ["--input", "11", "--depth", "1"]
    _, run = run_json(capsys, ["run", model, *base])
    step1 = run["nodes"][1]["assign"]["V"]
    assert step1 == ["even", 1, ">", "1", "1", "<"]  # the tape's 1s are strings
    code, data = run_json(capsys, ["intervene", model, *base, "--do", "V@1=(even,1,>,1,1,<)"])
    assert code == 0
    assert data == run
    for value in ("(even,01,>,1,1,<)", "(even,1,>,1,7,<)", "(even,1,>,1,1)"):
        assert main(["intervene", model, *base, "--do", f"V@1={value}"]) == 2
        assert "OutOfRangeValue" in capsys.readouterr().err


# ---------------------------------------------------------- cause and sweep

def test_cause_query(capsys, counter_file):
    code, data = run_json(
        capsys,
        [
            "cause", counter_file,
            "--root", '{"X": 8}',
            "--candidate", "X@0=8",
            "--outcome", "X@2=9",
        ],
    )
    assert code == 0
    assert data == {
        "is_cause": True,
        "failing_condition": None,
        "witness": {"preventing": {"X@0=8": "0"}, "actual_branch": [0, 2, 5]},
    }


def test_split_actual_flag_changes_the_verdict(capsys, counter_file):
    base = [
        "cause", counter_file,
        "--root", '{"X": 8}',
        "--candidate", "X@1=0",
        "--outcome", "X@2=9",
    ]
    _, strict = run_json(capsys, base)
    assert strict["is_cause"] is False and strict["failing_condition"] == 1
    _, loose = run_json(capsys, base + ["--split-actual"])
    assert loose["is_cause"] is True


def test_sweep_table_and_json(capsys, tmp_path, counter_file):
    out = tmp_path / "sweep.json"
    code = main(
        [
            "sweep", counter_file,
            "--root", '{"X": 8}',
            "--vars", "X",
            "--steps", "0..1",
            "--outcome", "X@2=9",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "baseline\tholds\tmode=some"
    assert lines[-1] == "var\tX\tcritical"
    assert len(lines) == 22  # baseline + 20 rows + the per-variable line
    data = json.loads(out.read_text())
    assert len(data["rows"]) == 20
    assert data["by_var"] == {"X": "critical"}


def test_sweep_truncation_exits_three(capsys, counter_file):
    code = main(
        [
            "sweep", counter_file,
            "--root", '{"X": 9}',
            "--vars", "X",
            "--steps", "0",
            "--outcome", "X@2=9",
            "--node-cap", "6",
        ]
    )
    assert code == 3
    assert "truncated\ttrue" in capsys.readouterr().out


def test_cause_and_sweep_over_whole_configurations_refuse_to_enumerate(
    capsys, tmp_path, abc_spec
):
    spec_file, model = tmp_path / "abc.json", str(tmp_path / "abc_mono.json")
    spec_file.write_text(dumps_canonical(machine_to_json(abc_spec)))
    argv = ["compile", str(spec_file), "--tape-len", "3", "--monolithic", "--out", model]
    assert main(argv) == 0
    outcome = ["--input", "abc", "--outcome", "V@1=(fa,1,>,a,b,c,<)"]
    for argv in (
        ["cause", model, "--candidate", "V@0=(q0,0,>,a,b,c,<)", *outcome],
        ["sweep", model, "--vars", "V", "--steps", "0", *outcome],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: RangeTooLarge: range of size 29160 is not enumerable\n"


# ---------------------------------------------------------- failure modes

def test_exit_codes_for_bad_requests(capsys, tmp_path, counter_file):
    # semantic problem: value outside the variable's range
    assert (
        main(
            [
                "intervene", counter_file,
                "--root", '{"X": 8}',
                "--depth", "2",
                "--do", "X@1=77",
            ]
        )
        == 2
    )
    # syntax problem, reported with its offset
    assert (
        main(
            [
                "intervene", counter_file,
                "--root", '{"X": 8}',
                "--depth", "2",
                "--do", "X@@1=5",
            ]
        )
        == 1
    )
    assert "offset 2" in capsys.readouterr().err

    assert main(["frobnicate", counter_file]) == 1
    assert main(["run", str(tmp_path / "missing.json"), "--depth", "1"]) == 1

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["run", str(garbled), "--depth", "1"]) == 1


def test_defective_model_file_exits_two(capsys, tmp_path, counter):
    data = model_to_json(counter)
    data["equations"]["X"]["table"] = data["equations"]["X"]["table"][1:]
    path = tmp_path / "broken.json"
    path.write_text(dumps_canonical(data))
    assert main(["run", str(path), "--root", '{"X": 8}', "--depth", "1"]) == 2
    assert "MissingRow" in capsys.readouterr().err


# ---------------------------------------------------------- python -m

def test_python_dash_m_runs_the_command(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "causalcalc", "run", "missing.json", "--depth", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "missing.json" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_python_dash_m_runs_the_cli_module(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "causalcalc.cli", "run", "missing.json", "--depth", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "missing.json" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
