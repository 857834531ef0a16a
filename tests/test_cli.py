"""Command-line interface: argument handling, output, exit codes."""

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chaintomo import cli, eee, harness, ranks, spectral
from reference_grids import H2_RANK

README = Path(__file__).resolve().parents[1] / "README.md"


def test_recover_prints_json_report(capsys):
    code = cli.main([
        "recover", "--model", "h2", "--L", "3", "--q", "2", "--seed", "0",
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["model"] == "h2"
    assert result["hoe"]["rank"] == 26
    assert result["eee"]["rank"] == 28
    assert result["relations"]["rank_relation_ok"] is True


def test_recover_single_method(capsys):
    code = cli.main(["recover", "--model", "h2", "--L", "2", "--methods", "hoe"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert "eee" not in result
    assert result["hoe"]["unique"] is False


def test_critical_length_single(capsys):
    assert cli.main(["critical-length", "--model", "h2", "--q", "1"]) == 0
    assert capsys.readouterr().out == "model=h2 q=1 L_c=5\n"
    assert cli.main(["critical-length", "--model", "h2", "--q", "1", "3"]) == 0
    assert capsys.readouterr().out == "model=h2 q=1 L_c=5\nmodel=h2 q=3 L_c=3\n"


def test_critical_length_grid(capsys):
    assert cli.main(["critical-length", "--model", "h2prime"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "model=h2prime q=1 L_c=6",
        "model=h2prime q=2 L_c=4",
        "model=h2prime q=3 L_c=3",
        "model=h2prime q=4 L_c=3",
        "model=h2prime q=5 L_c=3",
        "model=h2prime q=6 L_c=3",
    ]


def test_rank_scan_agrees_with_closed_form(capsys):
    code = cli.main([
        "rank-scan", "--model", "h2", "--L-min", "2", "--L-max", "3",
        "--q", "1", "2", "--trials", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 + 4
    assert all(line.endswith("yes") for line in out[1:])


def test_rank_scan_departure_from_the_closed_form_exits_four(capsys, monkeypatch):
    predict = ranks.predict_ranks
    monkeypatch.setattr(ranks, "predict_ranks", lambda *args: dataclasses.replace(predict(*args), r=0))
    assert cli.main(["rank-scan", "--model", "h2", "--L-min", "2", "--L-max", "2", "--q", "1"]) == 4
    out, err = capsys.readouterr()
    assert out.splitlines()[1] == "  2   1    15     6       0        7             7   NO"
    assert "measured ranks deviate from the closed form" in err


RANK_SCAN_HEADER = "  L   q     N     r  r_pred  r_prime  r_prime_pred   ok\n"


def _verbose_scan(*args):
    """stdout of ``chaintomo -v rank-scan ARGS`` and the cells its progress lines name, from a fresh process."""
    out = subprocess.run([sys.executable, "-m", "chaintomo.cli", "-v", "rank-scan", *args], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    running = re.findall(r"running model=\w+ L=(\d+) q=(\d+)", out.stderr)
    return out.stdout, [(int(L), int(q)) for L, q in running]


def test_rank_scan_readme_grid_output():
    out, running = _verbose_scan("--model", "h2prime", "--L-min", "3", "--L-max", "5", "--q", "1", "2", "3")
    assert out == RANK_SCAN_HEADER + (
        "  3   1    36    14      14       15            15  yes\n"
        "  3   2    36    26      26       28            28  yes\n"
        "  3   3    36    34      34       37            37  yes\n"
        "  4   1    57    30      30       31            31  yes\n"
        "  4   2    57    56      56       58            58  yes\n"
        "  4   3    57    56      56       59            59  yes\n"
        "  5   1    78    62      62       63            63  yes\n"
        "  5   2    78    76      76       79            79  yes\n"
        "  5   3    78    76      76       80            80  yes\n"
    )
    # -v logs each swept cell once, through the sweep loop
    assert running == [(L, q) for L in (3, 4, 5) for q in (1, 2, 3)]


def test_rank_scan_skips_cells_above_the_dimension():
    out, running = _verbose_scan("--model", "h2", "--L-min", "2", "--L-max", "3", "--q", "4", "5", "6")
    assert out == RANK_SCAN_HEADER + (
        "  2   4    15    12      12       16            16  yes\n"
        "  2   5 skipped: q exceeds the Hilbert dimension 4\n"
        "  2   6 skipped: q exceeds the Hilbert dimension 4\n"
        "  3   4    27    26      26       30            30  yes\n"
        "  3   5    27    26      26       31            31  yes\n"
        "  3   6    27    26      26       32            32  yes\n"
    )
    # a skipped cell runs no trial and logs no progress
    assert running == [(2, 4), (3, 4), (3, 5), (3, 6)]
    # a grid with no cell left, a bad q or a chain too short are still usage errors
    for args in (["--model", "h2", "--L-min", "2", "--L-max", "2", "--q", "5"],
                 ["--model", "h2", "--L-min", "2", "--L-max", "3", "--q", "0", "5"],
                 ["--model", "h2prime", "--L-min", "2", "--L-max", "3", "--q", "5"],
                 ["--model", "h2", "--L-min", "2", "--L-max", "3", "--q", "2", "2"],
                 ["--model", "h2", "--L-min", "2", "--L-max", "3", "--q", "5", "5"],
                 ["--model", "h2", "--L-min", "2", "--L-max", "6", "--q", "2", "50"],
                 ["--model", "h2", "--L-min", "4", "--L-max", "3", "--q", "1"]):
        assert cli.main(["rank-scan", *args]) == 2, args


def test_reproduce_analytic_table(tmp_path, capsys):
    code = cli.main(["reproduce", "--table", "5", "--out-dir", str(tmp_path)])
    assert code == 0
    assert "h2prime" in capsys.readouterr().out
    assert (tmp_path / "table5.txt").exists()
    assert (tmp_path / "table5.csv").exists()


def test_reproduce_simulated_table(tmp_path, capsys):
    code = cli.main([
        "reproduce", "--table", "1", "--trials", "1", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "table1.csv").read_text().splitlines()
    assert lines[0] == "L,N,r_q1,gap_q1,r_q2,gap_q2,r_q3,gap_q3"
    for line in lines[1:]:
        cells = [int(v) for v in line.split(",")]
        L, n = cells[0], cells[1]
        for slot, q in enumerate((1, 2, 3)):
            assert cells[2 + 2 * slot] == H2_RANK[(L, q)]
            assert cells[3 + 2 * slot] == n - 1 - H2_RANK[(L, q)]
    assert (tmp_path / "trials.csv").exists()


def test_run_with_config_and_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": "h2", "L_range": [2, 2], "q_list": [1], "trials": 3,
        "out_dir": str(tmp_path / "never_used"),
    }))
    out_dir = tmp_path / "out"
    code = cli.main([
        "run", "--config", str(cfg_path), "--trials", "2", "--out-dir", str(out_dir),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "model=h2 L=2 q=1 method=hoe rank=6" in out
    assert (out_dir / "trials.csv").exists()
    assert not (tmp_path / "never_used").exists()
    with open(out_dir / "trials.csv") as fh:
        assert len(fh.readlines()) == 1 + 2


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "h2", "L_range": [2, 2], "budget": 7}))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("trials", 2.5), ("workers", 1.5), ("trials", "3"), ("workers", "2"),
    ("rank_tol", "1e-10"), ("success_threshold", None),
    # a repeated q or method would run and count every trial of it twice
    ("q_list", [2, 2]), ("methods", ["hoe", "hoe"]),
    # JSON true is a bool and Infinity a float: neither is a count or a tolerance
    ("trials", True), ("q_list", [True]), ("seed", False), ("workers", True),
    ("rank_tol", True), ("rank_tol", float("inf")), ("success_threshold", float("inf")),
    # a rank cut at or above sigma_0 keeps nothing
    ("rank_tol", 1), ("rank_tol", 2.0),
])
def test_run_rejects_bad_config_values(tmp_path, capsys, key, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "h2", "L_range": [2, 2], "q_list": [1], "trials": 1,
                                    "out_dir": str(tmp_path / "out"), key: value}))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_output_file_taken_by_a_directory_exits_two_before_any_trial(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "h2", "L_range": [2, 3], "q_list": [1], "trials": 1}))
    out_dir = tmp_path / "out"
    (out_dir / "aggregate.json").mkdir(parents=True)
    assert cli.main(["run", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 2
    assert "aggregate.json" in capsys.readouterr().err
    assert not (out_dir / "trials.csv").exists()


@pytest.mark.parametrize("args,taken", [
    (["--table", "1"], "table1.csv"),
    (["--table", "5"], "table5.txt"),
    (["--figure", "2"], "figure2_h3table_q3.csv"),
    (["--figure", "1"], "h3table/trials.csv"),
])
def test_reproduce_output_file_taken_by_a_directory_exits_two_before_any_trial(tmp_path, capsys, args, taken):
    (tmp_path / taken).mkdir(parents=True)
    assert cli.main(["reproduce", *args, "--trials", "1", "--out-dir", str(tmp_path)]) == 2
    assert taken.split("/")[-1] in capsys.readouterr().err
    assert not [path for path in tmp_path.rglob("trials.csv") if path.is_file()]


def test_run_missing_config_file(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_for_incomplete_grid(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise harness.IncompleteGridError("missing cells")

    monkeypatch.setattr(harness, "reproduce_table", boom)
    assert cli.main(["reproduce", "--table", "1", "--out-dir", str(tmp_path)]) == 3


def test_exit_code_for_numerical_failure(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise harness.NumericalFailureError("ranks deviate")

    monkeypatch.setattr(harness, "reproduce_table", boom)
    assert cli.main(["reproduce", "--table", "1", "--out-dir", str(tmp_path)]) == 4
    assert "ranks deviate" in capsys.readouterr().err

    # where a draw only rarely succeeds, the command still ends without a traceback
    assert cli.main(["recover", "--model", "h2", "--L", "6", "--q", "24", "--methods", "hoe"]) in (0, 4)

    # a failed factorization names the instance, from recover and from a sweep
    def failing_joint_route(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(eee, "recover", failing_joint_route)
    assert cli.main(["recover", "--model", "h2", "--L", "3", "--q", "2", "--seed", "4"]) == 4
    assert "model=h2 L=3 q=2 seed=4: SVD did not converge" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "h2", "L_range": [3, 3], "q_list": [2], "trials": 1}))
    assert cli.main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 4
    assert "model=h2 L=3 q=2 trial=0: SVD did not converge" in capsys.readouterr().err

    # so does a failed eigensolve while the instance is drawn
    def failing_eigensolve(*args, **kwargs):
        raise np.linalg.LinAlgError("shifted matrix exactly singular")

    monkeypatch.setattr(spectral, "_picked_eigenvectors", failing_eigensolve)
    assert cli.main(["recover", "--model", "h2", "--L", "3", "--q", "2", "--seed", "4"]) == 4
    assert "model=h2 L=3 q=2 seed=4: shifted matrix exactly singular" in capsys.readouterr().err
    assert cli.main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 4
    assert "model=h2 L=3 q=2 trial=0: shifted matrix exactly singular" in capsys.readouterr().err
    # and a failed Lanczos run, which from L = 8 draws a lowest-energy state
    def failing_lanczos(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(spectral, "_lanczos", failing_lanczos)
    assert cli.main(["recover", "--model", "h2", "--L", "8", "--q", "2", "--seed", "4"]) == 4
    assert "model=h2 L=8 q=2 seed=4: Eigenvalues did not converge" in capsys.readouterr().err


def test_out_of_memory_exits_two(tmp_path, monkeypatch, capsys):
    # a chain too long for the dense path is a usage error; the allocation
    # is faked, as a real one may succeed lazily and be killed later
    def too_long(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 TiB for an array with shape (1048576, 1048576)")

    monkeypatch.setattr(harness, "draw_instance", too_long)
    assert cli.main(["recover", "--model", "h2", "--L", "20", "--q", "1"]) == 2
    assert capsys.readouterr().err == ("error: out of memory: Unable to allocate 16.0 TiB for an array "
                                       "with shape (1048576, 1048576)\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "h2", "L_range": [20, 20], "q_list": [1], "trials": 1}))
    assert cli.main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: out of memory: Unable to allocate 16.0 TiB")
    assert not (tmp_path / "out" / "trials.csv").exists()


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["reproduce", "--table", "9"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["recover", "--model", "h2"])  # missing --L
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    for tol in ("0", "-1", "inf", "1", "2"):
        assert cli.main(["recover", "--model", "h2", "--L", "4", "--q", "1", "--rank-tol", tol]) == 2
    # chain too short for the family, q outside 1..2**L
    for args in (["--model", "h2", "--L", "1"], ["--model", "h2", "--L", "2", "--q", "0"],
                 ["--model", "h2", "--L", "2", "--q", "5"], ["--model", "h2prime", "--L", "2"]):
        assert cli.main(["recover", *args]) == 2, args
    # q(q - 1)/2 * MIN_PROB_GAP > 1 leaves no well-separated probabilities
    # to draw, which fails before any Hamiltonian is drawn
    assert cli.main(["recover", "--model", "h2", "--L", "6", "--q", "50"]) == 2
    assert "q=50" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "h2", "L_range": [6, 6], "q_list": [50], "trials": 1}))
    assert cli.main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "q=50" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # an output directory that cannot be made: an existing file, or a path below one
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg_path.write_text(json.dumps({"model": "h2", "L_range": [2, 2], "q_list": [1], "trials": 1}))
    for argv in (["run", "--config", str(cfg_path), "--out-dir", str(blocker)],
                 ["run", "--config", str(cfg_path), "--out-dir", str(blocker / "sub")],
                 ["reproduce", "--table", "5", "--out-dir", str(blocker / "sub")],
                 ["reproduce", "--table", "1", "--trials", "1", "--out-dir", str(blocker)],
                 ["reproduce", "--figure", "1", "--trials", "1", "--out-dir", str(blocker)]):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: cannot create output directory "), argv
    # a q below 1 anywhere in the list fails before any line is printed
    for qs in (["0"], ["2", "-3"]):
        capsys.readouterr()
        assert cli.main(["critical-length", "--model", "h2", "--q", *qs]) == 2, qs
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")


def test_readme_command_lines_parse():
    block = README.read_text().split("\n## Command line\n", 1)[1].split("```\n", 2)[1]
    # a command line may set environment variables before the command
    lines = [re.sub(r"^(\w+=\S* )+", "", line) for line in block.splitlines()]
    lines = [line for line in lines if line.startswith("chaintomo ")]
    assert len(lines) == 7
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "chaintomo" in capsys.readouterr().out
