"""Command-line interface: argument handling, output, exit codes."""

import json

import numpy as np
import pytest

from chaintomo import cli, eee, harness
from reference_grids import H2_RANK


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


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["reproduce", "--table", "9"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["recover", "--model", "h2"])  # missing --L
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    for tol in ("0", "-1"):
        assert cli.main(["recover", "--model", "h2", "--L", "4", "--q", "1", "--rank-tol", tol]) == 2
    # chain too short for the family, q outside 1..2**L
    for args in (["--model", "h2", "--L", "1"], ["--model", "h2", "--L", "2", "--q", "0"],
                 ["--model", "h2", "--L", "2", "--q", "5"], ["--model", "h2prime", "--L", "2"]):
        assert cli.main(["recover", *args]) == 2, args


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "chaintomo" in capsys.readouterr().out
