"""CLI entry point: subcommands, exit codes, output plumbing."""

import json
import os
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
import yaml

from qmpc.cli import main

REPO = Path(__file__).resolve().parents[1]
LQ_CONFIG = REPO / "configs" / "lq_reinforce.yaml"


def tiny_lq_yaml(tmp_path, **top_overrides):
    raw = {
        "experiment": "lq_reinforce",
        "seed": 5,
        "repetitions": 1,
        "env": {
            "type": "lq",
            "A": [[0.9]], "B": [[1.0]], "Qc": [[1.0]], "Rc": [[1.0]],
            "noise_std": [0.0], "x0_lo": [-0.5], "x0_hi": [0.5],
        },
        "ocp": {"H": 2, "gamma": 0.9, "model_perturbation": 0.1},
        "learner": {"alpha": 0.01, "iterations": 1, "episodes": 2, "T": 5,
                    "sigma0": 0.2},
    }
    raw.update(top_overrides)
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def test_validate_accepts_shipped_configs(capsys):
    assert main(["validate", "--config", str(LQ_CONFIG)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_rejects_missing_file(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "absent.yaml")]) == 2
    assert "config error" in capsys.readouterr().err


def test_validate_rejects_bad_schema(tmp_path, capsys):
    for overrides, named in [({"repetitions": 0}, "repetitions"),
                             ({"solver": {"max_sqp_iters": "50"}}, "solver.max_sqp_iters")]:
        cfg = tiny_lq_yaml(tmp_path, **overrides)
        assert main(["validate", "--config", str(cfg)]) == 2
        assert named in capsys.readouterr().err


def test_validate_rejects_oracle_suite_config(tmp_path, capsys):
    # the oracle suite runs from its own subcommand, not from a config
    cfg = tmp_path / "oracle.yaml"
    cfg.write_text(yaml.safe_dump({"experiment": "oracle_suite", "seed": 0}))
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "experiment must be one of" in capsys.readouterr().err


def test_run_with_every_repetition_flagged_exits_numeric(tmp_path, capsys, monkeypatch):
    from qmpc import harness
    from qmpc.errors import NonConvergenceError

    def always_fails(*args, **kwargs):
        raise NonConvergenceError("forced failure")

    monkeypatch.setattr(harness, "reinforce_gradient", always_fails)
    cfg = tiny_lq_yaml(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "repetitions flagged" in capsys.readouterr().err


def test_run_without_output_directory(tmp_path, capsys):
    cfg = tiny_lq_yaml(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 2
    assert "output directory" in capsys.readouterr().err


def test_run_tiny_experiment_writes_outputs(tmp_path, capsys):
    cfg = tiny_lq_yaml(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["experiment"] == "lq_reinforce"
    assert (out / "metrics.csv").exists()
    assert (out / "curves.csv").exists()
    on_disk = json.loads((out / "summary.json").read_text())
    assert on_disk == printed


def test_run_reps_override(tmp_path, capsys):
    cfg = tiny_lq_yaml(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--reps", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["repetitions"] == 2
    assert main(["run", "--config", str(cfg), "--out", str(out), "--reps", "0"]) == 2


def test_oracle_suite_passes(tmp_path, capsys):
    out = tmp_path / "oracle"
    assert main(["oracle-suite", "--out", str(out), "--seed", "0"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["passed"] is True
    assert summary["value_iteration_max_residual"] <= 1e-8
    assert summary["sensitivity_max_fd_deviation"] <= 1e-4
    assert json.loads((out / "summary.json").read_text()) == summary


def checkout_env(bin_dir=None):
    """Environment for a subprocess that must run this checkout's `qmpc`.

    `REPO/src` goes first on PYTHONPATH, and `bin_dir` (if given) first on
    PATH, so that no installed copy of the package or its script shadows it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    if bin_dir is not None:
        env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
    return env


def write_console_script(bin_dir, ep):
    """Write the launcher an installer generates for a console-script entry point."""
    bin_dir.mkdir()
    script = bin_dir / ep.name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({ep.attr}())\n"
    )
    script.chmod(0o755)


def test_installed_entry_point_smoke(tmp_path):
    # The console command as this checkout's pyproject.toml declares it, run
    # by name through the launcher an install would write. Packaging the
    # script itself (the build backend) is not exercised here.
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]["scripts"]
    ep = EntryPoint(name="qmpc", value=scripts["qmpc"], group="console_scripts")
    assert callable(ep.load())
    bin_dir = tmp_path / "bin"
    write_console_script(bin_dir, ep)
    proc = subprocess.run(
        ["qmpc", "validate", "--config", str(LQ_CONFIG)],
        capture_output=True, text=True, timeout=120, env=checkout_env(bin_dir),
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout


def test_import_leaves_scipy_optimize_unloaded():
    # the QP's phase 1 imports scipy.optimize's linprog at its first call
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qmpc, qmpc.qp; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')), "
         "'linprog' in vars(qmpc.qp))"],
        capture_output=True, text=True, timeout=120, env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "True"]


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "qmpc.cli", "validate", "--config", str(LQ_CONFIG)],
        capture_output=True, text=True, timeout=120, env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
