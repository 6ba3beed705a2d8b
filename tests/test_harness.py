"""Experiment drivers: metrics files, seeding, value training, LQ study."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from qmpc.config import TrainingSection, parse_config
from qmpc.errors import DimensionError, QmpcError
from qmpc.harness import (
    GreedyValuePolicy,
    MetricsRow,
    _action_grid,
    default_terminal_weights,
    frobenius_mismatch,
    greedy_value_action,
    run_lq_reinforce,
    run_oracle_suite,
    seed_int,
    train_value_model,
    write_outputs,
)
from qmpc.rl import ValueModel
from tests.conftest import make_cstr_config


# ---------------------------------------------------------------------------
# small helpers


def _csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_frobenius_mismatch():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert frobenius_mismatch(M, M) == 0.0
    assert frobenius_mismatch(M + 1.0, M) == pytest.approx(2.0)  # sqrt(4*1)
    assert frobenius_mismatch(M, M.T) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(DimensionError):
        frobenius_mismatch(M, np.eye(3))


def test_seed_int_is_deterministic_and_sensitive():
    assert seed_int(3, 1, 4) == seed_int(3, 1, 4)
    assert seed_int(3, 1, 4) != seed_int(3, 1, 5)
    assert seed_int(0) != seed_int(1)


# ---------------------------------------------------------------------------
# metrics files


def test_metrics_header_and_round_trip(tmp_path):
    rows = [
        MetricsRow(run_id=0, episode_index=0, J_hat=-1.25, stderr=0.5,
                   frob_A=0.1, frob_B=0.2, wall_time=3.0),
        MetricsRow(run_id=0, episode_index=1, J_hat=-0.7503814412398,
                   stderr=0.25, frob_A=0.05, frob_B=0.1, wall_time=2.0),
        MetricsRow(run_id=1, episode_index=0, violation_count=3),
    ]
    write_outputs(rows, tmp_path, {"answer": 42})
    text = (tmp_path / "metrics.csv").read_text().splitlines()
    assert text[0] == "run_id,episode_index,J_hat,stderr,frob_A,frob_B,td_loss,violation_count,wall_time"
    assert len(text) == 4
    back = _csv_rows(tmp_path / "metrics.csv")
    assert float(back[1]["J_hat"]) == -0.7503814412398  # repr round-trips exactly
    assert back[0]["td_loss"] == ""
    assert float(back[2]["violation_count"]) == 3.0
    assert json.loads((tmp_path / "summary.json").read_text()) == {"answer": 42}


def test_curves_aggregate_over_runs(tmp_path):
    rows = [
        MetricsRow(run_id=0, episode_index=0, J_hat=-2.0, frob_A=1.0),
        MetricsRow(run_id=1, episode_index=0, J_hat=-4.0, frob_A=3.0),
        MetricsRow(run_id=0, episode_index=1, J_hat=-1.0),
    ]
    write_outputs(rows, tmp_path, {})
    lines = (tmp_path / "curves.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["episode_index", "J_hat_mean", "J_hat_std"]
    ep0 = dict(zip(header, lines[1].split(",")))
    assert float(ep0["J_hat_mean"]) == -3.0
    assert float(ep0["J_hat_std"]) == pytest.approx(np.std([-2.0, -4.0], ddof=1))
    assert float(ep0["frob_A_mean"]) == 2.0
    ep1 = dict(zip(header, lines[2].split(",")))
    assert ep1["frob_A_mean"] == ""  # nothing logged for that field


# ---------------------------------------------------------------------------
# terminal-cost encoding


def test_default_terminal_weights_encode_tracking_penalty():
    scale, sp = 4.0, 0.9
    w = default_terminal_weights(scale, sp)
    model = ValueModel(n=4, weights=w)
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = rng.uniform([0.1, 0.3, 100.0, 100.0], [2.5, 1.0, 150.0, 150.0])
        assert model.value(s) == pytest.approx(-scale * (s[1] - sp) ** 2, abs=1e-9)


# ---------------------------------------------------------------------------
# greedy value policy


def test_greedy_action_chases_the_value_model():
    cfg = make_cstr_config(w_move=[0.0, 0.0])
    # value = T_K: the hottest jacket wins, so pick the least heat removal
    vmodel = ValueModel(n=4, weights=np.concatenate([[0.0, 0, 0, 0, 1.0], np.zeros(10)]))
    grid = _action_grid(cfg, 3)
    a = greedy_value_action(cfg, vmodel, np.array([0.8, 0.5, 135.0, 125.0]),
                            cfg.reference_input, grid, 0.98)
    assert a[1] == 0.0
    assert any(np.array_equal(a, g) for g in grid)


def test_greedy_policy_threads_and_resets_a_prev():
    cfg = make_cstr_config()
    vmodel = ValueModel(n=4, weights=np.zeros(15))
    policy = GreedyValuePolicy(cfg, vmodel, _action_grid(cfg, 3), 0.98)
    np.testing.assert_array_equal(policy._a_prev, cfg.reference_input)
    a1 = policy(np.array([0.8, 0.5, 135.0, 125.0]))
    np.testing.assert_array_equal(policy._a_prev, a1)
    policy.reset()
    np.testing.assert_array_equal(policy._a_prev, cfg.reference_input)


# ---------------------------------------------------------------------------
# value training


def tiny_training(**over):
    base = dict(rounds=2, episodes=2, T=5, action_grid=3, rmse_threshold=1e9,
                epsilon=0.2)
    base.update(over)
    return TrainingSection(**base)


def test_train_value_model_reports_rounds():
    cfg = make_cstr_config()
    vmodel, info = train_value_model(cfg, 0.98, tiny_training(), seed=3)
    assert len(info["rounds"]) == 2
    assert info["rmse"] == vmodel.rmse
    assert np.isfinite(vmodel.value(np.array([0.8, 0.5, 130.0, 130.0])))


def test_train_value_model_aborts_on_bad_fit():
    cfg = make_cstr_config()
    with pytest.raises(QmpcError, match="RMSE.*exceeds threshold"):
        train_value_model(cfg, 0.98, tiny_training(rmse_threshold=1e-12), seed=3)


# ---------------------------------------------------------------------------
# LQ policy-gradient study (miniature run)


def tiny_lq_config(seed=11):
    return parse_config({
        "experiment": "lq_reinforce",
        "seed": seed,
        "repetitions": 2,
        "env": {
            "type": "lq",
            "A": [[0.95, 0.2], [0.0, 0.9]],
            "B": [[0.1], [1.0]],
            "Qc": [[1.0, 0.0], [0.0, 1.0]],
            "Rc": [[1.0]],
            "noise_std": [0.01, 0.01],
            "x0_lo": [-0.5, -0.5],
            "x0_hi": [0.5, 0.5],
        },
        "ocp": {"H": 3, "gamma": 0.9, "model_perturbation": 0.15},
        "learner": {"alpha": 0.01, "iterations": 1, "episodes": 2, "T": 10,
                    "sigma0": 0.2},
    })


def test_lq_study_rows_and_initial_mismatch(tmp_path):
    cfg = tiny_lq_config()
    summary = run_lq_reinforce(cfg, tmp_path)
    rows = _csv_rows(tmp_path / "metrics.csv")
    # one measurement row per iteration plus the final measurement, per run
    assert len(rows) == 2 * (1 + 1)
    for key in ("J_star", "gap_initial", "gap_final", "gap_closure",
                "frob_A_final_mean", "flagged_runs"):
        assert key in summary
    # episode 0 logs the seeded pre-update perturbation distance exactly
    A = np.array([[0.95, 0.2], [0.0, 0.9]])
    B = np.array([[0.1], [1.0]])
    for rep in (0, 1):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, rep, 1]))
        dA = 0.15 * rng.standard_normal((2, 2))
        dB = 0.15 * rng.standard_normal((2, 1))
        row = next(r for r in rows if (r["run_id"], r["episode_index"]) == (str(rep), "0"))
        assert float(row["frob_A"]) == pytest.approx(np.sqrt(np.sum(dA**2)), abs=1e-12)
        assert float(row["frob_B"]) == pytest.approx(np.sqrt(np.sum(dB**2)), abs=1e-12)
    curves = (tmp_path / "curves.csv").read_text().splitlines()
    assert len(curves) == 3  # header + two episode indices


def test_lq_study_reruns_identically(tmp_path):
    dir1, dir2 = tmp_path / "a", tmp_path / "b"
    run_lq_reinforce(tiny_lq_config(), dir1)
    run_lq_reinforce(tiny_lq_config(), dir2)

    def strip_wall(path):
        lines = Path(path, "metrics.csv").read_text().splitlines()
        return ["," .join(line.split(",")[:-1]) for line in lines]

    assert strip_wall(dir1) == strip_wall(dir2)
    assert (dir1 / "curves.csv").read_text() == (dir2 / "curves.csv").read_text()


# ---------------------------------------------------------------------------
# oracle suite


def test_oracle_suite_redraws_unsolvable_lq_instances(tmp_path, caplog):
    # seed 10 draws an LQ instance with no stabilizing Riccati solution
    with caplog.at_level("INFO", logger="qmpc.harness"):
        summary = run_oracle_suite(tmp_path, seed=10)
    assert "LQ draw 1 not solvable, redrawing" in caplog.text
    assert summary["riccati_max_residual"] <= 1e-8


@pytest.mark.parametrize("seed", [22, 24])
def test_oracle_suite_differences_measure_the_sensitivity(tmp_path, seed):
    # at these seeds the base point with its multipliers already meets the
    # tolerance at some perturbed parameters; a perturbed solve that returned
    # it at iteration 0 would make the central difference read zero against
    # a nonzero sensitivity
    summary = run_oracle_suite(tmp_path, seed=seed)
    assert summary["sensitivity_max_fd_deviation"] <= 1e-4
    assert summary["passed"]
