"""Strict experiment-config parsing: schema errors must fail loudly."""

from pathlib import Path

import pytest
import yaml

from qmpc.config import load_config, parse_config
from qmpc.envs import CSTRConfig, LQEnvConfig
from qmpc.errors import ConfigError
from qmpc.solver import SolverSettings

REPO = Path(__file__).resolve().parents[1]


def lq_raw():
    return {
        "experiment": "lq_reinforce",
        "seed": 1,
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
        "ocp": {"H": 10, "gamma": 0.9},
        "learner": {
            "alpha": 0.01, "iterations": 5, "episodes": 4, "T": 20, "sigma0": 0.2,
        },
    }


def cstr_raw():
    cfg = load_config(REPO / "configs" / "cstr_vfmpc.yaml")
    # round-trip through the shipped file keeps this fixture honest
    assert isinstance(cfg.env, CSTRConfig)
    return yaml.safe_load((REPO / "configs" / "cstr_vfmpc.yaml").read_text())


# ---------------------------------------------------------------------------
# shipped configs


def test_shipped_lq_config_parses():
    cfg = load_config(REPO / "configs" / "lq_reinforce.yaml")
    assert cfg.experiment == "lq_reinforce"
    assert isinstance(cfg.env, LQEnvConfig)
    assert cfg.ocp.H >= 1
    assert cfg.learner.iterations >= 1
    assert cfg.repetitions >= 20  # the mismatch study needs real replication


def test_shipped_cstr_config_parses():
    cfg = load_config(REPO / "configs" / "cstr_vfmpc.yaml")
    assert cfg.experiment == "cstr_vfmpc"
    assert isinstance(cfg.env, CSTRConfig)
    assert cfg.training.rounds >= 1
    assert cfg.evaluation.x0.shape == (4,)
    assert 0.0 < cfg.ocp.gamma < 1.0


# ---------------------------------------------------------------------------
# schema strictness


def test_unknown_top_level_key():
    raw = lq_raw()
    raw["learning_rate"] = 0.1
    with pytest.raises(ConfigError, match="unknown keys.*learning_rate"):
        parse_config(raw)


def test_unknown_section_key():
    raw = lq_raw()
    raw["learner"]["alhpa"] = 0.1
    with pytest.raises(ConfigError, match="learner: unknown keys.*alhpa"):
        parse_config(raw)


@pytest.mark.parametrize("key", ["batch", "perturbation_scale"])
def test_learner_rejects_unread_keys(key):
    raw = lq_raw()
    raw["learner"][key] = 1
    with pytest.raises(ConfigError, match=f"learner: unknown keys.*{key}"):
        parse_config(raw)


def test_missing_required_key():
    raw = lq_raw()
    del raw["learner"]["sigma0"]
    with pytest.raises(ConfigError, match="learner: missing keys.*sigma0"):
        parse_config(raw)


def test_unknown_experiment():
    raw = lq_raw()
    raw["experiment"] = "ppo"
    with pytest.raises(ConfigError, match="experiment must be one of"):
        parse_config(raw)


def test_sections_must_match_experiment():
    raw = lq_raw()
    raw["training"] = {"rounds": 1, "episodes": 1, "T": 1, "action_grid": 3,
                       "rmse_threshold": 10.0}
    with pytest.raises(ConfigError, match="needs sections"):
        parse_config(raw)


def test_env_type_must_match_experiment():
    raw = lq_raw()
    raw["env"]["type"] = "cstr"
    with pytest.raises(ConfigError, match="env.type must be 'lq'"):
        parse_config(raw)


def test_value_range_checks():
    raw = lq_raw()
    raw["ocp"]["gamma"] = 1.2
    with pytest.raises(ConfigError, match="gamma must be in"):
        parse_config(raw)
    raw = lq_raw()
    raw["ocp"]["H"] = 0
    with pytest.raises(ConfigError, match="H must be >= 1"):
        parse_config(raw)
    raw = lq_raw()
    raw["learner"]["alpha"] = 0.0
    with pytest.raises(ConfigError, match="alpha.*positive"):
        parse_config(raw)
    raw = lq_raw()
    raw["repetitions"] = 0
    with pytest.raises(ConfigError, match="repetitions"):
        parse_config(raw)
    raw = lq_raw()
    raw["solver"] = {"max_sqp_iters": -1}
    with pytest.raises(ConfigError, match="solver: max_sqp_iters must be >= 0"):
        parse_config(raw)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("ocp", "H", 5.9),
        (None, "seed", 1.9),
        ("ocp", "discount_in_horizon", "false"),
        ("learner", "iterations", True),
        ("training", "action_grid", 3.5),
        ("solver", "max_sqp_iters", "50"),
    ],
)
def test_values_of_the_wrong_kind(section, key, value):
    raw = cstr_raw() if section == "training" else lq_raw()
    if section is None:
        raw[key] = value
    else:
        raw.setdefault(section, {})[key] = value
    where = key if section is None else f"{section}.{key}"
    with pytest.raises(ConfigError, match=rf"^{where}: expected"):
        parse_config(raw)


def test_float_written_without_a_dot_loads_as_a_number(tmp_path):
    # YAML 1.1 reads 2e-2 as a string; the loader reads it as YAML 1.2 does
    raw = lq_raw()
    raw["learner"]["sigma_min"] = "SIGMA"
    p = tmp_path / "exp.yaml"
    p.write_text(yaml.safe_dump(raw).replace("SIGMA", "2e-2"))
    assert load_config(p).learner.sigma_min == 0.02


def test_non_numeric_array_entry():
    raw = lq_raw()
    raw["env"]["noise_std"] = ["tiny", 0.01]
    with pytest.raises(ConfigError, match="env.noise_std: not numeric"):
        parse_config(raw)


def test_env_validation_errors_carry_section():
    raw = lq_raw()
    raw["env"]["x0_lo"] = [1.0, 1.0]
    raw["env"]["x0_hi"] = [-1.0, -1.0]
    with pytest.raises(ConfigError, match="env: empty initial-state box"):
        parse_config(raw)


def test_cstr_ode_params_must_be_numbers():
    raw = cstr_raw()
    raw["env"]["ode_params"]["rho"] = "heavy"
    with pytest.raises(ConfigError, match="ode_params"):
        parse_config(raw)


def test_cstr_training_ranges():
    raw = cstr_raw()
    raw["training"]["action_grid"] = 1
    with pytest.raises(ConfigError, match="action_grid"):
        parse_config(raw)
    raw = cstr_raw()
    raw["training"]["epsilon"] = 1.5
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config(raw)
    raw = cstr_raw()
    raw["evaluation"]["default_terminal_scale"] = -1.0
    with pytest.raises(ConfigError, match="scale >= 0"):
        parse_config(raw)


def test_solver_section_lands_in_settings():
    raw = lq_raw()
    raw["solver"] = {"kkt_tol": 1e-6, "max_sqp_iters": 7}
    cfg = parse_config(raw)
    assert cfg.solver.kkt_tol == 1e-6
    assert cfg.solver.max_sqp_iters == 7
    assert cfg.solver.max_qp_pivots == SolverSettings().max_qp_pivots
    raw["solver"] = {"pivot_budget": 3}
    with pytest.raises(ConfigError, match="solver"):
        parse_config(raw)
    # the last three are module constants of the solver, not settings
    for key in ("kkt_tolerance", "sigma0", "armijo_c1", "rho_factor"):
        raw["solver"] = {key: 1e-6}
        with pytest.raises(ConfigError, match="solver: unknown keys"):
            parse_config(raw)


def test_learner_sigma_schedule_round_trip():
    raw = lq_raw()
    raw["learner"].update({"sigma_decay": 0.5, "sigma_min": 0.05})
    cfg = parse_config(raw)
    assert cfg.learner.sigma_at(0) == 0.2
    assert cfg.learner.sigma_at(1) == 0.1
    assert cfg.learner.sigma_at(10) == 0.05


def test_out_dir_type():
    raw = lq_raw()
    raw["out_dir"] = 7
    with pytest.raises(ConfigError, match="out_dir"):
        parse_config(raw)


# ---------------------------------------------------------------------------
# file loading


def test_load_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "nope.yaml")


def test_load_invalid_yaml(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("experiment: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(p)


def test_load_non_mapping(tmp_path):
    p = tmp_path / "list.yaml"
    p.write_text("- a\n- b\n")
    with pytest.raises(ConfigError, match="mapping at top level"):
        load_config(p)
