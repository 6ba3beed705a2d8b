"""Experiment configuration: strict YAML schema -> typed sections.

Every mapping is checked for unknown keys so config typos fail loudly instead
of silently running a default.  All validation problems raise ConfigError with
the offending section path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .envs import CSTRConfig, LQEnvConfig
from .errors import ConfigError
from .solver import SolverSettings

EXPERIMENTS = ("lq_reinforce", "cstr_vfmpc", "oracle_suite")


def _check_keys(d: dict, allowed: set[str], required: set[str], where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(d).__name__}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _arr(d: dict, key: str, where: str) -> np.ndarray:
    try:
        return np.asarray(d[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.{key}: not numeric ({exc})") from exc


@dataclass(frozen=True)
class OCPSection:
    H: int
    gamma: float
    discount_in_horizon: bool = True
    model_perturbation: float = 0.0
    u_lo: np.ndarray | None = None
    u_hi: np.ndarray | None = None


@dataclass(frozen=True)
class LearnerSection:
    """REINFORCE settings of the LQ study.  The exploration std follows
    sigma_at(i) = max(sigma_min, sigma0 * sigma_decay**i) over iterations."""

    alpha: float
    iterations: int
    episodes: int
    T: int
    sigma0: float
    sigma_decay: float = 1.0
    sigma_min: float = 1e-3

    def sigma_at(self, iteration: int) -> float:
        return max(self.sigma_min, self.sigma0 * self.sigma_decay**iteration)


@dataclass(frozen=True)
class TrainingSection:
    rounds: int
    episodes: int
    T: int
    action_grid: int
    rmse_threshold: float
    epsilon: float = 0.2


@dataclass(frozen=True)
class EvalSection:
    T: int
    x0: np.ndarray
    default_terminal_scale: float


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    repetitions: int
    env: LQEnvConfig | CSTRConfig | None
    ocp: OCPSection | None
    learner: LearnerSection | None
    training: TrainingSection | None
    evaluation: EvalSection | None
    solver: SolverSettings
    out_dir: str | None


def _parse_lq_env(d: dict) -> LQEnvConfig:
    where = "env"
    _check_keys(
        d,
        {"type", "A", "B", "Qc", "Rc", "noise_std", "x0_lo", "x0_hi"},
        {"type", "A", "B", "Qc", "Rc", "noise_std", "x0_lo", "x0_hi"},
        where,
    )
    try:
        return LQEnvConfig(
            A=_arr(d, "A", where),
            B=_arr(d, "B", where),
            Qc=_arr(d, "Qc", where),
            Rc=_arr(d, "Rc", where),
            noise_std=_arr(d, "noise_std", where),
            x0_lo=_arr(d, "x0_lo", where),
            x0_hi=_arr(d, "x0_hi", where),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_cstr_env(d: dict) -> CSTRConfig:
    where = "env"
    keys = {
        "type", "ode_params", "dt", "substeps", "state_lo", "state_hi",
        "input_lo", "input_hi", "setpoint", "w_track", "w_move",
        "reference_input", "x0_lo", "x0_hi",
    }
    _check_keys(d, keys, keys, where)
    ode = d["ode_params"]
    if not isinstance(ode, dict) or not all(
        isinstance(v, (int, float)) for v in ode.values()
    ):
        raise ConfigError("env.ode_params: expected a flat mapping of numbers")
    try:
        return CSTRConfig(
            ode_params={k: float(v) for k, v in ode.items()},
            dt=float(d["dt"]),
            substeps=int(d["substeps"]),
            state_lo=_arr(d, "state_lo", where),
            state_hi=_arr(d, "state_hi", where),
            input_lo=_arr(d, "input_lo", where),
            input_hi=_arr(d, "input_hi", where),
            setpoint=float(d["setpoint"]),
            w_track=float(d["w_track"]),
            w_move=_arr(d, "w_move", where),
            reference_input=_arr(d, "reference_input", where),
            x0_lo=_arr(d, "x0_lo", where),
            x0_hi=_arr(d, "x0_hi", where),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_ocp(d: dict) -> OCPSection:
    where = "ocp"
    _check_keys(
        d,
        {"H", "gamma", "discount_in_horizon", "model_perturbation", "u_lo", "u_hi"},
        {"H", "gamma"},
        where,
    )
    try:
        sec = OCPSection(
            H=int(d["H"]),
            gamma=float(d["gamma"]),
            discount_in_horizon=bool(d.get("discount_in_horizon", True)),
            model_perturbation=float(d.get("model_perturbation", 0.0)),
            u_lo=_arr(d, "u_lo", where) if "u_lo" in d else None,
            u_hi=_arr(d, "u_hi", where) if "u_hi" in d else None,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if sec.H < 1:
        raise ConfigError("ocp.H must be >= 1")
    if not 0.0 < sec.gamma < 1.0:
        raise ConfigError("ocp.gamma must be in (0, 1)")
    if sec.model_perturbation < 0:
        raise ConfigError("ocp.model_perturbation must be >= 0")
    return sec


def _parse_learner(d: dict) -> LearnerSection:
    where = "learner"
    _check_keys(
        d,
        {"alpha", "iterations", "episodes", "T", "sigma0", "sigma_decay", "sigma_min"},
        {"alpha", "iterations", "episodes", "T", "sigma0"},
        where,
    )
    try:
        sec = LearnerSection(
            alpha=float(d["alpha"]),
            iterations=int(d["iterations"]),
            episodes=int(d["episodes"]),
            T=int(d["T"]),
            sigma0=float(d["sigma0"]),
            sigma_decay=float(d.get("sigma_decay", 1.0)),
            sigma_min=float(d.get("sigma_min", 1e-3)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if sec.alpha <= 0 or sec.iterations < 1 or sec.episodes < 1 or sec.T < 1:
        raise ConfigError(f"{where}: alpha, iterations, episodes, T must be positive")
    if sec.sigma0 <= 0 or sec.sigma_min <= 0 or not 0 < sec.sigma_decay <= 1:
        raise ConfigError(f"{where}: invalid sigma schedule")
    return sec


def _parse_training(d: dict) -> TrainingSection:
    where = "training"
    _check_keys(
        d,
        {"rounds", "episodes", "T", "action_grid", "rmse_threshold", "epsilon"},
        {"rounds", "episodes", "T", "action_grid", "rmse_threshold"},
        where,
    )
    try:
        sec = TrainingSection(
            rounds=int(d["rounds"]),
            episodes=int(d["episodes"]),
            T=int(d["T"]),
            action_grid=int(d["action_grid"]),
            rmse_threshold=float(d["rmse_threshold"]),
            epsilon=float(d.get("epsilon", 0.2)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if min(sec.rounds, sec.episodes, sec.T) < 1 or sec.action_grid < 2:
        raise ConfigError(f"{where}: counts must be positive (action_grid >= 2)")
    if not 0.0 <= sec.epsilon <= 1.0:
        raise ConfigError(f"{where}.epsilon must be in [0, 1]")
    return sec


def _parse_evaluation(d: dict) -> EvalSection:
    where = "evaluation"
    _check_keys(d, {"T", "x0", "default_terminal_scale"}, {"T", "x0", "default_terminal_scale"}, where)
    try:
        sec = EvalSection(
            T=int(d["T"]),
            x0=_arr(d, "x0", where),
            default_terminal_scale=float(d["default_terminal_scale"]),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if sec.T < 1 or sec.default_terminal_scale < 0:
        raise ConfigError(f"{where}: T must be >= 1 and scale >= 0")
    return sec


_SECTIONS_BY_EXPERIMENT = {
    "lq_reinforce": {"env", "ocp", "learner"},
    "cstr_vfmpc": {"env", "ocp", "training", "evaluation"},
    "oracle_suite": set(),
}


def parse_config(raw: dict, where: str = "config") -> ExperimentConfig:
    """Validate a raw mapping into an ExperimentConfig (strict schema)."""
    top_allowed = {"experiment", "seed", "repetitions", "env", "ocp", "learner",
                   "training", "evaluation", "solver", "out_dir"}
    _check_keys(raw, top_allowed, {"experiment", "seed"}, where)
    experiment = raw["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    needed = _SECTIONS_BY_EXPERIMENT[experiment]
    present = {k for k in ("env", "ocp", "learner", "training", "evaluation") if k in raw}
    if present != needed:
        raise ConfigError(
            f"experiment {experiment} needs sections {sorted(needed)}, got {sorted(present)}"
        )
    try:
        seed = int(raw["seed"])
        repetitions = int(raw.get("repetitions", 1))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seed/repetitions: {exc}") from exc
    if repetitions < 1:
        raise ConfigError("repetitions must be >= 1")

    env = None
    if "env" in raw:
        env_type = raw["env"].get("type") if isinstance(raw["env"], dict) else None
        if experiment == "lq_reinforce":
            if env_type != "lq":
                raise ConfigError("env.type must be 'lq' for lq_reinforce")
            env = _parse_lq_env(raw["env"])
        else:
            if env_type != "cstr":
                raise ConfigError("env.type must be 'cstr' for cstr_vfmpc")
            env = _parse_cstr_env(raw["env"])

    try:
        solver = SolverSettings.from_dict(raw.get("solver", {}) or {})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver: {exc}") from exc

    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("out_dir must be a string path")

    return ExperimentConfig(
        experiment=experiment,
        seed=seed,
        repetitions=repetitions,
        env=env,
        ocp=_parse_ocp(raw["ocp"]) if "ocp" in raw else None,
        learner=_parse_learner(raw["learner"]) if "learner" in raw else None,
        training=_parse_training(raw["training"]) if "training" in raw else None,
        evaluation=_parse_evaluation(raw["evaluation"]) if "evaluation" in raw else None,
        solver=solver,
        out_dir=out_dir,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a YAML experiment config file."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping at top level")
    return parse_config(raw)
