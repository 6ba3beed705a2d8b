"""Experiment configuration: strict YAML schema -> typed sections.

Each section's dataclass is its schema: the fields are the allowed keys, the
fields without a default the required ones, and each field's annotation the
kind of value it takes.  The range checks live in each dataclass's
``__post_init__``.  All validation problems raise ConfigError with the
offending section path.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import yaml

from .envs import CSTRConfig, LQEnvConfig
from .errors import ConfigError
from .solver import SolverSettings


def _check_keys(d: dict, allowed: set[str], required: set[str], where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(d).__name__}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _coerce(kind, value, where: str):
    """``value`` as the annotated ``kind``: a YAML bool for bool, an integer
    (not a bool or a float) for int, any non-bool number for float; a dict
    passes as is (its dataclass checks it) and any other kind is an array."""
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where}: expected true or false, got {value!r}")
        return value
    if kind in (int, float):
        number = numbers.Integral if kind is int else numbers.Real
        if isinstance(value, bool) or not isinstance(value, number):
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"{where}: expected {what}, got {value!r}")
        return kind(value)
    if kind is dict:
        return value
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: not numeric ({exc})") from exc


def _section(cls, d: dict, where: str):
    """Build the dataclass ``cls`` from the mapping ``d``; a ValueError of its
    ``__post_init__`` becomes a ConfigError naming the section."""
    fs = fields(cls)
    required = {f.name for f in fs if f.default is MISSING and f.default_factory is MISSING}
    _check_keys(d, {f.name for f in fs}, required, where)
    kinds = get_type_hints(cls)
    values = {k: _coerce(kinds[k], v, f"{where}.{k}") for k, v in d.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class OCPSection:
    H: int
    gamma: float
    discount_in_horizon: bool = True
    model_perturbation: float = 0.0
    u_lo: np.ndarray | None = None
    u_hi: np.ndarray | None = None

    def __post_init__(self):
        if self.H < 1:
            raise ValueError("H must be >= 1")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if self.model_perturbation < 0:
            raise ValueError("model_perturbation must be >= 0")


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

    def __post_init__(self):
        if self.alpha <= 0 or self.iterations < 1 or self.episodes < 1 or self.T < 1:
            raise ValueError("alpha, iterations, episodes, T must be positive")
        if self.sigma0 <= 0 or self.sigma_min <= 0 or not 0 < self.sigma_decay <= 1:
            raise ValueError("invalid sigma schedule")

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

    def __post_init__(self):
        if min(self.rounds, self.episodes, self.T) < 1 or self.action_grid < 2:
            raise ValueError("counts must be positive (action_grid >= 2)")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")


@dataclass(frozen=True)
class EvalSection:
    T: int
    x0: np.ndarray
    default_terminal_scale: float

    def __post_init__(self):
        if self.T < 1 or self.default_terminal_scale < 0:
            raise ValueError("T must be >= 1 and scale >= 0")


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


_SECTIONS_BY_EXPERIMENT = {
    "lq_reinforce": {"env": LQEnvConfig, "ocp": OCPSection, "learner": LearnerSection},
    "cstr_vfmpc": {"env": CSTRConfig, "ocp": OCPSection, "training": TrainingSection,
                   "evaluation": EvalSection},
}
EXPERIMENTS = tuple(_SECTIONS_BY_EXPERIMENT)
_ENV_TYPES = {"lq_reinforce": "lq", "cstr_vfmpc": "cstr"}
_SECTIONS = ("env", "ocp", "learner", "training", "evaluation")


def parse_config(raw: dict, where: str = "config") -> ExperimentConfig:
    """Validate a raw mapping into an ExperimentConfig (strict schema)."""
    _check_keys(raw, {f.name for f in fields(ExperimentConfig)}, {"experiment", "seed"}, where)
    experiment = raw["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    needed = _SECTIONS_BY_EXPERIMENT[experiment]
    present = {k for k in _SECTIONS if k in raw}
    if present != set(needed):
        raise ConfigError(
            f"experiment {experiment} needs sections {sorted(needed)}, got {sorted(present)}"
        )
    seed = _coerce(int, raw["seed"], "seed")
    repetitions = _coerce(int, raw.get("repetitions", 1), "repetitions")
    if repetitions < 1:
        raise ConfigError("repetitions must be >= 1")

    sections = {}
    for name, cls in needed.items():
        d = raw[name]
        if name == "env":
            env_type = _ENV_TYPES[experiment]
            if not isinstance(d, dict) or d.get("type") != env_type:
                raise ConfigError(f"env.type must be '{env_type}' for {experiment}")
            d = {k: v for k, v in d.items() if k != "type"}
        sections[name] = _section(cls, d, name)

    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("out_dir must be a string path")

    return ExperimentConfig(
        experiment=experiment,
        seed=seed,
        repetitions=repetitions,
        solver=_section(SolverSettings, raw.get("solver") or {}, "solver"),
        out_dir=out_dir,
        **{name: sections.get(name) for name in _SECTIONS},
    )


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads a float written without a dot, such as
    1e-3, as a float: YAML 1.2 does, PyYAML's YAML 1.1 reads a string."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float", re.compile(r"^[-+]?[0-9][0-9_]*[eE][-+]?[0-9]+$"), list("-+0123456789")
)


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a YAML experiment config file."""
    path = Path(path)
    try:
        raw = yaml.load(path.read_text(), Loader=_Loader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping at top level")
    return parse_config(raw)
