"""Optimization-based Q-function and policy models with reinforcement tuning.

A finite-horizon optimal-control problem acts as the function approximator:
its open-loop optimum (with the first input pinned) is a Q-value, the
unpinned first input is the policy.  Temporal-difference and policy-gradient
updates move the problem's parameters; exact dynamic-programming solvers
(tabular value iteration, discounted Riccati) provide verification targets.
"""

from .dp import (
    bellman_backup,
    bellman_residual,
    greedy_policy_tabular,
    lq_optimal_q,
    policy_evaluation_tabular,
    riccati_solve,
    value_iteration,
)
from .envs import (
    CSTRConfig,
    CSTREnv,
    LQEnv,
    LQEnvConfig,
    build_cstr_ocp,
    constraint_violation_count,
    cstr_step,
    lq_step,
)
from .errors import (
    ConfigError,
    DimensionError,
    DivergenceError,
    InfeasibleError,
    NonConvergenceError,
    QmpcError,
)
from .harness import (
    MetricsRow,
    frobenius_mismatch,
    run_cstr_vfmpc,
    run_lq_reinforce,
    run_oracle_suite,
    write_outputs,
)
from .mdp import (
    TabularMDP,
    Trajectory,
    Transition,
    episode_rng,
    estimate_J,
    rollout,
)
from .ocp import OCPSpec, ParameterVector, build_lq_ocp, validate_spec
from .qp import QPSolution, qp_solve
from .rl import (
    GaussianMPCPolicy,
    ValueModel,
    fit_value_function,
    gradient_step,
    reinforce_gradient,
    td_loss_and_grad,
)
from .sensitivity import (
    SensitivityResult,
    finite_diff_check,
    grad_q_wrt_params,
    jac_policy_wrt_params,
)
from .solver import KKTPoint, MPCController, SolverSettings, mpc_policy, mpc_qvalue, solve_ocp

__all__ = [
    "bellman_backup",
    "bellman_residual",
    "greedy_policy_tabular",
    "lq_optimal_q",
    "policy_evaluation_tabular",
    "riccati_solve",
    "value_iteration",
    "CSTRConfig",
    "CSTREnv",
    "LQEnv",
    "LQEnvConfig",
    "build_cstr_ocp",
    "constraint_violation_count",
    "cstr_step",
    "lq_step",
    "ConfigError",
    "DimensionError",
    "DivergenceError",
    "InfeasibleError",
    "NonConvergenceError",
    "QmpcError",
    "MetricsRow",
    "frobenius_mismatch",
    "run_cstr_vfmpc",
    "run_lq_reinforce",
    "run_oracle_suite",
    "write_outputs",
    "TabularMDP",
    "Trajectory",
    "Transition",
    "episode_rng",
    "estimate_J",
    "rollout",
    "OCPSpec",
    "ParameterVector",
    "build_lq_ocp",
    "validate_spec",
    "QPSolution",
    "qp_solve",
    "GaussianMPCPolicy",
    "ValueModel",
    "fit_value_function",
    "gradient_step",
    "reinforce_gradient",
    "td_loss_and_grad",
    "SensitivityResult",
    "finite_diff_check",
    "grad_q_wrt_params",
    "jac_policy_wrt_params",
    "KKTPoint",
    "MPCController",
    "SolverSettings",
    "mpc_policy",
    "mpc_qvalue",
    "solve_ocp",
]

__version__ = "0.1.0"
