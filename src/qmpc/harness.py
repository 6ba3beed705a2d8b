"""Experiment runners, metrics sink, and file outputs.

Everything an experiment emits is derived from (config, master seed); the only
nondeterministic bytes are the wall_time column of metrics.csv.  Floats are
serialized with Python's shortest-repr formatting so reruns are byte-identical.
"""

from __future__ import annotations

import itertools
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dp
from .config import ExperimentConfig
from .envs import (
    CSTRConfig,
    CSTREnv,
    LQEnv,
    build_cstr_ocp,
    cstr_discrete,
    constraint_violation_count,
)
from .errors import DimensionError, NonConvergenceError, QmpcError
from .mdp import TabularMDP, episode_rng, estimate_J, rollout
from .ocp import build_lq_ocp
from .rl import (
    GaussianMPCPolicy,
    ReinforceResult,
    RunningBaseline,
    ValueModel,
    fit_value_function,
    gradient_step,
    reinforce_gradient,
)
from .sensitivity import finite_diff_check
from .solver import MPCController

log = logging.getLogger(__name__)

METRICS_FIELDS = (
    "run_id",
    "episode_index",
    "J_hat",
    "stderr",
    "frob_A",
    "frob_B",
    "td_loss",
    "violation_count",
    "wall_time",
)
_CURVE_FIELDS = ("J_hat", "frob_A", "frob_B", "td_loss", "violation_count")

# Policy-gradient step control: clip the gradient norm and shrink the step
# with the exploration variance (the score magnitude grows like 1/sigma^2,
# so a sigma^2-proportional step keeps the effective update scale constant).
GRAD_CLIP = 25.0
# Random LQ instances the oracle suite draws before giving up on a seed.
LQ_DRAW_ATTEMPTS = 10


@dataclass
class MetricsRow:
    """One logged (run, episode) record; None fields serialize as empty."""

    run_id: int
    episode_index: int
    J_hat: float | None = None
    stderr: float | None = None
    frob_A: float | None = None
    frob_B: float | None = None
    td_loss: float | None = None
    violation_count: int | None = None
    wall_time: float | None = None


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def seed_int(*parts: int) -> int:
    """Deterministic derived seed from a tuple of integers."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def frobenius_mismatch(M_phi: np.ndarray, M: np.ndarray) -> float:
    """Frobenius norm of the difference between two equal-shape matrices."""
    M_phi = np.asarray(M_phi, dtype=float)
    M = np.asarray(M, dtype=float)
    if M_phi.shape != M.shape:
        raise DimensionError(f"shape mismatch {M_phi.shape} vs {M.shape}")
    return float(np.sqrt(np.sum((M_phi - M) ** 2)))


def write_outputs(rows: list[MetricsRow], out_dir: str | Path, summary: dict) -> None:
    """Write metrics.csv, curves.csv (per-episode mean/std), and summary.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [",".join(METRICS_FIELDS)]
    for r in rows:
        lines.append(",".join(_fmt(getattr(r, f)) for f in METRICS_FIELDS))
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")

    episodes = sorted({r.episode_index for r in rows})
    header = ["episode_index"]
    for f in _CURVE_FIELDS:
        header += [f"{f}_mean", f"{f}_std"]
    curve_lines = [",".join(header)]
    for ep in episodes:
        cells = [str(ep)]
        ep_rows = [r for r in rows if r.episode_index == ep]
        for f in _CURVE_FIELDS:
            vals = [getattr(r, f) for r in ep_rows if getattr(r, f) is not None]
            if not vals:
                cells += ["", ""]
            else:
                arr = np.asarray(vals, dtype=float)
                mean = float(np.mean(arr))
                std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
                cells += [repr(mean), repr(std)]
        curve_lines.append(",".join(cells))
    (out / "curves.csv").write_text("\n".join(curve_lines) + "\n")

    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# LQ REINFORCE study


def _lq_metrics_row(rep, ep, res: ReinforceResult | None, fa, fb, wall):
    return MetricsRow(
        run_id=rep,
        episode_index=ep,
        J_hat=None if res is None else res.J_hat,
        stderr=None if res is None else res.stderr,
        frob_A=fa,
        frob_B=fb,
        wall_time=wall,
    )


def run_lq_reinforce(cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    """Tune the OCP's model matrices by policy gradient and log the learning
    and model-mismatch curves across seeded repetitions.

    Per repetition: the believed model (A_phi, B_phi) starts at a seeded
    Gaussian perturbation of the true one, the terminal cost is kept at the
    discounted Riccati solution of the *believed* model (re-solved after each
    update), and each iteration takes one REINFORCE ascent step on the model
    segments.  Episode 0 is the pre-update measurement row.
    """
    env_cfg = cfg.env
    learner = cfg.learner
    ocp_sec = cfg.ocp
    gamma = ocp_sec.gamma
    env = LQEnv(env_cfg)
    A, B, Qc, Rc = env_cfg.A, env_cfg.B, env_cfg.Qc, env_cfg.Rc
    n, m = B.shape

    P_star, K_star = dp.riccati_solve(A, B, Qc, Rc, gamma)
    J_star, _ = estimate_J(
        env,
        lambda s: -K_star @ s,
        episodes=200,
        T=learner.T,
        gamma=gamma,
        seed=seed_int(cfg.seed, 9090),
    )

    rows: list[MetricsRow] = []
    flagged: list[int] = []
    closures: list[float] = []
    final_fa: list[float] = []
    final_fb: list[float] = []

    for rep in range(cfg.repetitions):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, rep, 1]))
        delta = ocp_sec.model_perturbation
        A_phi = A + delta * rng.standard_normal((n, n))
        B_phi = B + delta * rng.standard_normal((n, m))
        try:
            P_phi, _ = dp.riccati_solve(A_phi, B_phi, Qc, Rc, gamma)
        except QmpcError:
            P_phi = P_star
        spec, phi = build_lq_ocp(
            A_phi, B_phi, Qc, Rc, P_phi, ocp_sec.H, gamma,
            u_lo=ocp_sec.u_lo, u_hi=ocp_sec.u_hi,
            discount_in_horizon=ocp_sec.discount_in_horizon,
        )
        mask = np.zeros(phi.size)
        for seg in ("A", "B"):
            mask[slice(*phi.layout[seg])] = 1.0

        baseline = RunningBaseline()
        failures = 0
        run_rows: list[MetricsRow] = []
        for it in range(learner.iterations + 1):
            t0 = time.perf_counter()
            Acur = phi.segment("A").reshape(n, n)
            Bcur = phi.segment("B").reshape(n, m)
            fa = frobenius_mismatch(Acur, A)
            fb = frobenius_mismatch(Bcur, B)
            policy = GaussianMPCPolicy(
                spec, phi, learner.sigma_at(it), settings=cfg.solver
            )
            try:
                res = reinforce_gradient(
                    env,
                    policy,
                    episodes=learner.episodes,
                    T=learner.T,
                    gamma=gamma,
                    seed=seed_int(cfg.seed, rep, it),
                    baseline=baseline,
                )
            except QmpcError as exc:
                log.warning("run %d iteration %d failed: %s", rep, it, exc)
                failures += 1
                run_rows.append(
                    _lq_metrics_row(rep, it, None, fa, fb, time.perf_counter() - t0)
                )
                continue
            run_rows.append(
                _lq_metrics_row(rep, it, res, fa, fb, time.perf_counter() - t0)
            )
            if it == learner.iterations:
                break  # final row is measurement only
            g = mask * res.grad
            gn = float(np.linalg.norm(g))
            if gn > GRAD_CLIP:
                g = g * (GRAD_CLIP / gn)
            step = learner.alpha * (learner.sigma_at(it) / learner.sigma0) ** 2
            phi = gradient_step(phi, g, step, "ascent")
            try:
                P_new, _ = dp.riccati_solve(
                    phi.segment("A").reshape(n, n),
                    phi.segment("B").reshape(n, m),
                    Qc,
                    Rc,
                    gamma,
                )
                phi = phi.replace("P", P_new)
            except QmpcError:
                log.warning("run %d: believed model lost stabilizability, terminal kept", rep)

        rows.extend(run_rows)
        if failures > 0.1 * (learner.iterations + 1):
            flagged.append(rep)
            continue
        j0 = run_rows[0].J_hat
        jf = run_rows[-1].J_hat
        if j0 is not None and jf is not None and abs(j0 - J_star) > 1e-12:
            closures.append(1.0 - abs(jf - J_star) / abs(j0 - J_star))
        final_fa.append(run_rows[-1].frob_A)
        final_fb.append(run_rows[-1].frob_B)

    ok_rows = [r for r in rows if r.run_id not in flagged]
    by_ep = {}
    for r in ok_rows:
        if r.J_hat is not None:
            by_ep.setdefault(r.episode_index, []).append(r.J_hat)
    if not by_ep:
        raise NonConvergenceError(
            f"all {cfg.repetitions} repetitions flagged: more than 10% of their "
            "learner iterations failed"
        )
    first_ep, last_ep = min(by_ep), max(by_ep)
    J0_mean = float(np.mean(by_ep[first_ep]))
    Jf_mean = float(np.mean(by_ep[last_ep]))
    gap0, gapf = abs(J0_mean - J_star), abs(Jf_mean - J_star)
    summary = {
        "experiment": "lq_reinforce",
        "seed": cfg.seed,
        "repetitions": cfg.repetitions,
        "J_star": J_star,
        "J_hat_initial_mean": J0_mean,
        "J_hat_final_mean": Jf_mean,
        "gap_initial": gap0,
        "gap_final": gapf,
        "gap_closure": 1.0 - gapf / gap0 if gap0 > 0 else 1.0,
        "per_run_closure_mean": float(np.mean(closures)) if closures else None,
        "frob_A_final_mean": float(np.mean(final_fa)) if final_fa else None,
        "frob_B_final_mean": float(np.mean(final_fb)) if final_fb else None,
        "flagged_runs": flagged,
    }
    write_outputs(rows, out_dir, summary)
    return summary


# ---------------------------------------------------------------------------
# CSTR value-function MPC study


def _action_grid(cfg: CSTRConfig, points: int) -> np.ndarray:
    axes = [np.linspace(cfg.input_lo[i], cfg.input_hi[i], points) for i in range(2)]
    return np.array(list(itertools.product(*axes)))


def greedy_value_action(
    cfg: CSTRConfig,
    vmodel: ValueModel,
    s: np.ndarray,
    a_prev: np.ndarray,
    grid: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """One-step lookahead argmax of reward + gamma * V over an action grid.

    The tracking term of the reward does not depend on the action, so only the
    move penalty and the successor value discriminate."""
    nxt = cstr_discrete(cfg, s, grid)
    vals = vmodel.value(nxt)
    move = np.sum(cfg.w_move * (grid - a_prev) ** 2, axis=1)
    scores = -move + gamma * vals
    return grid[int(np.argmax(scores))]


class GreedyValuePolicy:
    """Stateful greedy-over-grid policy around a learned value model.

    Minimal stand-in for an unconstrained model-free agent: it maximizes the
    one-step value with no knowledge of the state box."""

    def __init__(self, cfg: CSTRConfig, vmodel: ValueModel, grid: np.ndarray, gamma: float):
        self.cfg = cfg
        self.vmodel = vmodel
        self.grid = grid
        self.gamma = gamma
        self._a_prev = cfg.reference_input.copy()

    def reset(self):
        self._a_prev = self.cfg.reference_input.copy()

    def __call__(self, s: np.ndarray) -> np.ndarray:
        a = greedy_value_action(self.cfg, self.vmodel, s, self._a_prev, self.grid, self.gamma)
        self._a_prev = a
        return a


def epsilon_greedy_policy(
    cfg: CSTRConfig,
    vmodel: ValueModel | None,
    grid: np.ndarray,
    gamma: float,
    epsilon: float,
    rng: np.random.Generator,
):
    """Value training's exploration policy for one episode: a uniform-random
    grid action with probability epsilon (always, without a model), else the
    greedy grid action; ``rng`` is the episode's generator."""
    a_prev = cfg.reference_input.copy()

    def explore(s):
        nonlocal a_prev
        if vmodel is None or rng.uniform() < epsilon:
            a_prev = grid[rng.integers(grid.shape[0])]
        else:
            a_prev = greedy_value_action(cfg, vmodel, s, a_prev, grid, gamma)
        return a_prev

    return explore


def train_value_model(
    cfg: CSTRConfig, gamma: float, training, seed: int
) -> tuple[ValueModel, dict]:
    """Monte Carlo value regression on simulated reactor rollouts.

    Rounds of fitted value iteration: roll episodes under an epsilon-greedy
    grid policy against the current model (uniform-random actions in round 0),
    regress discounted returns-to-go on quadratic state features, bootstrap
    episode tails with the previous round's model.  A round's episodes step
    in lockstep, one batched reactor step for all of them; each decides its
    actions one state at a time from its own generator.  Aborts when the
    final fit RMSE exceeds the configured threshold.
    """
    env = CSTREnv(cfg)
    grid = _action_grid(cfg, training.action_grid)
    vmodel: ValueModel | None = None
    info: dict = {"rounds": []}
    for rnd in range(training.rounds):
        states_all, returns_all = [], []
        rngs = [episode_rng(seed_int(seed, rnd), ep) for ep in range(training.episodes)]
        policies = [
            epsilon_greedy_policy(cfg, vmodel, grid, gamma, training.epsilon, rng) for rng in rngs
        ]
        trajs = rollout(env, policies, training.T, seed, rng=rngs)
        for traj in trajs:
            G = gamma * vmodel.value(traj.steps[-1].s_next) if vmodel is not None else 0.0
            rewards = traj.rewards
            returns = np.empty(training.T)
            for t in reversed(range(training.T)):
                returns[t] = rewards[t] + (gamma * returns[t + 1] if t + 1 < training.T else G)
            states_all.extend(tr.s for tr in traj.steps)
            returns_all.extend(returns)
        vmodel = fit_value_function(np.array(states_all), np.array(returns_all))
        info["rounds"].append({"rmse": vmodel.rmse, "samples": len(returns_all)})
    info["rmse"] = vmodel.rmse
    if vmodel.rmse > training.rmse_threshold:
        raise QmpcError(
            f"value fit RMSE {vmodel.rmse:.4g} exceeds threshold {training.rmse_threshold}"
        )
    return vmodel, info


def default_terminal_weights(scale: float, setpoint: float) -> np.ndarray:
    """Reward-sign quadratic feature weights encoding -scale*(c_B - setpoint)^2."""
    probe = ValueModel(n=4, weights=np.zeros(1))
    pairs = probe._pairs()
    w = np.zeros(1 + 4 + len(pairs))
    w[0] = -scale * setpoint**2
    w[1 + 1] = 2.0 * scale * setpoint
    w[1 + 4 + pairs.index((1, 1))] = -scale
    return w


class _FixedStart:
    """Environment wrapper pinning reset() to one initial state."""

    def __init__(self, env, x0):
        self.env = env
        self.x0 = np.asarray(x0, dtype=float)
        self.n, self.m = env.n, env.m

    def reset(self, rng):
        return np.broadcast_to(self.x0, np.shape(self.env.reset(rng))).copy()

    def step(self, s, a, rng):
        return self.env.step(s, a, rng)


def _write_trajectory(path: Path, traj, setpoint: float):
    lines = ["step,c_A,c_B,T_R,T_K,F,Q_dot,reward,c_B_error"]
    for t, tr in enumerate(traj.steps):
        s = tr.s_next
        cells = [str(t)] + [repr(float(v)) for v in s] + [
            repr(float(tr.a[0])),
            repr(float(tr.a[1])),
            repr(float(tr.r)),
            repr(abs(float(s[1]) - setpoint)),
        ]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def run_cstr_vfmpc(cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    """Reactor case study: offline value learning, then three closed-loop
    agents from one initial state.

    Agents: greedy one-step maximization of the learned value (no state
    constraints), default MPC with a fixed tracking terminal cost (constrained),
    and value-augmented MPC using the learned model as terminal cost
    (constrained).  Per-agent trajectories and violation/tracking metrics are
    written alongside the usual metrics files.
    """
    env_cfg: CSTRConfig = cfg.env
    gamma = cfg.ocp.gamma
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows: list[MetricsRow] = []
    summary: dict = {"experiment": "cstr_vfmpc", "seed": cfg.seed, "agents": {}}

    vmodel, fit_info = train_value_model(env_cfg, gamma, cfg.training, cfg.seed)
    summary["value_fit"] = fit_info

    grid = _action_grid(env_cfg, cfg.training.action_grid)
    x0 = cfg.evaluation.x0
    T_eval = cfg.evaluation.T
    setpoint = env_cfg.setpoint
    err0 = abs(x0[1] - setpoint)

    spec_default, phi_default = build_cstr_ocp(
        env_cfg,
        cfg.ocp.H,
        gamma,
        default_terminal_weights(cfg.evaluation.default_terminal_scale, setpoint),
        discount_in_horizon=cfg.ocp.discount_in_horizon,
    )
    spec_vf, phi_vf = build_cstr_ocp(
        env_cfg,
        cfg.ocp.H,
        gamma,
        vmodel.weights,
        discount_in_horizon=cfg.ocp.discount_in_horizon,
    )

    agents = [
        ("greedy_v", GreedyValuePolicy(env_cfg, vmodel, grid, gamma)),
        ("default_mpc", MPCController(spec_default, phi_default, cfg.solver)),
        ("vf_mpc", MPCController(spec_vf, phi_vf, cfg.solver)),
    ]
    for idx, (name, policy) in enumerate(agents):
        t0 = time.perf_counter()
        policy.reset()
        env = _FixedStart(CSTREnv(env_cfg), x0)
        traj = rollout(env, policy, T_eval, seed=seed_int(cfg.seed, 777, idx))
        wall = time.perf_counter() - t0
        violations = int(constraint_violation_count(traj, env_cfg.state_lo, env_cfg.state_hi))
        final_err = float(abs(traj.steps[-1].s_next[1] - setpoint))
        J = float(sum(gamma**t * tr.r for t, tr in enumerate(traj.steps)))
        _write_trajectory(out / f"trajectory_{name}.csv", traj, setpoint)
        rows.append(
            MetricsRow(
                run_id=0,
                episode_index=idx,
                J_hat=J,
                violation_count=violations,
                wall_time=wall,
            )
        )
        summary["agents"][name] = {
            "discounted_return": J,
            "violation_count": violations,
            "final_cB_error": final_err,
            "initial_cB_error": err0,
        }

    ag = summary["agents"]
    summary["criteria"] = {
        "vf_mpc_zero_violations": bool(ag["vf_mpc"]["violation_count"] == 0),
        "vf_mpc_error_below_10pct": bool(ag["vf_mpc"]["final_cB_error"] < 0.1 * err0),
        "greedy_v_violates": bool(ag["greedy_v"]["violation_count"] >= 1),
        "default_mpc_zero_violations": bool(ag["default_mpc"]["violation_count"] == 0),
        "default_mpc_strictly_worse": bool(
            ag["default_mpc"]["final_cB_error"] > ag["vf_mpc"]["final_cB_error"]
        ),
    }
    write_outputs(rows, out_dir, summary)
    return summary


# ---------------------------------------------------------------------------
# Oracle suite


def _random_tabular_mdp(rng: np.random.Generator) -> TabularMDP:
    nS = int(rng.integers(2, 21))
    nA = int(rng.integers(2, 6))
    P = rng.dirichlet(np.ones(nS), size=(nS, nA))
    R = rng.uniform(-1.0, 1.0, size=(nS, nA))
    gamma = float(rng.uniform(0.85, 0.99))
    return TabularMDP(P=P, R=R, gamma=gamma)


def _random_lq_instance(rng: np.random.Generator, n: int, m: int, Qc: np.ndarray):
    """Random (A, B, Rc, gamma) with its Riccati solution P.

    A = 0.7 N(0, 1) need not be stabilizable; an instance whose Riccati
    iteration fails is redrawn, up to LQ_DRAW_ATTEMPTS draws in all.  A first
    draw that solves consumes the generator exactly as one draw does.
    """
    for attempt in range(1, LQ_DRAW_ATTEMPTS + 1):
        A = rng.normal(size=(n, n)) * 0.7
        B = rng.normal(size=(n, m))
        Rc = np.eye(m) * float(rng.uniform(0.3, 2.0))
        gamma = float(rng.uniform(0.9, 0.98))
        try:
            P, _ = dp.riccati_solve(A, B, Qc, Rc, gamma)
        except NonConvergenceError:
            if attempt == LQ_DRAW_ATTEMPTS:
                raise
            log.info("oracle suite: LQ draw %d not solvable, redrawing", attempt)
            continue
        return A, B, Rc, gamma, P


def run_oracle_suite(out_dir: str | Path, seed: int = 0) -> dict:
    """Property checks of the dynamic-programming and sensitivity machinery.

    Random tabular MDPs: value-iteration residuals, operator contraction, and
    greedy policy improvement.  Random LQ instances: Riccati fixed-point
    residuals and analytic-vs-finite-difference sensitivity deviations.
    Writes summary.json; the "passed" flag gates the CLI exit code.
    """
    rng = np.random.default_rng(seed)
    n_mdps = 20
    vi_resid = []
    contraction_ok = True
    improvement_ok = True
    for _ in range(n_mdps):
        mdp = _random_tabular_mdp(rng)
        Q, _ = dp.value_iteration(mdp, tol=1e-12)
        vi_resid.append(dp.bellman_residual(mdp, Q))
        for _ in range(20):
            Q1 = rng.normal(size=Q.shape)
            Q2 = rng.normal(size=Q.shape)
            lhs = np.max(np.abs(dp.bellman_backup(mdp, Q1) - dp.bellman_backup(mdp, Q2)))
            rhs = mdp.gamma * np.max(np.abs(Q1 - Q2))
            if lhs > rhs + 1e-12:
                contraction_ok = False
        pi = dp.greedy_policy_tabular(Q)
        V_pi = dp.policy_evaluation_tabular(mdp, pi)
        if np.any(V_pi < Q.max(axis=1) - 1e-8):
            improvement_ok = False

    ric_resid = []
    sens_dev = []
    for _ in range(5):
        n, m = 2, 1
        Qc = np.eye(n)
        A, B, Rc, gamma, P = _random_lq_instance(rng, n, m, Qc)
        G = Rc + gamma * B.T @ P @ B
        res = Qc + gamma * A.T @ P @ A - gamma**2 * (
            A.T @ P @ B
        ) @ np.linalg.solve(G, B.T @ P @ A) - P
        ric_resid.append(float(np.max(np.abs(res))))
        spec, phi = build_lq_ocp(A, B, Qc, Rc, P, H=5, gamma=gamma)
        s = rng.normal(size=n)
        a = rng.normal(size=m)
        sens_dev.append(finite_diff_check(spec, phi, s, a))
        sens_dev.append(finite_diff_check(spec, phi, s, None))

    summary = {
        "suite": "oracle",
        "seed": seed,
        "mdps": n_mdps,
        "value_iteration_max_residual": float(np.max(vi_resid)),
        "contraction_ok": contraction_ok,
        "greedy_improvement_ok": improvement_ok,
        "riccati_max_residual": float(np.max(ric_resid)),
        "sensitivity_max_fd_deviation": float(np.max(sens_dev)),
        "passed": bool(
            np.max(vi_resid) <= 1e-8
            and contraction_ok
            and improvement_ok
            and np.max(ric_resid) <= 1e-8
            and np.max(sens_dev) <= 1e-4
        ),
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary
