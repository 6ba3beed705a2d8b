"""Exact dynamic-programming solvers used as ground truth.

Two families: tabular value iteration for finite MDPs, and the discounted
algebraic Riccati equation for linear-quadratic problems.  Both are written as
fixed points of explicit operators so tests can check contraction and
optimality properties directly.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonConvergenceError
from .mdp import TabularMDP, check_gamma

MAX_VI_ITERS = 1_000_000
MAX_RICCATI_ITERS = 100_000
# Sweeps without a smaller Riccati update before a pass counts as stalled.
# Over the 2,003 Riccati solves of oracle suites 0-399, a pass that went on
# to converge went at most 1,522 sweeps without a new smallest update.
RICCATI_STALL_SWEEPS = 5_000


def bellman_backup(mdp: TabularMDP, Q: np.ndarray) -> np.ndarray:
    """Apply the Bellman optimality operator: (TQ)(s,a) = R + gamma * E[max_a' Q]."""
    Q = np.asarray(Q, dtype=float)
    if Q.shape != mdp.R.shape:
        raise DimensionError(f"Q shape {Q.shape} does not match R shape {mdp.R.shape}")
    v = Q.max(axis=1)  # (nS,)
    return mdp.R + mdp.gamma * mdp.P @ v


def bellman_residual(mdp: TabularMDP, Q: np.ndarray) -> float:
    """Sup-norm distance of Q from its own backup, zero exactly at Q*."""
    return float(np.max(np.abs(bellman_backup(mdp, Q) - Q)))


def value_iteration(
    mdp: TabularMDP, tol: float = 1e-10, Q0: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Iterate the Bellman backup to a sup-norm fixed point.

    Stops when consecutive iterates differ by at most ``tol`` in sup norm.
    Each sweep is bellman_backup, with gamma P formed once per call.

    Returns:
        (Q, iters) where iters is the number of backups applied.

    Raises:
        NonConvergenceError: the iteration cap was hit first.
    """
    Q = np.zeros_like(mdp.R) if Q0 is None else np.array(Q0, dtype=float)
    if Q.shape != mdp.R.shape:
        raise DimensionError(f"Q shape {Q.shape} does not match R shape {mdp.R.shape}")
    gP = mdp.gamma * mdp.P  # the backup's (gamma P) @ v, formed once
    for it in range(1, MAX_VI_ITERS + 1):
        Q_next = mdp.R + gP @ Q.max(axis=1)
        delta = float(np.abs(Q_next - Q).max())
        Q = Q_next
        if delta <= tol:
            return Q, it
    raise NonConvergenceError(
        f"value iteration did not reach tol={tol} in {MAX_VI_ITERS} iterations",
        residual=delta,
    )


def greedy_policy_tabular(Q: np.ndarray) -> np.ndarray:
    """State-indexed array of greedy actions; ties break to the lowest index."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2:
        raise DimensionError("Q must be 2-D (nS, nA)")
    return np.argmax(Q, axis=1)


def policy_evaluation_tabular(mdp: TabularMDP, pi: np.ndarray) -> np.ndarray:
    """Exact V^pi for a deterministic tabular policy via a linear solve.

    Solves (I - gamma * P_pi) V = R_pi, which is uniquely solvable for
    gamma < 1 because P_pi is row-stochastic.
    """
    pi = np.asarray(pi, dtype=int)
    nS = mdp.n_states
    if pi.shape != (nS,):
        raise DimensionError(f"policy shape {pi.shape}, expected ({nS},)")
    if np.any(pi < 0) or np.any(pi >= mdp.n_actions):
        raise ValueError("policy selects an out-of-range action")
    idx = np.arange(nS)
    P_pi = mdp.P[idx, pi, :]
    R_pi = mdp.R[idx, pi]
    return np.linalg.solve(np.eye(nS) - mdp.gamma * P_pi, R_pi)


def _check_lq_shapes(A, B, Qc, Rc):
    n, m = B.shape
    if A.shape != (n, n):
        raise DimensionError(f"A shape {A.shape}, expected ({n}, {n})")
    if Qc.shape != (n, n) or Rc.shape != (m, m):
        raise DimensionError(f"cost shapes Qc{Qc.shape} Rc{Rc.shape} inconsistent with B{B.shape}")
    return n, m


def riccati_solve(
    A: np.ndarray,
    B: np.ndarray,
    Qc: np.ndarray,
    Rc: np.ndarray,
    gamma: float,
    tol: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the discounted algebraic Riccati equation by fixed-point iteration.

    Iterates
        P <- Qc + gamma A'PA - gamma^2 A'PB (Rc + gamma B'PB)^{-1} B'PA
    from P = Qc until the sup-norm update falls below ``tol``.  If the plain
    iteration oscillates, restarts with under-relaxed updates.  A pass also
    ends once ``tol`` lies below one ulp of max|P|, so that only an update
    of exactly zero in P's largest entries could meet it, and the update has
    set no new minimum for RICCATI_STALL_SWEEPS sweeps: it is then wandering
    at the rounding of P.  The cost matrices must satisfy Qc >= 0 (symmetric
    PSD) and Rc > 0.

    Returns:
        (P, K) with P the symmetric value matrix and
        K = (Rc + gamma B'PB)^{-1} gamma B'PA the optimal gain, so that the
        optimal policy is a = -K s.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Qc = np.asarray(Qc, dtype=float)
    Rc = np.asarray(Rc, dtype=float)
    _check_lq_shapes(A, B, Qc, Rc)
    gamma = check_gamma(gamma)
    if np.max(np.abs(Qc - Qc.T)) > 1e-10 or np.max(np.abs(Rc - Rc.T)) > 1e-10:
        raise ValueError("cost matrices must be symmetric")
    if np.any(np.linalg.eigvalsh(Qc) < -1e-10):
        raise ValueError("Qc must be positive semidefinite")
    if np.any(np.linalg.eigvalsh(Rc) <= 0.0):
        raise ValueError("Rc must be positive definite")

    def step(P):
        BPA = B.T @ P @ A
        G = Rc + gamma * B.T @ P @ B
        P_new = Qc + gamma * A.T @ P @ A - gamma**2 * BPA.T @ np.linalg.solve(G, BPA)
        return 0.5 * (P_new + P_new.T)

    delta, ulp = np.inf, None  # ulp: one ulp of max|P| where a pass stalled
    for relax in (1.0, 0.5, 0.1):
        P = Qc.copy()
        lowest, since = np.inf, 0  # smallest update so far, sweeps since it
        for _ in range(MAX_RICCATI_ITERS):
            # divergence is expected for non-stabilizable systems: let the
            # iterate overflow quietly and bail on the finiteness check
            with np.errstate(over="ignore", invalid="ignore"):
                P_new = (1.0 - relax) * P + relax * step(P)
            if not np.all(np.isfinite(P_new)):
                break
            delta = float(np.max(np.abs(P_new - P)))
            P = P_new
            if delta <= tol:
                K = np.linalg.solve(Rc + gamma * B.T @ P @ B, gamma * B.T @ P @ A)
                return P, K
            lowest, since = (delta, 0) if delta < lowest else (lowest, since + 1)
            if since >= RICCATI_STALL_SWEEPS and tol < np.spacing(np.max(np.abs(P))):
                ulp = float(np.spacing(np.max(np.abs(P))))
                break
    msg = f"Riccati iteration did not reach tol={tol}"
    if ulp is not None:
        msg += (f": it stalled, with no smaller update in {RICCATI_STALL_SWEEPS} sweeps "
                f"and one ulp of max|P| at {ulp:.1e}")
    raise NonConvergenceError(msg + "; system may not be stabilizable", residual=delta)


def lq_optimal_q(
    A: np.ndarray,
    B: np.ndarray,
    Qc: np.ndarray,
    Rc: np.ndarray,
    P: np.ndarray,
    gamma: float,
    s: np.ndarray,
    a: np.ndarray,
) -> float:
    """Exact cost-to-go Q(s, a) = s'Qc s + a'Rc a + gamma (As+Ba)'P(As+Ba).

    This is a cost (smaller is better); the reward-sign Q-function of the
    corresponding MDP is its negation.
    """
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    n, m = B.shape
    if s.shape != (n,) or a.shape != (m,):
        raise DimensionError(f"s{s.shape}/a{a.shape} inconsistent with B{B.shape}")
    x_next = A @ s + B @ a
    return float(s @ Qc @ s + a @ Rc @ a + check_gamma(gamma) * x_next @ P @ x_next)
