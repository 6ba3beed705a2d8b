"""Dense strictly convex QP solver with a primal active-set method.

Solves
    min_x  1/2 x'Hx + g'x   s.t.  Aineq x <= bineq
with the sign convention that stationarity reads
    Hx + g + Aineq' mu = 0,   mu >= 0.

The QP has inequality rows only: the SQP eliminates its equality rows (the
dynamics) by condensing before it calls here.  H must be positive definite
(the SQP certifies it by the same Cholesky test), so every working set of
independent rows has a nonsingular KKT matrix.  Without a live row (none,
or only all-zero ones) the QP is its Cholesky test and one solve of H x = -g,
which takes no bordered matrix.

The working set is iterated in the classic primal fashion: take the step that
solves the current equality-constrained subproblem, cut it at the first
blocking inequality (which joins the working set; on a tie, the lowest row),
and drop the constraint with the most negative multiplier when the step is
zero.  All-zero rows never enter the working set, and every row keeps its own
index.  A row dependent on the working set never blocks, and a singular warm
start is started cold.  If a working set ever repeats, the drop switches to
the lowest-index rule, which cannot cycle.  Exact active sets (not just
solutions) are part of the contract, since parameter sensitivities are
computed from them downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

FEAS_TOL = 1e-9
ZERO_ROW_TOL = 1e-14


@dataclass
class QPSolution:
    """Primal-dual QP solution with the final working set.

    status is one of converged / infeasible / diverged / max_iter; primal and
    duals are meaningful only when status == "converged".  diverged means H
    is not positive definite.
    """

    primal: np.ndarray
    dual_ineq: np.ndarray
    active_set: np.ndarray
    status: str
    iterations: int


def _solve_kkt(H, A, g, b):
    """Solve [H A'; A 0][x; y] = [-g; b] for g (nz,) or k columns (nz, k), b
    broadcast; returns (x, y, residual relative to 1 + max|rhs|).  A singular
    matrix gives the least-squares solution and residual inf.  Without rows
    the system is H x = -g itself, solved without the bordered copy."""
    nz = H.shape[0]
    nc = A.shape[0]
    if nc:
        K = np.zeros((nz + nc, nz + nc))
        K[:nz, :nz] = H
        K[:nz, nz:] = A.T
        K[nz:, :nz] = A
        rhs = np.concatenate([-g, np.broadcast_to(b, (nc,) + np.shape(g)[1:])])
    else:
        K, rhs = H, -g
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
        return sol[:nz], sol[nz:], np.inf
    resid = float(np.abs(K @ sol - rhs).max())
    return sol[:nz], sol[nz:], resid / (1.0 + float(np.abs(rhs).max()))


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported at the first call: phase 1 is the
    package's one use of ``scipy.optimize``, and most runs never reach it, so
    ``import qmpc`` does not pay for importing it."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _phase1_point(Aineq, bineq):
    """Feasible point via an LP with one violation slack; None when infeasible."""
    nz = Aineq.shape[1]
    # variables (x, t): min t  s.t.  Aineq x - t <= bineq,  t >= 0
    c = np.zeros(nz + 1)
    c[-1] = 1.0
    A_ub = np.hstack([Aineq, -np.ones((Aineq.shape[0], 1))])
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=bineq,
        bounds=[(None, None)] * nz + [(0, None)],
        method="highs",
    )
    if not res.success or res.x is None:
        return None
    if res.x[-1] > 1e3 * FEAS_TOL:
        return None
    return res.x[:nz]


def qp_solve(
    Hm: np.ndarray,
    gv: np.ndarray,
    Aineq: np.ndarray | None = None,
    bineq: np.ndarray | None = None,
    active0: np.ndarray | None = None,
    max_pivots: int = 200,
) -> QPSolution:
    """Solve a dense strictly convex QP; see the module docstring.

    Args:
        active0: optional warm-start guess for the inequality active set.
        max_pivots: working-set change cap; exceeded -> status "max_iter".
    """
    H = 0.5 * (np.asarray(Hm, dtype=float) + np.asarray(Hm, dtype=float).T)
    g = np.asarray(gv, dtype=float)
    nz = g.size
    if H.shape != (nz, nz):
        raise DimensionError(f"H shape {H.shape} inconsistent with g size {nz}")
    Ain = np.zeros((0, nz)) if Aineq is None else np.atleast_2d(np.asarray(Aineq, dtype=float))
    bin_ = np.zeros(0) if bineq is None else np.atleast_1d(np.asarray(bineq, dtype=float))
    if Ain.shape != (bin_.size, nz):
        raise DimensionError("constraint matrix/vector shapes inconsistent")
    n_in = bin_.size

    def fail(status, iters=0):
        return QPSolution(
            primal=np.full(nz, np.nan),
            dual_ineq=np.full(n_in, np.nan),
            active_set=np.zeros(0, dtype=int),
            status=status,
            iterations=iters,
        )

    # Degenerate all-zero rows carry no direction; they are either trivially
    # satisfiable or certify infeasibility outright.  Without rows there is
    # nothing to scan.
    live = np.zeros(0, dtype=bool)
    if n_in:
        live = np.linalg.norm(Ain, axis=1) >= ZERO_ROW_TOL
        if (bin_[~live] < -FEAS_TOL).any():
            return fail("infeasible")

    if nz == 0:
        # nothing to choose (a fully pinned horizon): the zero rows above
        # decided feasibility
        return QPSolution(np.zeros(0), np.zeros(n_in), np.zeros(0, dtype=int), "converged", 0)

    def feasible(x):
        return np.all((Ain @ x - bin_)[live] <= FEAS_TOL)

    # solver._regularize certifies this same symmetrized matrix before calling
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return fail("diverged")

    # Starting point, in order of preference: the subproblem optimum on the
    # warm-started working set, the unconstrained optimum when feasible, and
    # finally a phase-1 LP point.
    x = None
    work: list[int] = []
    if active0 is not None:
        warm = [int(i) for i in np.asarray(active0, dtype=int) if 0 <= i < n_in and live[i]]
        if warm:
            x_w, _, resid_w = _solve_kkt(H, Ain[warm], g, bin_[warm])
            if resid_w <= 1e3 * FEAS_TOL and np.all(np.isfinite(x_w)) and feasible(x_w):
                x = x_w
                work = warm
    if x is None:
        x_free, _, resid = _solve_kkt(H, Ain[:0], g, bin_[:0])
        if resid <= 1e3 * FEAS_TOL and np.isfinite(x_free).all():
            if not live.any():
                # no row can block or leave: the free optimum is the solution
                return QPSolution(x_free, np.zeros(n_in), np.zeros(0, dtype=int), "converged", 0)
            if feasible(x_free):
                x = x_free
    if x is None:
        # without rows the free solve itself failed, and so will the first pivot
        x = _phase1_point(Ain[live], bin_[live]) if live.any() else np.zeros(nz)
        if x is None:
            return fail("infeasible")

    seen: set[frozenset] = set()
    bland = False

    for it in range(1, max_pivots + 1):
        key = frozenset(work)
        if key in seen:
            bland = True
        seen.add(key)

        g_eff = g + H @ x
        p, mu_work, resid = _solve_kkt(H, Ain[work], g_eff, 0.0)
        if resid > 1e3 * FEAS_TOL or not np.all(np.isfinite(p)):
            # with H positive definite only dependent working rows can do
            # this, and neither the warm start nor the pivots admit one
            return fail("diverged", it)

        # A step counts as zero when it is small relative to the iterate, or
        # when its predicted objective decrease drowns in the float rounding of
        # the objective itself.  On badly scaled data (curvature spreads of
        # 1e8 and more) the KKT solve has a noise floor well above any fixed
        # step tolerance, and only the decrease test tells noise from progress.
        decrease = -(g_eff @ p + 0.5 * p @ H @ p)
        q_now = 0.5 * x @ H @ x + g @ x
        noise = 100.0 * np.finfo(float).eps * (1.0 + abs(q_now))
        if np.max(np.abs(p)) <= FEAS_TOL * (1.0 + np.max(np.abs(x))) or decrease <= noise:
            if mu_work.size == 0 or np.min(mu_work) >= -FEAS_TOL:
                mu = np.zeros(n_in)
                mu[work] = np.maximum(mu_work, 0.0)
                return QPSolution(x, mu, np.sort(np.array(work, dtype=int)), "converged", it)
            if bland:
                drop = min(w for w, val in zip(work, mu_work) if val < -FEAS_TOL)
            else:
                drop = work[int(np.argmin(mu_work))]
            work.remove(drop)
            continue

        # Nonzero step: cut at the first blocking inequality.
        Ap = Ain @ p
        cand = live & (Ap > FEAS_TOL)
        cand[work] = False
        rows = np.flatnonzero(cand)
        alpha = 1.0
        blocker = None
        if rows.size:
            ratio = (bin_[rows] - Ain[rows] @ x) / Ap[rows]
            j = int(np.argmin(ratio))  # the first, lowest row on a tie
            if ratio[j] < 1.0 - 1e-15:
                alpha, blocker = max(ratio[j], 0.0), int(rows[j])
        x = x + alpha * p
        if blocker is not None:
            work.append(blocker)

    return fail("max_iter", max_pivots)
