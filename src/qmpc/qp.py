"""Dense convex QP solver with a primal active-set method.

Solves
    min_x  1/2 x'Hx + g'x   s.t.  Aineq x <= bineq
with the sign convention that stationarity reads
    Hx + g + Aineq' mu = 0,   mu >= 0.

The QP has inequality rows only: the SQP eliminates its equality rows (the
dynamics and pin rows) by condensing before it calls here.

The working set is iterated in the classic primal fashion: take the step that
solves the current equality-constrained subproblem, cut it at the first
blocking inequality (which joins the working set), and drop the constraint
with the most negative multiplier when the step is zero.  If a working set
ever repeats, constraint selection switches to the lowest-index rule, which
cannot cycle.  Exact active sets (not just solutions) are part of the
contract, since parameter sensitivities are computed from them downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import DimensionError

FEAS_TOL = 1e-9
ZERO_ROW_TOL = 1e-14


@dataclass
class QPSolution:
    """Primal-dual QP solution with the final working set.

    status is one of converged / infeasible / diverged / max_iter; primal and
    duals are meaningful only when status == "converged".  diverged means the
    objective is unbounded below on the feasible set.
    """

    primal: np.ndarray
    dual_ineq: np.ndarray
    active_set: np.ndarray
    status: str
    iterations: int


def _solve_kkt(H, A, g, b):
    """Solve [H A'; A 0][x; y] = [-g; b]; returns (x, y, residual)."""
    nz = H.shape[0]
    nc = A.shape[0]
    K = np.zeros((nz + nc, nz + nc))
    K[:nz, :nz] = H
    if nc:
        K[:nz, nz:] = A.T
        K[nz:, :nz] = A
    rhs = np.concatenate([-g, b])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    resid = float(np.max(np.abs(K @ sol - rhs))) if rhs.size else 0.0
    scale = 1.0 + float(np.max(np.abs(rhs))) if rhs.size else 1.0
    return sol[:nz], sol[nz:], resid / scale


def _null_basis(A, nz):
    """Orthonormal basis of {p: A p = 0}; identity-like when A is empty."""
    if A.shape[0] == 0:
        return np.eye(nz)
    _, s, Vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > max(A.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)))
    return Vt[rank:].T


def _phase1_point(Aineq, bineq, tol):
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
    if res.x[-1] > 1e3 * tol:
        return None
    return res.x[:nz]


def qp_solve(
    Hm: np.ndarray,
    gv: np.ndarray,
    Aineq: np.ndarray | None = None,
    bineq: np.ndarray | None = None,
    active0: np.ndarray | None = None,
    tol: float = FEAS_TOL,
    max_pivots: int = 200,
) -> QPSolution:
    """Solve a dense convex QP; see the module docstring for conventions.

    Args:
        active0: optional warm-start guess for the inequality active set.
        tol: feasibility / dual-sign tolerance (KKT conditions hold within
            a small multiple of it on success).
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
    # satisfiable or certify infeasibility outright.
    live_in = np.array(
        [i for i in range(n_in) if np.linalg.norm(Ain[i]) >= ZERO_ROW_TOL], dtype=int
    )
    for i in range(n_in):
        if i not in live_in and bin_[i] < -tol:
            return fail("infeasible")

    if nz == 0:
        # nothing to choose (a fully pinned horizon): the zero rows above
        # decided feasibility
        return QPSolution(np.zeros(0), np.zeros(n_in), np.zeros(0, dtype=int), "converged", 0)

    A_live = Ain[live_in]
    b_live = bin_[live_in]

    # The method assumes H is PSD (callers regularize first).  An indefinite
    # H means the objective is unbounded along some ray unless inequalities
    # happen to block it; that case is outside the contract and reported as
    # diverged.
    eigs = np.linalg.eigvalsh(H)
    if eigs[0] < -1e-9 * max(1.0, abs(eigs[-1])):
        return fail("diverged")

    # Starting point, in order of preference: the subproblem optimum on the
    # warm-started working set, the unconstrained optimum when feasible, and
    # finally a phase-1 LP point.
    x = None
    work: list[int] = []
    if active0 is not None:
        warm = []
        for i in np.asarray(active0, dtype=int):
            pos = np.flatnonzero(live_in == i)
            if pos.size:
                warm.append(int(pos[0]))
        if warm:
            x_w, _, resid_w = _solve_kkt(H, A_live[warm], g, b_live[warm])
            if (
                resid_w <= 1e3 * tol
                and np.all(np.isfinite(x_w))
                and np.max(A_live @ x_w - b_live) <= tol
            ):
                x = x_w
                work = warm
    if x is None:
        x_free, _, resid = _solve_kkt(H, np.zeros((0, nz)), g, np.zeros(0))
        if (
            resid <= 1e3 * tol
            and np.all(np.isfinite(x_free))
            and (A_live.size == 0 or np.max(A_live @ x_free - b_live) <= tol)
        ):
            x = x_free
    if x is None:
        if A_live.size:
            x = _phase1_point(A_live, b_live, tol)
        else:
            # No constraints at all: every point is feasible; start at the
            # origin and let the pivot loop certify unboundedness if any.
            x = np.zeros(nz)
        if x is None:
            return fail("infeasible")

    seen: set[frozenset] = set()
    bland = False

    for it in range(1, max_pivots + 1):
        key = frozenset(work)
        if key in seen:
            bland = True
        seen.add(key)

        A_act = A_live[work]
        g_eff = g + H @ x
        p, mu_work, resid = _solve_kkt(H, A_act, g_eff, np.zeros(len(work)))

        if resid > 1e3 * tol or not np.all(np.isfinite(p)):
            # Singular subproblem: look for unblocked descent along the
            # constraint null space (unbounded objective), else acquire the
            # first blocking constraint and continue.
            Z = _null_basis(A_act, nz)
            if Z.shape[1] == 0:
                return fail("diverged", it)
            M = Z.T @ H @ Z
            evals, evecs = np.linalg.eigh(M)
            gz = Z.T @ g_eff
            if evals[0] < -tol:
                d = Z @ evecs[:, 0]
            else:
                # PSD but singular: a null direction with nonzero slope.
                null_mask = np.abs(evals) <= max(tol, 1e-12 * abs(evals[-1]))
                dir_z = evecs[:, null_mask] @ (evecs[:, null_mask].T @ gz)
                if np.linalg.norm(dir_z) <= tol:
                    return fail("diverged", it)
                d = Z @ dir_z
            if g_eff @ d > 0:
                d = -d
            d /= max(np.linalg.norm(d), 1e-30)
            cand = [
                (float((b_live[i] - A_live[i] @ x) / (A_live[i] @ d)), i)
                for i in range(len(live_in))
                if i not in work and A_live[i] @ d > tol
            ]
            if not cand:
                return fail("diverged", it)
            alpha, j = min(cand, key=lambda c: (c[0], c[1]))
            x = x + max(alpha, 0.0) * d
            work.append(j)
            continue

        # A step counts as zero when it is small relative to the iterate, or
        # when its predicted objective decrease drowns in the float rounding of
        # the objective itself.  On badly scaled data (curvature spreads of
        # 1e8 and more) the KKT solve has a noise floor well above any fixed
        # step tolerance, and only the decrease test tells noise from progress.
        decrease = -(g_eff @ p + 0.5 * p @ H @ p)
        q_now = 0.5 * x @ H @ x + g @ x
        if np.max(np.abs(p)) <= tol * (1.0 + np.max(np.abs(x))) or decrease <= 100.0 * np.finfo(
            float
        ).eps * (1.0 + abs(q_now)):
            if mu_work.size == 0 or np.min(mu_work) >= -tol:
                mu = np.zeros(n_in)
                for w, val in zip(work, mu_work):
                    mu[live_in[w]] = max(float(val), 0.0)
                active = np.sort(live_in[np.array(work, dtype=int)]) if work else np.zeros(0, dtype=int)
                return QPSolution(
                    primal=x,
                    dual_ineq=mu,
                    active_set=active,
                    status="converged",
                    iterations=it,
                )
            neg = [w for w, val in zip(work, mu_work) if val < -tol]
            if bland:
                drop = min(neg, key=lambda w: live_in[w])
            else:
                drop = work[int(np.argmin(mu_work))]
            work.remove(drop)
            continue

        # Nonzero step: cut at the first blocking inequality.
        cand = [
            (float((b_live[i] - A_live[i] @ x) / (A_live[i] @ p)), i)
            for i in range(len(live_in))
            if i not in work and A_live[i] @ p > tol
        ]
        alpha = 1.0
        blocker = None
        if cand:
            a_min, j = min(cand, key=lambda c: (c[0], live_in[c[1]]) if bland else (c[0], c[1]))
            if a_min < 1.0 - 1e-15:
                alpha, blocker = max(a_min, 0.0), j
        x = x + alpha * p
        if blocker is not None:
            work.append(blocker)

    return fail("max_iter", max_pivots)
