"""Multiple-shooting SQP solver for parametric OCPs.

The decision vector stacks z = [x_1..x_H, u_0..u_{H-1}]; the initial state is
eliminated (x_0 = s enters the data).  A pinned first input is data too:
u_0 = a is written into z, and no step moves it.  Dynamics become equality
constraints x_{k+1} - f(x_k, u_k, phi) = 0, and stage inequalities
h(x_k, u_k, phi) <= 0 stack over the horizon.

Each SQP iteration condenses the linearized dynamics (Bock & Plitt 1984): the
step is p = p0 + Z v, where p0 satisfies those rows and moves the states
only, and Z = [dX/dU; I] spans their null space over the free inputs (u_1..
when u_0 is pinned).  The active-set QP in v, on the (regularized) Lagrangian
Hessian reduced by Z, carries the inequality rows only; the multipliers of
the dynamics rows follow from stationarity by one transposed triangular
solve.  A backtracking line search on an l1 merit function globalizes the
step.  Its unit step is evaluated with the gradient and the stage Jacobians,
so an accepted unit step hands the next iterate its evaluation and each
iterate is evaluated once; a backtracked trial evaluates values only.

Solving with a pinned first input prices Q(s, a); the free solve returns the
receding-horizon policy action u*_0 and its plan.  Both values are costs
(smaller is better).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import DivergenceError, InfeasibleError, NonConvergenceError
from .ocp import OCPSpec, ParameterVector
from .qp import qp_solve

SIGMA0 = 1e-8  # first Hessian shift tried by the regularization
ARMIJO_C1 = 1e-4  # sufficient-decrease fraction of the line search
RHO_FACTOR = 2.0  # merit penalty over the largest multiplier
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SolverSettings:
    """Numerical knobs; every field can be overridden from the experiment config."""

    kkt_tol: float = 1e-8
    max_sqp_iters: int = 50
    max_qp_pivots: int = 200
    alpha_min: float = 1e-10

    def __post_init__(self):
        if self.max_sqp_iters < 0:  # solve_ocp needs one iterate to report
            raise ValueError("max_sqp_iters must be >= 0")


@dataclass(frozen=True)
class KKTPoint:
    """Primal-dual solution of one OCP solve.

    lam covers the dynamics rows, H*n of them whether or not u_0 is pinned:
    a pinned u_0 = a is data, like x_0 = s, and has no multiplier.  mu covers
    the stacked stage inequalities (H blocks of n_ineq rows), and h holds
    their values at z.  active_set indexes rows of mu that are tight.  jac
    holds the stage Jacobian blocks (fx, fu, hx, hu) that dynamics_jac and
    ineq_jac returned at z (hx, hu None without inequality rows), so the
    sensitivities reuse the solver's last evaluation instead of calling the
    callbacks again.
    """

    z: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    h: np.ndarray
    active_set: np.ndarray
    objective: float
    kkt_residual: float
    s: np.ndarray
    pinned_a: np.ndarray | None
    jac: tuple


@dataclass(frozen=True)
class SolveReport:
    # converged | max_iter (SQP iteration cap, or QP pivot cap) | stalled (the
    # line search found no acceptable step) | infeasible | diverged
    status: str
    iterations: int
    kkt_residual: float


class _Stacker:
    """Index bookkeeping for the stacked decision vector and constraint rows."""

    def __init__(self, spec: OCPSpec, pinned: bool):
        self.spec = spec
        H, n, m = spec.H, spec.n, spec.m
        self.nz = H * n + H * m
        self.n_dyn = H * n
        self.free = self.n_dyn + (m if pinned else 0)  # first free-input column
        self.n_in_rows = H * spec.n_ineq
        # per stage k: x_idx[k] indexes x_{k+1} in z (and stage k's dynamics
        # rows), u_idx[k] u_k, in_rows[k] its inequality rows; x_0 = s is data
        self.x_idx = np.arange(self.n_dyn).reshape(H, n)
        self.u_idx = self.n_dyn + np.arange(H * m).reshape(H, m)
        self.in_rows = np.arange(self.n_in_rows).reshape(H, spec.n_ineq)

    def states(self, z: np.ndarray, s: np.ndarray) -> np.ndarray:
        """x_0..x_H as rows of an (H+1, n) array."""
        spec = self.spec
        return np.concatenate([s[None], z[: self.n_dyn].reshape(spec.H, spec.n)])

    def inputs(self, z: np.ndarray) -> np.ndarray:
        """u_0..u_{H-1} as rows of an (H, m) array."""
        return z[self.n_dyn :].reshape(self.spec.H, self.spec.m)


def _blocks(rows: np.ndarray, cols: np.ndarray):
    """Index of the blocks M[rows[k]][:, cols[k]] of all stages k at once."""
    return rows[:, :, None], cols[:, None, :]


def _evaluate(st: _Stacker, phi, z, s, derivatives=True):
    """(F, grad, c, h, jac) at z: the objective F, the values c, h of the
    dynamics and inequality rows and, with ``derivatives``, the gradient of F
    and the stage Jacobian blocks (fx, fu, hx, hu) (else both None).  Each
    stage callback is called once, on all H stages."""
    spec = st.spec
    w, wH = spec.stage_weights()
    xs = st.states(z, s)
    X, us = xs[:-1], st.inputs(z)
    # builtin sum adds the stages in order, whatever the horizon
    F = sum(w * spec.stage_cost(X, us, phi))
    F += wH * spec.terminal_cost(xs[spec.H], phi)
    grad = jac = None
    if derivatives:
        lx, lu = spec.stage_grad(X, us, phi)
        # z holds x_1..x_H, then u_0..u_{H-1}; adding 0.0 turns -0.0 into
        # +0.0, as accumulating into zeros does
        grad = 0.0 + np.concatenate([(w[1:, None] * lx[1:]).ravel(),
                                     wH * spec.terminal_grad(xs[spec.H], phi),
                                     (w[:, None] * lu).ravel()])
        f, fx, fu = spec.dynamics_jac(X, us, phi)
    else:
        f = spec.dynamics(X, us, phi)
    c = (xs[1:] - f).ravel()
    h = spec.ineq_constraints(X, us, phi).ravel() if spec.n_ineq else np.zeros(0)
    if derivatives:
        jac = (fx, fu) + (spec.ineq_jac(X, us, phi) if spec.n_ineq else (None, None))
    return float(F), grad, c, h, jac


def _jacobians(st: _Stacker, jac):
    """Jacobians C of the dynamics rows and Hj of the inequality rows,
    assembled from the stage blocks (fx, fu, hx, hu) of _evaluate."""
    fx, fu, hx, hu = jac
    C = np.zeros((st.n_dyn, st.nz))
    C.flat[:: st.nz + 1] = 1.0  # the identity on the state columns
    C[_blocks(st.x_idx[1:], st.x_idx[:-1])] = -fx[1:]
    C[_blocks(st.x_idx, st.u_idx)] = -fu
    Hj = np.zeros((st.n_in_rows, st.nz))
    if hx is not None:
        Hj[_blocks(st.in_rows[1:], st.x_idx[:-1])] = hx[1:]
        Hj[_blocks(st.in_rows, st.u_idx)] = hu
    return C, Hj


def _lagrangian_hessian(st: _Stacker, phi, z, s, lam):
    """Block Hessian of the Lagrangian; Gauss-Newton when dynamics supply no
    second derivatives (exact for linear models)."""
    spec = st.spec
    n = spec.n
    w, wH = spec.stage_weights()
    xs = st.states(z, s)
    us = st.inputs(z)
    lxx, lxu, luu = spec.stage_hess(xs[:-1], us, phi)
    # the (x_k, u_k) block of every stage
    K = np.empty((spec.H, n + spec.m, n + spec.m))
    K[:, :n, :n], K[:, :n, n:], K[:, n:, :n], K[:, n:, n:] = lxx, lxu, np.swapaxes(lxu, -1, -2), luu
    K *= w[:, None, None]
    if spec.dynamics_hess_vp is not None:
        # constraint is x_{k+1} - f, so f-curvature enters with a minus
        K -= spec.dynamics_hess_vp(xs[:-1], us, phi, lam.reshape(spec.H, n))
    # (x_k, u_k) of the stages k >= 1; stage 0 has u_0 alone, x_0 = s being
    # data, and x_H the terminal block: no two blocks overlap
    xu = np.hstack([st.x_idx[:-1], st.u_idx[1:]])
    HL = np.zeros((st.nz, st.nz))
    HL[_blocks(xu, xu)] = K[1:]
    HL[_blocks(st.u_idx[:1], st.u_idx[:1])] = K[:1, n:, n:]
    HL[_blocks(st.x_idx[-1:], st.x_idx[-1:])] = wH * spec.terminal_hess(xs[spec.H], phi)
    return HL


def _forward(Cx, b, trans=0):
    """C_x^-1 b, or C_x^-T b with trans=1, for the unit lower block-triangular
    state columns C_x of the dynamics rows C: LAPACK's trtrs as scipy's
    solve_triangular calls it, without that wrapper's checks (solve_ocp
    returns "diverged" before a non-finite linearization reaches it)."""
    return dtrtrs(Cx.T, b, lower=0, trans=1 - trans, unitdiag=1)[0]


def _null_space(st: _Stacker, C):
    """Null-space basis Z = [-C_x^-1 C_u; I] of the dynamics rows C over the
    free inputs (u_1.. when u_0 is pinned), by forward substitution."""
    n_dyn, free = st.n_dyn, st.free
    nv = st.nz - free
    Z = np.zeros((st.nz, nv))
    Z[:n_dyn] = -_forward(C[:, :n_dyn], C[:, free:])
    Z.flat[free * nv :: nv + 1] = 1.0  # the identity on the free inputs
    return Z


def _condense(st: _Stacker, C, c):
    """Null-space basis Z of the dynamics rows C and a step p0 with C p0 = -c
    that moves the states only."""
    p0 = np.zeros(st.nz)
    p0[: st.n_dyn] = _forward(C[:, : st.n_dyn], -c)
    return _null_space(st, C), p0


def _eq_multipliers(st: _Stacker, C, r):
    """Multipliers of the dynamics rows from stationarity r + C' lam = 0 on
    the state columns, where r = HL p + grad + Hj' mu; r (nz,) gives lam
    (n_dyn,), and k columns (nz, k) give (n_dyn, k)."""
    return -_forward(C[:, : st.n_dyn], r[: st.n_dyn], trans=1)


def _regularize(HL, Z):
    """Smallest sigma (doubling from SIGMA0) making Z'(HL+sigma I)Z positive
    definite; returns HL + sigma I, that reduced Hessian and sigma.

    The reduced Hessian is symmetrized before it is factored, so qp_solve's
    own symmetrization leaves it bit for bit unchanged and its Cholesky
    test repeats this one."""
    M = Z.T @ HL @ Z
    ZtZ = Z.T @ Z
    sigma = 0.0
    while sigma < 1e10:
        Ms = M + sigma * ZtZ
        Ms = 0.5 * (Ms + Ms.T)
        try:
            np.linalg.cholesky(Ms)
            return HL + (sigma * np.eye(HL.shape[0]) if sigma else 0.0), Ms, sigma
        except np.linalg.LinAlgError:
            sigma = SIGMA0 if sigma == 0.0 else 2.0 * sigma
    raise DivergenceError("Hessian regularization failed to reach positive definiteness")


def _merit(F, c, h, rho):
    viol = np.abs(c).sum() + np.maximum(h, 0.0).sum()
    return F + rho * viol, viol


def _kkt_residual(st: _Stacker, grad, c, h, C, Hj, lam, mu):
    stat = grad + C.T @ lam + (Hj.T @ mu if mu.size else 0.0)
    stat[st.n_dyn : st.free] = 0.0  # a pinned u_0 is data, not a decision
    parts = [np.abs(stat).max() if stat.size else 0.0]
    parts.append(np.abs(c).max() if c.size else 0.0)
    if h.size:
        parts.append(float(np.maximum(h, 0.0).max()))
        parts.append(float(np.abs(mu * h).max()))
        parts.append(float(max(0.0, -mu.min())))
    return float(max(parts))


def _initial_iterate(st: _Stacker, phi, s, pinned_a):
    """Forward rollout under the spec's cold-start (or pinned) input; zeros on
    blow-up."""
    spec = st.spec
    z = np.zeros(st.nz)
    x = s
    ok = True
    u_hold = np.zeros(spec.m) if spec.u_init is None else np.asarray(spec.u_init, dtype=float)
    for k in range(spec.H):
        u = pinned_a if (k == 0 and pinned_a is not None) else u_hold
        z[st.u_idx[k]] = u
        x = np.asarray(spec.dynamics(x, u, phi), dtype=float)
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > 1e12:
            ok = False
            break
        z[st.x_idx[k]] = x
    if not ok:
        z = np.zeros(st.nz)
        z[st.u_idx] = u_hold
        if pinned_a is not None:
            z[st.u_idx[0]] = pinned_a
    return z


def solve_ocp(
    spec: OCPSpec,
    phi: ParameterVector,
    s: np.ndarray,
    pinned_a: np.ndarray | None = None,
    warm_start: KKTPoint | None = None,
    settings: SolverSettings | None = None,
) -> tuple[KKTPoint | None, SolveReport]:
    """Solve the OCP from state ``s``; pin the first input to price Q(s, a).

    Each iterate is evaluated once: the line search evaluates its unit step
    with derivatives, and when that step is accepted its (F, grad, c, h,
    jac) is the next iterate's evaluation, which the finiteness checks then
    read as if it were fresh.  After a backtracked step the next iterate is
    evaluated anew.

    Returns (kkt, report).  kkt is None when the QP finds the linearized
    problem infeasible, or when an iterate, its objective, gradient,
    constraint values or stage Jacobians are not finite (status "diverged").
    On every other status ("max_iter", "stalled", or "diverged" from a QP
    that fails) the best iterate found is returned with its residual.
    """
    cfg = settings or SolverSettings()
    s = np.array(s, dtype=float)  # copies, which the KKT points keep
    if s.shape != (spec.n,):
        raise ValueError(f"s shape {s.shape}, expected ({spec.n},)")
    if pinned_a is not None:
        pinned_a = np.array(pinned_a, dtype=float)
        if pinned_a.shape != (spec.m,):
            raise ValueError(f"pinned_a shape {pinned_a.shape}, expected ({spec.m},)")
    st = _Stacker(spec, pinned_a is not None)

    if warm_start is not None and warm_start.z.size == st.nz:
        z = warm_start.z
        if pinned_a is not None:
            z = z.copy()
            z[st.u_idx[0]] = pinned_a
        lam = warm_start.lam if warm_start.lam.size == st.n_dyn else np.zeros(st.n_dyn)
        mu = warm_start.mu if warm_start.mu.size == st.n_in_rows else np.zeros(st.n_in_rows)
        active = warm_start.active_set
    else:
        z = _initial_iterate(st, phi, s, pinned_a)
        lam = np.zeros(st.n_dyn)
        mu = np.zeros(st.n_in_rows)
        active = np.zeros(0, dtype=int)

    rho = 1.0
    best = None  # (residual, kkt_point)
    ev = None  # the evaluation of z, when the line search made it

    for it in range(cfg.max_sqp_iters + 1):
        if not np.isfinite(z).all():
            return None, SolveReport("diverged", it, np.inf)
        F, grad, c, h, jac = _evaluate(st, phi, z, s) if ev is None else ev
        finite = (np.isfinite(a).all() for a in (grad, c, h, *jac) if a is not None)
        if not (np.isfinite(F) and all(finite)):
            return None, SolveReport("diverged", it, np.inf)
        C, Hj = _jacobians(st, jac)
        resid = _kkt_residual(st, grad, c, h, C, Hj, lam, mu)
        # iterates are rebound, never changed in place, so points share them
        point = KKTPoint(z, lam, mu, h, active, F, resid, s, pinned_a, jac)
        if best is None or resid < best[0]:
            best = (resid, point)
        if resid <= cfg.kkt_tol:
            return point, SolveReport("converged", it, resid)
        if it == cfg.max_sqp_iters:
            break

        Z, p0 = _condense(st, C, c)
        HL, Hz, _sigma = _regularize(_lagrangian_hessian(st, phi, z, s, lam), Z)
        qp = qp_solve(
            Hz,
            Z.T @ (grad + HL @ p0),
            Aineq=Hj @ Z,
            bineq=-h - Hj @ p0,
            active0=active,
            max_pivots=cfg.max_qp_pivots,
        )
        if qp.status == "infeasible":
            return None, SolveReport("infeasible", it, resid)
        if qp.status in ("diverged", "max_iter"):
            return best[1], SolveReport(qp.status, it, best[0])
        p = p0 + Z @ qp.primal
        mu_new = qp.dual_ineq
        lam_new = _eq_multipliers(st, C, HL @ p + grad + Hj.T @ mu_new)
        active = qp.active_set

        mult_inf = np.abs(np.concatenate([lam_new, mu_new])).max()
        rho = max(rho, RHO_FACTOR * mult_inf + 1e-6)
        m0, viol0 = _merit(F, c, h, rho)
        # model slope of the merit function along p
        D = float(grad @ p) - rho * viol0
        # near a solution the predicted decrease drops below what float
        # arithmetic can resolve in the merit value; allow that much slack
        slack = 100.0 * EPS * (1.0 + abs(m0))
        alpha = 1.0
        while alpha >= cfg.alpha_min:
            z_try = z + alpha * p
            # the unit step is evaluated with derivatives: accepted, it is
            # the next iterate's evaluation; a backtracked trial needs values
            ev = _evaluate(st, phi, z_try, s, derivatives=alpha == 1.0)
            F_try, _, c_try, h_try, _ = ev
            if np.isfinite(F_try):
                m_try, _ = _merit(F_try, c_try, h_try, rho)
                if m_try <= m0 + ARMIJO_C1 * alpha * D + slack:
                    break
            alpha *= 0.5
        else:
            return best[1], SolveReport("stalled", it, best[0])
        z, ev = z_try, (ev if alpha == 1.0 else None)
        lam, mu = lam_new, mu_new

    return best[1], SolveReport("max_iter", cfg.max_sqp_iters, best[0])


def _require_converged(report: SolveReport, cfg: SolverSettings):
    if report.status == "converged":
        return
    if report.status == "infeasible":
        raise InfeasibleError(f"OCP infeasible after {report.iterations} iterations")
    if report.status == "diverged":
        raise DivergenceError("OCP solve diverged", step=report.iterations)
    if report.status == "stalled":
        reason = f"stalled: no acceptable line-search step at SQP iteration {report.iterations}"
    elif report.iterations < cfg.max_sqp_iters:
        reason = (
            f"hit the QP pivot cap (max_qp_pivots={cfg.max_qp_pivots}) "
            f"at SQP iteration {report.iterations}"
        )
    else:
        reason = f"hit the SQP iteration cap (max_sqp_iters={cfg.max_sqp_iters})"
    raise NonConvergenceError(
        f"OCP solve {reason}, residual {report.kkt_residual:.3e}",
        residual=report.kkt_residual,
    )


def mpc_policy(
    spec: OCPSpec,
    phi: ParameterVector,
    s: np.ndarray,
    warm_start: KKTPoint | None = None,
    settings: SolverSettings | None = None,
) -> tuple[np.ndarray, KKTPoint]:
    """First input of the free-horizon solve (the receding-horizon action).

    The returned KKTPoint holds the whole plan and multipliers for warm
    starting and sensitivity analysis.
    """
    kkt, report = solve_ocp(spec, phi, s, None, warm_start, settings)
    _require_converged(report, settings or SolverSettings())
    return kkt.z[spec.H * spec.n :][: spec.m].copy(), kkt  # u_0 follows the H states


def mpc_qvalue(
    spec: OCPSpec,
    phi: ParameterVector,
    s: np.ndarray,
    a: np.ndarray,
    warm_start: KKTPoint | None = None,
    settings: SolverSettings | None = None,
) -> tuple[float, KKTPoint]:
    """Optimal cost with (x_0, u_0) pinned to (s, a) — the Q-value in cost sign."""
    kkt, report = solve_ocp(spec, phi, s, a, warm_start, settings)
    _require_converged(report, settings or SolverSettings())
    return kkt.objective, kkt


class MPCController:
    """Stateful closed-loop wrapper around mpc_policy with warm starting.

    Suitable as the ``policy`` argument of :func:`qmpc.mdp.rollout`.  The
    parameter vector is a plain attribute; swap it to control with updated
    parameters.
    """

    def __init__(self, spec: OCPSpec, phi: ParameterVector, settings: SolverSettings | None = None):
        self.spec = spec
        self.phi = phi
        self.settings = settings
        self._warm: KKTPoint | None = None

    def reset(self):
        self._warm = None

    def __call__(self, s: np.ndarray) -> np.ndarray:
        a, kkt = mpc_policy(self.spec, self.phi, s, self._warm, self.settings)
        self._warm = kkt
        return a
