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
step.  Every trial is evaluated in full, so the accepted one hands the next
iterate its evaluation.

Solving with a pinned first input prices Q(s, a); the free solve returns the
receding-horizon policy action u*_0 and its plan.  Both values are costs
(smaller is better).
"""

from __future__ import annotations

import math
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


_DEFAULT_SETTINGS = SolverSettings()


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
    """The structure of a spec's stacked problem: the stage slices of the
    decision vector and the flat positions of every stage block in the
    dynamics Jacobian C, the inequality Jacobian Hj and the Lagrangian
    Hessian HL.  It depends on the spec and the pin alone, so solves and
    sensitivities take it from :func:`_plan`, which builds it once."""

    def __init__(self, spec: OCPSpec, pinned: bool):
        self.spec = spec
        H, n, m = spec.H, spec.n, spec.m
        nz = self.nz = H * n + H * m
        self.n_dyn = H * n
        self.free = self.n_dyn + (m if pinned else 0)  # first free-input column
        self.n_in_rows = H * spec.n_ineq
        # per stage k: x_idx[k] indexes x_{k+1} in z (and stage k's dynamics
        # rows), u_idx[k] u_k, in_rows[k] its inequality rows; x_0 = s is data
        x = self.x_idx = np.arange(self.n_dyn).reshape(H, n)
        u = self.u_idx = self.n_dyn + np.arange(H * m).reshape(H, m)
        rows = self.in_rows = np.arange(self.n_in_rows).reshape(H, spec.n_ineq)
        # C holds -fx of the stages k >= 1 on (x_{k+1}, x_k) and -fu on
        # (x_{k+1}, u_k); Hj holds hx and hu on the same columns
        self.c_fx, self.c_fu = _flat(x[1:], x[:-1], nz), _flat(x, u, nz)
        self.h_hx, self.h_hu = _flat(rows[1:], x[:-1], nz), _flat(rows, u, nz)
        # HL holds the (x_k, u_k) blocks of the stages k >= 1, stage 0's u_0
        # block (x_0 = s being data) and the terminal x_H block: no two overlap
        xu = np.hstack([x[:-1], u[1:]])
        self.hl_stage, self.hl_u0 = _flat(xu, xu, nz), _flat(u[:1], u[:1], nz)
        self.hl_term = _flat(x[-1:], x[-1:], nz)
        # the last results of _linearize and _lagrangian_hessian, with the
        # bytes they were made from, and of _regularized, with its arguments:
        # a linear model repeats its stage Jacobians, and a quadratic cost its
        # Lagrangian Hessian, from iterate to iterate
        self.last_lin = self.last_hess = (None, None)
        self.last_reg = (None, None, None)

    def states(self, z: np.ndarray, s: np.ndarray) -> np.ndarray:
        """x_0..x_H as rows of an (H+1, n) array."""
        spec = self.spec
        return np.concatenate([s[None], z[: self.n_dyn].reshape(spec.H, spec.n)])

    def inputs(self, z: np.ndarray) -> np.ndarray:
        """u_0..u_{H-1} as rows of an (H, m) array."""
        return z[self.n_dyn :].reshape(self.spec.H, self.spec.m)


def _flat(rows: np.ndarray, cols: np.ndarray, ncols: int) -> np.ndarray:
    """Flat positions, in a matrix of ncols columns, of the blocks
    M[rows[k]][:, cols[k]] of all stages k, in the row-major order of their
    (stages, rows, cols) stack."""
    return (rows[:, :, None] * ncols + cols[:, None, :]).ravel()


def _plan(spec: OCPSpec, pinned: bool) -> _Stacker:
    """The spec's _Stacker for a free or a pinned first input, built at the
    first call and kept on the spec (a replaced spec builds its own)."""
    plan = spec._plans.get(pinned)
    if plan is None:
        plan = spec._plans[pinned] = _Stacker(spec, pinned)
    return plan


def _evaluate(st: _Stacker, phi, z, s):
    """(F, grad, c, h, jac) at z: the objective F and its gradient, the
    values c, h of the dynamics and inequality rows and the stage Jacobian
    blocks (fx, fu, hx, hu).  Each stage callback is called once, on all H
    stages."""
    spec = st.spec
    w, wH = spec.stage_weights()
    xs = st.states(z, s)
    X, us, xH = xs[:-1], st.inputs(z), xs[spec.H]
    # builtin sum adds the stages in order, whatever the horizon
    F = sum((w * spec.stage_cost(X, us, phi)).tolist()) + wH * spec.terminal_cost(xH, phi)
    lx, lu = spec.stage_grad(X, us, phi)
    # z holds x_1..x_H, then u_0..u_{H-1}; adding 0.0 turns -0.0 into +0.0,
    # as accumulating into zeros does
    grad = 0.0 + np.concatenate((w[1:, None] * lx[1:], wH * spec.terminal_grad(xH, phi),
                                 w[:, None] * lu), None)
    f, fx, fu = spec.dynamics_jac(X, us, phi)
    c = (xs[1:] - f).ravel()
    if spec.n_ineq:
        h = spec.ineq_constraints(X, us, phi).ravel()
        jac = (fx, fu, *spec.ineq_jac(X, us, phi))
    else:
        h, jac = np.zeros(0), (fx, fu, None, None)
    return float(F), grad, c, h, jac


def _jacobians(st: _Stacker, jac):
    """Jacobians C of the dynamics rows and Hj of the inequality rows,
    assembled from the stage blocks (fx, fu, hx, hu) of _evaluate."""
    fx, fu, hx, hu = jac
    C = np.zeros((st.n_dyn, st.nz))
    C.flat[:: st.nz + 1] = 1.0  # the identity on the state columns
    C.put(st.c_fx, -fx[1:])
    C.put(st.c_fu, -fu)
    Hj = np.zeros((st.n_in_rows, st.nz))
    if hx is not None:
        Hj.put(st.h_hx, hx[1:])
        Hj.put(st.h_hu, hu)
    return C, Hj


def _lagrangian_hessian(st: _Stacker, phi, z, s, lam):
    """Block Hessian of the Lagrangian; Gauss-Newton when dynamics supply no
    second derivatives (exact for linear models).  While the bytes of the
    callbacks' curvature blocks repeat, the plan's last HL is returned again;
    it is read-only."""
    spec = st.spec
    n = spec.n
    w, wH = spec.stage_weights()
    xs = st.states(z, s)
    us = st.inputs(z)
    blocks = tuple(spec.stage_hess(xs[:-1], us, phi))
    if spec.dynamics_hess_vp is not None:
        blocks += (spec.dynamics_hess_vp(xs[:-1], us, phi, lam.reshape(spec.H, n)),)
    blocks += (spec.terminal_hess(xs[spec.H], phi),)
    # The key must cover every input of HL that can differ between calls on
    # one plan: these curvature blocks.  The stage weights are fixed per spec
    # and the block positions per plan; an input added to HL joins the key.
    key = b"".join([b.tobytes() for b in blocks])
    last, HL = st.last_hess
    if last == key:
        return HL
    lxx, lxu, luu = blocks[:3]
    # the (x_k, u_k) block of every stage
    K = np.empty((spec.H, n + spec.m, n + spec.m))
    K[:, :n, :n], K[:, :n, n:], K[:, n:, :n], K[:, n:, n:] = lxx, lxu, np.swapaxes(lxu, -1, -2), luu
    K *= w[:, None, None]
    if spec.dynamics_hess_vp is not None:
        # constraint is x_{k+1} - f, so f-curvature enters with a minus
        K -= blocks[3]
    HL = np.zeros((st.nz, st.nz))
    HL.put(st.hl_stage, K[1:])
    HL.put(st.hl_u0, K[0, n:, n:])
    HL.put(st.hl_term, wH * blocks[-1])
    HL.flags.writeable = False
    st.last_hess = (key, HL)
    return HL


def _linearize(st: _Stacker, jac):
    """(C, Hj, Z): the Jacobians of the dynamics and inequality rows from the
    stage blocks jac, and the null-space basis Z of C.  While the blocks'
    bytes repeat, the plan's last triple is returned again; its arrays are
    read-only."""
    # C, Hj and Z depend on the plan and these blocks alone, so the blocks'
    # bytes are the whole key; an input added to them joins it
    key = b"".join([b.tobytes() for b in jac if b is not None])
    last, lin = st.last_lin
    if last != key:
        C, Hj = _jacobians(st, jac)
        lin = (C, Hj, _null_space(st, C))
        for a in lin:
            a.flags.writeable = False
        st.last_lin = (key, lin)
    return lin


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


def _state_step(st: _Stacker, C, c):
    """A step p0 with C p0 = -c on the dynamics rows that moves the states
    only; with the null-space basis Z of C it condenses the QP step."""
    p0 = np.zeros(st.nz)
    p0[: st.n_dyn] = _forward(C[:, : st.n_dyn], -c)
    return p0


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


def _regularized(st: _Stacker, HL, Z):
    """_regularize(HL, Z) for the read-only HL and Z of the plan's last
    _lagrangian_hessian and _linearize, returned again (read-only) while
    both are the same arrays."""
    # _regularize reads HL and Z alone, and read-only arrays kept alive by
    # this key cannot change or be replaced by new ones at the same address
    last_HL, last_Z, out = st.last_reg
    if last_HL is not HL or last_Z is not Z:
        out = _regularize(HL, Z)
        out[0].flags.writeable = out[1].flags.writeable = False
        st.last_reg = (HL, Z, out)
    return out


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
    X, U = z[: st.n_dyn].reshape(spec.H, spec.n), st.inputs(z)
    x = s
    u_hold = np.zeros(spec.m) if spec.u_init is None else np.asarray(spec.u_init, dtype=float)
    for k in range(spec.H):
        u = pinned_a if (k == 0 and pinned_a is not None) else u_hold
        U[k] = u
        x = np.asarray(spec.dynamics_jac(x, u, phi)[0], dtype=float)
        if not np.abs(x).max() <= 1e12:  # NaN fails the test too
            X[:] = 0.0
            U[:] = u_hold
            if pinned_a is not None:
                U[0] = pinned_a
            break
        X[k] = x
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

    Each iterate is evaluated once: the line-search trial it comes from
    carries its (F, grad, c, h, jac), which the finiteness checks then read.

    Returns (kkt, report).  kkt is None when the QP finds the linearized
    problem infeasible, or when an iterate, its objective, gradient,
    constraint values or stage Jacobians are not finite (status "diverged").
    On every other status ("max_iter", "stalled", or "diverged" from a QP
    that fails) the best iterate found is returned with its residual.
    """
    cfg = settings or _DEFAULT_SETTINGS
    s = np.array(s, dtype=float)  # copies, which the KKT points keep
    if s.shape != (spec.n,):
        raise ValueError(f"s shape {s.shape}, expected ({spec.n},)")
    if pinned_a is not None:
        pinned_a = np.array(pinned_a, dtype=float)
        if pinned_a.shape != (spec.m,):
            raise ValueError(f"pinned_a shape {pinned_a.shape}, expected ({spec.m},)")
    st = _plan(spec, pinned_a is not None)

    if warm_start is not None and warm_start.z.size == st.nz:
        z = warm_start.z
        if pinned_a is not None:
            z = z.copy()
            z[st.n_dyn : st.free] = pinned_a
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
    ev = None  # the evaluation of z, once the line search makes it

    for it in range(cfg.max_sqp_iters + 1):
        if ev is None:  # the first iterate, checked before it is evaluated
            if not np.isfinite(z).all():
                return None, SolveReport("diverged", it, np.inf)
            ev = _evaluate(st, phi, z, s)
        F, grad, c, h, jac = ev
        blocks = [b for b in jac if b is not None]
        if not (math.isfinite(F) and np.isfinite(np.concatenate((z, grad, c, h, *blocks), None)).all()):
            return None, SolveReport("diverged", it, np.inf)
        C, Hj, Z = _linearize(st, jac)
        resid = _kkt_residual(st, grad, c, h, C, Hj, lam, mu)
        # iterates are rebound, never changed in place, so points share them
        point = KKTPoint(z, lam, mu, h, active, F, resid, s, pinned_a, jac)
        if best is None or resid < best[0]:
            best = (resid, point)
        if resid <= cfg.kkt_tol:
            return point, SolveReport("converged", it, resid)
        if it == cfg.max_sqp_iters:
            break

        p0 = _state_step(st, C, c)
        HL, Hz, _sigma = _regularized(st, _lagrangian_hessian(st, phi, z, s, lam), Z)
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
            ev = _evaluate(st, phi, z_try, s)
            F_try, _, c_try, h_try, _ = ev
            if math.isfinite(F_try):
                m_try, _ = _merit(F_try, c_try, h_try, rho)
                if m_try <= m0 + ARMIJO_C1 * alpha * D + slack:
                    break
            alpha *= 0.5
        else:
            return best[1], SolveReport("stalled", it, best[0])
        z, lam, mu = z_try, lam_new, mu_new

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
    _require_converged(report, settings or _DEFAULT_SETTINGS)
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
    _require_converged(report, settings or _DEFAULT_SETTINGS)
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
