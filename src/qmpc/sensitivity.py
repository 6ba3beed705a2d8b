"""Parameter sensitivities of the OCP value and policy.

Two routes, both taken at a converged KKT point:

* value gradient — the envelope theorem: the derivative of the optimal pinned
  cost w.r.t. parameters is the explicit parameter gradient of the Lagrangian,
  the primal-dual point held fixed;
* policy Jacobian — implicit differentiation of the stationarity system with
  the active set frozen, solved for the first-input rows of dz/dphi.

Nonsmooth points (weakly active constraints, near-touching inactive ones, or
rank-deficient constraint gradients) are tagged degenerate rather than
smoothed; callers decide whether to drop or fall back to finite differences.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import QmpcError
from .ocp import OCPSpec, ParameterVector, _rel_dev
from .solver import (
    KKTPoint,
    SolverSettings,
    _condense,
    _eval_constraints,
    _lagrangian_hessian,
    _Stacker,
    mpc_policy,
    mpc_qvalue,
)

log = logging.getLogger(__name__)

DEGENERACY_TOL = 1e-7
CONVERGED_TOL = 1e-6
FD_STEP_SCALE = 1e-6


@dataclass(frozen=True)
class SensitivityResult:
    """Either a value gradient (p,) or an action Jacobian (m, p).

    regularity is "strict" when strict complementarity and constraint-gradient
    independence hold at the KKT point, else "degenerate" (the numbers are
    then one-sided/unreliable).  approximate marks a Gauss-Newton Hessian
    surrogate (dynamics without second derivatives).
    """

    grad_value: np.ndarray | None
    jac_action: np.ndarray | None
    regularity: str
    method: str  # analytic | finite_difference
    approximate: bool = False


def _check_converged(kkt: KKTPoint, want_pinned: bool | None = None):
    if kkt.kkt_residual > CONVERGED_TOL:
        raise QmpcError(
            f"sensitivities need a converged KKT point (residual {kkt.kkt_residual:.2e})"
        )
    if want_pinned is False and kkt.pinned_a is not None:
        raise QmpcError("policy Jacobian needs a free solve")


def _regularity(spec: OCPSpec, phi: ParameterVector, kkt: KKTPoint) -> str:
    """Strict complementarity check around the reported active set."""
    st = _Stacker(spec, kkt.pinned_a is not None)
    _, _, h, _ = _eval_constraints(st, phi, kkt.z, kkt.s, kkt.pinned_a, with_jac=False)
    active = np.zeros(h.size, dtype=bool)
    active[kkt.active_set] = True
    weak = np.any(kkt.mu[active] < DEGENERACY_TOL) or np.any(np.abs(h[~active]) < DEGENERACY_TOL)
    return "degenerate" if weak else "strict"


def _phi_jacobians(st: _Stacker, spec: OCPSpec, phi, z, s, lam, mu):
    """Explicit phi-derivatives: of the Lagrangian z-gradient (nz, p), of the
    equality rows (n_eq_rows, p), and of the inequality rows (n_in, p).
    A phi-derivative callback that is None contributes nothing."""
    H, p = spec.H, phi.size
    xs = st.states(z, s)
    X, U = xs[:-1], st.inputs(z)
    w, wH = spec.stage_weights()
    Mz = np.zeros((st.nz, p))
    Cphi = np.zeros((st.n_eq_rows, p))
    Hphi = np.zeros((st.n_in_rows, p))
    if spec.stage_grad_phi is not None:
        dlx, dlu = spec.stage_grad_phi(X, U, phi)
        Mz[st.x_idx[:-1]] += w[1:, None, None] * dlx[1:]
        Mz[st.u_idx] += w[:, None, None] * dlu
    if spec.dynamics_jac_phi_vp is not None:
        djx, dju = spec.dynamics_jac_phi_vp(X, U, phi, lam[: st.n_dyn].reshape(H, spec.n))
        Mz[st.x_idx[:-1]] -= djx[1:]
        Mz[st.u_idx] -= dju
    if spec.dynamics_phi is not None:
        Cphi[: st.n_dyn] = -spec.dynamics_phi(X, U, phi).reshape(st.n_dyn, p)
    if spec.ineq_jac_phi_vp is not None:
        dhx, dhu = spec.ineq_jac_phi_vp(X, U, phi, mu.reshape(H, spec.n_ineq))
        Mz[st.x_idx[:-1]] += dhx[1:]
        Mz[st.u_idx] += dhu
    if spec.ineq_phi is not None:
        Hphi[:] = spec.ineq_phi(X, U, phi).reshape(st.n_in_rows, p)
    Mz[st.x_idx[-1]] += wH * spec.terminal_grad_phi(xs[H], phi)
    return Mz, Cphi, Hphi


def grad_q_wrt_params(spec: OCPSpec, phi: ParameterVector, kkt: KKTPoint) -> SensitivityResult:
    """Gradient of the pinned optimal cost w.r.t. phi (envelope theorem).

    Only the explicit parameter dependence of cost, dynamics, and constraints
    contributes; the primal-dual point is held fixed.  Works for pinned solves
    (gradient of Q) and free solves alike (gradient of the optimal value).
    """
    _check_converged(kkt)
    st = _Stacker(spec, kkt.pinned_a is not None)
    _, Cphi, Hphi = _phi_jacobians(st, spec, phi, kkt.z, kkt.s, kkt.lam, kkt.mu)
    xs = st.states(kkt.z, kkt.s)
    w, wH = spec.stage_weights()
    grad = np.zeros(phi.size)
    if spec.stage_phi is not None:
        # added stage by stage, in order
        grad = sum(w[:, None] * spec.stage_phi(xs[:-1], st.inputs(kkt.z), phi), grad)
    grad += wH * spec.terminal_phi(xs[spec.H], phi)
    grad += Cphi.T @ kkt.lam
    if st.n_in_rows:
        grad += Hphi.T @ kkt.mu
    return SensitivityResult(
        grad_value=grad,
        jac_action=None,
        regularity=_regularity(spec, phi, kkt),
        method="analytic",
        approximate=spec.dynamics_hess_vp is None,
    )


def jac_policy_wrt_params(spec: OCPSpec, phi: ParameterVector, kkt: KKTPoint) -> SensitivityResult:
    """Jacobian of the first optimal input w.r.t. phi.

    Differentiates the KKT stationarity system with the active set frozen:

        [ H_L   C_eq'  C_A' ] [ dz    ]     [ dL_z/dphi  ]
        [ C_eq   0      0   ] [ dlam  ] = - [ dc/dphi    ]
        [ C_A    0      0   ] [ dmu_A ]     [ dh_A/dphi  ]

    and returns the u_0 rows of dz/dphi.  A singular system or a failed
    regularity check yields regularity="degenerate".  The dynamics rows are
    full rank by construction, so LICQ reduces to full row rank of the active
    inequality rows on their null space.
    """
    _check_converged(kkt, want_pinned=False)
    st = _Stacker(spec, False)
    z, s, lam, mu = kkt.z, kkt.s, kkt.lam, kkt.mu
    c, C, _, Hj = _eval_constraints(st, phi, z, s, None)
    HL = _lagrangian_hessian(st, phi, z, s, lam)
    Mz, Cphi, Hphi = _phi_jacobians(st, spec, phi, z, s, lam, mu)

    active = np.asarray(kkt.active_set, dtype=int)
    C_A = Hj[active] if active.size else np.zeros((0, st.nz))
    Hphi_A = Hphi[active] if active.size else np.zeros((0, phi.size))

    regularity = _regularity(spec, phi, kkt)
    n_lam = st.n_eq_rows
    n_act = active.size
    dim = st.nz + n_lam + n_act
    K = np.zeros((dim, dim))
    K[: st.nz, : st.nz] = HL
    K[: st.nz, st.nz : st.nz + n_lam] = C.T
    K[st.nz : st.nz + n_lam, : st.nz] = C
    if n_act:
        K[: st.nz, st.nz + n_lam :] = C_A.T
        K[st.nz + n_lam :, : st.nz] = C_A
    rhs = -np.vstack([Mz, Cphi, Hphi_A])

    if n_act and np.linalg.matrix_rank(C_A @ _condense(st, C, c)[0]) < n_act:
        regularity = "degenerate"

    try:
        X = np.linalg.solve(K, rhs)
        resid = float(np.max(np.abs(K @ X - rhs))) if rhs.size else 0.0
    except np.linalg.LinAlgError:
        X = np.linalg.lstsq(K, rhs, rcond=None)[0]
        resid = float(np.max(np.abs(K @ X - rhs)))
        regularity = "degenerate"
    if resid > 1e-6 * (1.0 + float(np.max(np.abs(rhs)))):
        regularity = "degenerate"

    jac = X[st.u_idx[0]]
    return SensitivityResult(
        grad_value=None,
        jac_action=jac,
        regularity=regularity,
        method="analytic",
        approximate=spec.dynamics_hess_vp is None,
    )


def finite_diff_check(
    spec: OCPSpec,
    phi: ParameterVector,
    s: np.ndarray,
    a: np.ndarray | None = None,
    phi_indices=None,
    step_scale: float = FD_STEP_SCALE,
    settings: SolverSettings | None = None,
) -> float:
    """Max scaled deviation of the analytic sensitivity vs central differences.

    Pinned mode (``a`` given) checks the value gradient; free mode checks the
    policy Jacobian.  Per-index steps are step_scale*(1+|phi_i|); deviations
    are scaled by max(1, ||fd||_inf).  Indices whose perturbed solves fail are
    excluded with a warning.
    """
    s = np.asarray(s, dtype=float)
    if a is None:
        act, kkt = mpc_policy(spec, phi, s, settings=settings)
        analytic = jac_policy_wrt_params(spec, phi, kkt).jac_action
    else:
        a = np.asarray(a, dtype=float)
        _, kkt = mpc_qvalue(spec, phi, s, a, settings=settings)
        analytic = grad_q_wrt_params(spec, phi, kkt).grad_value

    indices = range(phi.size) if phi_indices is None else phi_indices
    max_dev = 0.0
    for i in indices:
        h = step_scale * (1.0 + abs(phi.phi[i]))
        cols = []
        failed = False
        for sign in (+1.0, -1.0):
            pert = phi.phi.copy()
            pert[i] += sign * h
            phi_p = phi.with_vector(pert)
            try:
                if a is None:
                    act_p, _ = mpc_policy(spec, phi_p, s, warm_start=kkt, settings=settings)
                    cols.append(act_p)
                else:
                    q_p, _ = mpc_qvalue(spec, phi_p, s, a, warm_start=kkt, settings=settings)
                    cols.append(q_p)
            except QmpcError as exc:
                log.warning("finite-diff check: perturbed solve failed at index %d: %s", i, exc)
                failed = True
                break
        if failed:
            continue
        fd = (np.asarray(cols[0]) - np.asarray(cols[1])) / (2.0 * h)
        max_dev = max(max_dev, _rel_dev(analytic[..., i], fd))
    return max_dev
