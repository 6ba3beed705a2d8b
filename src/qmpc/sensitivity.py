"""Parameter sensitivities of the OCP value and policy.

Both routes are taken at a converged KKT point, and both go through the
phi-gradient of the Lagrangian L = cost + lam'c + mu'h, assembled from the
spec's vector-Jacobian products, so no matrix p wide is ever built:

* value gradient — the envelope theorem: the derivative of the optimal pinned
  cost w.r.t. parameters is dL/dphi with the primal-dual point held fixed;
* policy Jacobian — implicit differentiation of the KKT system with the
  active set frozen, by its adjoint, the backward pass of OptNet (Amos &
  Kolter, ICML 2017) and of differentiable MPC (Amos et al., NeurIPS 2018):
  one solve of the symmetric KKT matrix for the m unit right-hand sides of
  the u_0 rows gives, for each input, the primal-dual direction along which
  dL/dphi is differentiated.  The solve is condensed over the free inputs,
  like the SQP step, from the stage Jacobian blocks the KKT point carries.

Nonsmooth points (weakly active constraints, near-touching inactive ones, or
rank-deficient constraint gradients) are tagged degenerate rather than
smoothed; callers decide whether to drop them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import QmpcError
from .ocp import OCPSpec, ParameterVector, _rel_dev
from .qp import _solve_kkt
from .solver import (
    KKTPoint,
    SolverSettings,
    _eq_multipliers,
    _lagrangian_hessian,
    _linearize,
    _plan,
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
    approximate: bool = False


def _check_converged(kkt: KKTPoint):
    if kkt.kkt_residual > CONVERGED_TOL:
        raise QmpcError(
            f"sensitivities need a converged KKT point (residual {kkt.kkt_residual:.2e})"
        )


def _regularity(kkt: KKTPoint) -> str:
    """Strict complementarity check around the reported active set, on the
    inequality values the solver computed at the KKT point."""
    if not kkt.h.size:  # no row can be weakly active
        return "strict"
    active = np.zeros(kkt.h.size, dtype=bool)
    active[kkt.active_set] = True
    weak = np.any(kkt.mu[active] < DEGENERACY_TOL) or np.any(np.abs(kkt.h[~active]) < DEGENERACY_TOL)
    return "degenerate" if weak else "strict"


def _lagrangian_phi_grad(st: _Stacker, phi, z, s, lam, direction=None):
    """dL/dphi at the primal-dual point (z, lam), shape (p,); or, given k
    primal-dual directions (dz (k, nz), dlam (k, n_dyn)), the derivative
    along each, d/dphi (grad_z L . dz + c . dlam), shape (k, p).

    The inequalities do not depend on phi, so mu drops out.  A
    phi-derivative callback that is None contributes nothing.
    """
    spec = st.spec
    H, n = spec.H, spec.n
    w, wH = spec.stage_weights()
    xs = st.states(z, s)
    X, U, Lam = xs[:-1], st.inputs(z), lam.reshape(H, n)
    if direction is None:
        terminal = spec.terminal_phi(xs[H], phi)
        terms = [(w[:, None], spec.stage_phi, (X, U, phi)),
                 (-1.0, spec.dynamics_phi_vp, (X, U, phi, Lam))]
    else:
        dz, dlam = direction
        k = dz.shape[0]
        dZx = dz[:, : st.n_dyn].reshape(k, H, n)  # dx_1..dx_H
        dX = np.zeros((k, H, n))  # dx_0 = 0: x_0 = s is data
        dX[:, 1:] = dZx[:, :-1]
        dU = dz[:, st.n_dyn :].reshape(k, H, spec.m)
        # the point, repeated for each direction
        X, U, Lam = X[None].repeat(k, 0), U[None].repeat(k, 0), Lam[None].repeat(k, 0)
        terminal = np.array([spec.terminal_grad_phi_vp(xs[H], phi, dx) for dx in dZx[:, -1]])
        terms = [(w[:, None], spec.stage_grad_phi_vp, (X, U, phi, dX, dU)),
                 (-1.0, spec.dynamics_jac_phi_vp, (X, U, phi, Lam, dX, dU)),
                 (-1.0, spec.dynamics_phi_vp, (X, U, phi, dlam.reshape(k, H, n)))]
    grad = wH * terminal
    for scale, fn, args in terms:
        if fn is not None:
            # the stages are added in order
            grad = grad + np.add.reduce(scale * fn(*args), axis=-2)
    return grad


def grad_q_wrt_params(spec: OCPSpec, phi: ParameterVector, kkt: KKTPoint) -> SensitivityResult:
    """Gradient of the pinned optimal cost w.r.t. phi (envelope theorem).

    Only the explicit parameter dependence of cost and dynamics contributes;
    the primal-dual point is held fixed.  Works for pinned solves (gradient
    of Q) and free solves alike (gradient of the optimal value).
    """
    _check_converged(kkt)
    st = _plan(spec, kkt.pinned_a is not None)
    return SensitivityResult(
        grad_value=_lagrangian_phi_grad(st, phi, kkt.z, kkt.s, kkt.lam),
        jac_action=None,
        regularity=_regularity(kkt),
        approximate=spec.dynamics_hess_vp is None,
    )


def jac_policy_wrt_params(spec: OCPSpec, phi: ParameterVector, kkt: KKTPoint) -> SensitivityResult:
    """Jacobian of the first optimal input w.r.t. phi, by one adjoint solve.

    Differentiating the KKT system with the active set frozen gives

        K [dz; dlam; dmu_A] = -[d(grad_z L)/dphi; dc/dphi; 0],
        K = [[H_L, C_eq', C_A'], [C_eq, 0, 0], [C_A, 0, 0]],

    and du_0/dphi = E' [dz; ...] for the selector E of the u_0 rows.  K is
    symmetric, so one solve K Y = E, for the m columns of E at once, turns
    the Jacobian into -d/dphi (grad_z L . dz + c . dlam) along the m
    directions (dz, dlam) that Y holds.  With dz = Z v over the null-space
    basis Z of C_eq, and Z'E = E_v the unit columns of the free u_0, K Y = E
    condenses to the QP's saddle-point solve (qp._solve_kkt)

        [[Z'H_L Z, (C_A Z)'], [C_A Z, 0]] [v; dmu_A] = [E_v; 0],

    and dlam follows from stationarity by a transposed triangular solve.  C_eq
    and C_A come from the KKT point's stage blocks: no dynamics or constraint
    callback runs.  A singular system or a failed regularity check yields
    regularity="degenerate".  The dynamics rows are full rank by
    construction, so LICQ reduces to full row rank of C_A Z.
    """
    _check_converged(kkt)
    if kkt.pinned_a is not None:
        raise QmpcError("policy Jacobian needs a free solve")
    st = _plan(spec, False)
    z, s, lam = kkt.z, kkt.s, kkt.lam
    C, Hj, Z = _linearize(st, kkt.jac)
    C_A = Hj[np.asarray(kkt.active_set, dtype=int)]
    C_AZ = C_A @ Z
    regularity = _regularity(kkt)
    if C_A.size and np.linalg.matrix_rank(C_AZ) < C_A.shape[0]:
        regularity = "degenerate"

    HL = _lagrangian_hessian(st, phi, z, s, lam)
    v, dmu, resid = _solve_kkt(Z.T @ HL @ Z, C_AZ, -np.eye(Z.shape[1], spec.m), 0.0)
    if resid > 1e-6:  # a singular system gives inf
        regularity = "degenerate"
    dz = Z @ v
    # E is zero on the state columns, where _eq_multipliers reads stationarity
    dlam = _eq_multipliers(st, C, HL @ dz + C_A.T @ dmu)
    # row-major, so the stage slices of each direction are contiguous views
    directions = (np.ascontiguousarray(dz.T), np.ascontiguousarray(dlam.T))
    jac = -_lagrangian_phi_grad(st, phi, z, s, lam, directions)
    return SensitivityResult(grad_value=None, jac_action=jac, regularity=regularity,
                             approximate=spec.dynamics_hess_vp is None)


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
    excluded with a warning.  The perturbed solves start from the base plan
    with zero multipliers: warm with the base multipliers too, a solve whose
    residual at the base point is already within tolerance would return that
    point at iteration 0, and the difference would read the perturbation as
    having no effect.
    """
    s = np.asarray(s, dtype=float)
    if a is None:
        act, kkt = mpc_policy(spec, phi, s, settings=settings)
        analytic = jac_policy_wrt_params(spec, phi, kkt).jac_action
    else:
        a = np.asarray(a, dtype=float)
        _, kkt = mpc_qvalue(spec, phi, s, a, settings=settings)
        analytic = grad_q_wrt_params(spec, phi, kkt).grad_value
    warm = replace(kkt, lam=np.zeros_like(kkt.lam), mu=np.zeros_like(kkt.mu))

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
                    act_p, _ = mpc_policy(spec, phi_p, s, warm_start=warm, settings=settings)
                    cols.append(act_p)
                else:
                    q_p, _ = mpc_qvalue(spec, phi_p, s, a, warm_start=warm, settings=settings)
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
