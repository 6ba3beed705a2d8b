"""Envelope value gradients and implicit policy Jacobians w.r.t. parameters."""

import dataclasses

import numpy as np
import pytest

from qmpc import dp, solver
from qmpc.envs import build_cstr_ocp
from qmpc.errors import QmpcError
from qmpc.ocp import OCPSpec, ParameterVector, _fd_jac, _rel_dev, build_lq_ocp, validate_spec
from qmpc.sensitivity import (
    finite_diff_check,
    grad_q_wrt_params,
    jac_policy_wrt_params,
)
from qmpc.solver import SolverSettings, mpc_policy, mpc_qvalue
from tests.conftest import A2, B2, GAMMA, Q2, R2, make_scalar_ocp


def seg(phi: ParameterVector, name: str) -> slice:
    return slice(*phi.layout[name])


# ---------------------------------------------------------------------------
# closed forms


def test_pinned_gradient_closed_form_one_step():
    P = np.array([[3.0, 0.5], [0.5, 2.0]])
    spec, phi = build_lq_ocp(A2, B2, Q2, R2, P, H=1, gamma=GAMMA)
    s, a = np.array([1.2, -0.7]), np.array([0.4])
    _, kkt = mpc_qvalue(spec, phi, s, a)
    res = grad_q_wrt_params(spec, phi, kkt)
    assert res.regularity == "strict"
    assert res.approximate is False  # linear model ships exact curvature

    x1 = A2 @ s + B2 @ a
    lam = 2.0 * GAMMA * (P @ x1)  # costate of the single dynamics row
    expected = {
        "A": np.outer(lam, s).ravel(),
        "B": np.outer(lam, a).ravel(),
        "Q": np.outer(s, s).ravel(),
        "R": np.outer(a, a).ravel(),
        "P": GAMMA * np.outer(x1, x1).ravel(),
    }
    for name, want in expected.items():
        np.testing.assert_allclose(res.grad_value[seg(phi, name)], want, atol=1e-12)


def test_zero_trajectory_zero_gradient(lq2_ocp):
    spec, phi = lq2_ocp
    _, kkt = mpc_qvalue(spec, phi, np.zeros(2), np.zeros(1))
    res = grad_q_wrt_params(spec, phi, kkt)
    np.testing.assert_array_equal(res.grad_value, np.zeros(phi.size))


def test_terminal_constant_weight_gradient(cstr_cfg):
    # terminal cost is minus the value model, so the constant-feature weight
    # enters the pinned cost as -gamma^H exactly
    gamma, H = 0.98, 3
    x0 = np.array([0.8, 0.4, 130.0, 130.0])
    a = np.array([18.0, -4500.0])
    settings = SolverSettings(kkt_tol=1e-6)
    for discount, want in ((True, -(gamma**H)), (False, -1.0)):
        spec, phi = build_cstr_ocp(cstr_cfg, H=H, gamma=gamma,
                                   terminal_weights=np.zeros(15),
                                   discount_in_horizon=discount)
        _, kkt = mpc_qvalue(spec, phi, x0, a, settings=settings)
        res = grad_q_wrt_params(spec, phi, kkt)
        assert res.approximate is True  # reactor model has no exact curvature
        assert res.grad_value[0] == pytest.approx(want, abs=1e-8)


def test_dead_parameter_entry_is_structurally_zero():
    # scalar problem with layout [q, r, dead]; the last entry feeds nothing
    phi = ParameterVector.from_segments(
        {"q": np.array([1.5]), "r": np.array([0.4]), "dead": np.array([9.9])}
    )

    def mk(pv):
        return float(pv.phi[0]), float(pv.phi[1])

    def blocks(x, *values):
        # one (1, 1) block per stage of the batch x (..., 1)
        return [np.broadcast_to(v, x.shape[:-1] + (1, 1)) for v in values]

    spec = OCPSpec(
        H=1, n=1, m=1, gamma=0.9, discount_in_horizon=True,
        stage_cost=lambda x, u, pv: mk(pv)[0] * x[..., 0] ** 2 + mk(pv)[1] * u[..., 0] ** 2,
        stage_grad=lambda x, u, pv: (2 * mk(pv)[0] * x, 2 * mk(pv)[1] * u),
        stage_hess=lambda x, u, pv: tuple(blocks(x, 2 * mk(pv)[0], 0.0, 2 * mk(pv)[1])),
        stage_phi=lambda x, u, pv: np.stack(
            [x[..., 0] ** 2, u[..., 0] ** 2, np.zeros(x.shape[:-1])], axis=-1
        ),
        stage_grad_phi_vp=lambda x, u, pv, dx, du: np.stack(
            [2 * x[..., 0] * dx[..., 0], 2 * u[..., 0] * du[..., 0], np.zeros(dx.shape[:-1])],
            axis=-1,
        ),
        terminal_cost=lambda x, pv: float(x[0] ** 2),
        terminal_grad=lambda x, pv: 2 * x,
        terminal_hess=lambda x, pv: 2 * np.eye(1),
        terminal_phi=lambda x, pv: np.zeros(3),
        terminal_grad_phi_vp=lambda x, pv, dx: np.zeros(3),
        dynamics_jac=lambda x, u, pv: (0.5 * x + u, *blocks(x, 0.5, 1.0)),
        dynamics_hess_vp=lambda x, u, pv, lam: np.zeros(lam.shape[:-1] + (2, 2)),
    )
    assert validate_spec(spec, phi) == []
    s, a = np.array([1.2]), np.array([0.7])
    _, kkt = mpc_qvalue(spec, phi, s, a)
    res = grad_q_wrt_params(spec, phi, kkt)
    np.testing.assert_allclose(res.grad_value[:2], [s[0] ** 2, a[0] ** 2], atol=1e-12)
    assert res.grad_value[2] == 0.0

    _, kkt_free = mpc_policy(spec, phi, s)
    jac = jac_policy_wrt_params(spec, phi, kkt_free).jac_action
    assert jac[0, 2] == 0.0


# ---------------------------------------------------------------------------
# finite-difference agreement


def test_value_gradient_matches_fd(lq2_ocp):
    spec, phi = lq2_ocp
    dev = finite_diff_check(spec, phi, np.array([0.9, -0.4]), np.array([0.3]))
    assert dev <= 1e-5


def test_policy_jacobian_matches_fd(lq2_ocp):
    spec, phi = lq2_ocp
    dev = finite_diff_check(spec, phi, np.array([-0.6, 1.1]))
    assert dev <= 1e-5


def test_model_column_matches_fd_through_multi_step_chain():
    # perturbing B re-threads every stage of the rollout; single-column check
    spec, phi = make_scalar_ocp(H=3)
    b_index = phi.layout["B"][0]
    dev = finite_diff_check(
        spec, phi, np.array([1.4]), np.array([-0.5]), phi_indices=[b_index]
    )
    assert dev <= 1e-6


def test_fd_check_catches_corrupted_parameter_derivative(lq2_ocp):
    spec, phi = lq2_ocp
    orig = spec.stage_phi
    bad = dataclasses.replace(
        spec, stage_phi=lambda x, u, pv: 1.05 * orig(x, u, pv)
    )
    dev = finite_diff_check(bad, phi, np.array([0.9, -0.4]), np.array([0.3]))
    assert dev >= 1e-2


# ---------------------------------------------------------------------------
# constrained cases


def clamped_scalar():
    spec, phi = make_scalar_ocp(u_lo=-1.0, u_hi=1.0)
    A, B, Qc, Rc = (np.array([[0.8]]), np.array([[0.5]]),
                    np.array([[1.0]]), np.array([[0.2]]))
    _, K = dp.riccati_solve(A, B, Qc, Rc, 0.9)
    return spec, phi, float(K[0, 0])


def test_active_bound_freezes_policy_sensitivity():
    spec, phi, k = clamped_scalar()
    s = np.array([-2.0 / k])  # unconstrained action 2, clamped to 1
    a, kkt = mpc_policy(spec, phi, s)
    assert a[0] == pytest.approx(1.0, abs=1e-8)
    res = jac_policy_wrt_params(spec, phi, kkt)
    assert res.regularity == "strict"
    # bound active with a strictly positive multiplier: the first input is
    # pinned by the constraint, so its sensitivity vanishes identically
    for name in ("Q", "R", "P"):
        assert np.all(res.jac_action[:, seg(phi, name)] == 0.0)
    assert np.max(np.abs(res.jac_action)) == 0.0


def test_bound_touching_optimum_is_degenerate():
    spec, phi, k = clamped_scalar()
    s = np.array([-1.0 / k])  # unconstrained action lands exactly on the bound
    _, kkt = mpc_policy(spec, phi, s)
    res = jac_policy_wrt_params(spec, phi, kkt)
    assert res.regularity == "degenerate"


def test_inert_input_sensitive_only_to_its_own_gain():
    a_sc, p, r, gamma = 0.8, 2.0, 0.2, 0.9
    spec, phi = make_scalar_ocp(a=a_sc, b=0.0, q=1.0, r=r, gamma=gamma,
                                H=1, P=np.array([[p]]))
    s = np.array([1.0])
    _, kkt = mpc_policy(spec, phi, s)
    jac = jac_policy_wrt_params(spec, phi, kkt).jac_action
    for name in ("A", "Q", "R", "P"):
        assert np.max(np.abs(jac[:, seg(phi, name)])) <= 1e-12
    # d a* / d b at b = 0 for the one-step problem: -gamma p A s / r
    want = -gamma * p * a_sc * s[0] / r
    assert jac[0, seg(phi, "B")][0] == pytest.approx(want, rel=1e-8)


def test_adjoint_policy_jacobian_matches_forward_solve(cstr_cfg):
    # reference: the forward implicit-function solve, one right-hand side per
    # parameter, with the parameter derivatives of the stationarity and
    # dynamics residuals taken by central differences.  The reactor's
    # Gauss-Newton curvature keeps finite differences of the policy itself
    # from checking its Jacobian, but not this identity.
    spec, phi = build_cstr_ocp(cstr_cfg, H=3, gamma=0.98, terminal_weights=np.zeros(15))
    s = np.array([1.73154751, 0.89446543, 132.22181346, 120.32711988])
    settings = SolverSettings(kkt_tol=1e-8)
    _, kkt = mpc_policy(spec, phi, s, settings=settings)
    # c_B's upper bound binds at x_2 while the first input stays inside its box
    np.testing.assert_array_equal(kkt.active_set, [29])
    jac = jac_policy_wrt_params(spec, phi, kkt).jac_action
    assert np.max(np.abs(jac)) > 1e3

    st = solver._Stacker(spec, False)
    z, lam = kkt.z, kkt.lam

    def residual(v):
        pv = phi.with_vector(v)
        _, g, c, _, jac = solver._evaluate(st, pv, z, s)
        C, _ = solver._jacobians(st, jac)
        return np.concatenate([g + C.T @ lam, c])  # the inequality rows do not read phi

    C, Hj = solver._jacobians(st, solver._evaluate(st, phi, z, s)[4])
    G = np.vstack([C, Hj[kkt.active_set]])
    K = np.block([[solver._lagrangian_hessian(st, phi, z, s, lam), G.T],
                  [G, np.zeros((len(G), len(G)))]])
    rhs = -np.vstack([_fd_jac(residual, phi.phi), np.zeros((len(kkt.active_set), phi.size))])
    forward = np.linalg.solve(K, rhs)[st.u_idx[0]]
    assert _rel_dev(jac, forward) <= 1e-6


# ---------------------------------------------------------------------------
# envelope consistency and guards


def test_free_and_pinned_gradients_agree_at_the_policy(lq2_ocp):
    spec, phi = lq2_ocp
    s = np.array([0.7, 0.2])
    a, kkt_free = mpc_policy(spec, phi, s)
    _, kkt_pin = mpc_qvalue(spec, phi, s, a)
    g_free = grad_q_wrt_params(spec, phi, kkt_free).grad_value
    g_pin = grad_q_wrt_params(spec, phi, kkt_pin).grad_value
    np.testing.assert_allclose(g_free, g_pin, atol=1e-10)


def test_gradient_requires_convergence(lq2_ocp):
    spec, phi = lq2_ocp
    _, kkt = mpc_qvalue(spec, phi, np.array([0.5, 0.5]), np.array([0.1]))
    stale = dataclasses.replace(kkt, kkt_residual=1.0)
    with pytest.raises(QmpcError, match="converged"):
        grad_q_wrt_params(spec, phi, stale)


def test_policy_jacobian_rejects_pinned_solves(lq2_ocp):
    spec, phi = lq2_ocp
    _, kkt = mpc_qvalue(spec, phi, np.array([0.5, 0.5]), np.array([0.1]))
    with pytest.raises(QmpcError, match="free solve"):
        jac_policy_wrt_params(spec, phi, kkt)


def test_missing_curvature_marks_result_approximate(lq2_ocp):
    spec, phi = lq2_ocp
    gauss_newton = dataclasses.replace(spec, dynamics_hess_vp=None)
    _, kkt = mpc_qvalue(gauss_newton, phi, np.array([0.3, 0.3]), np.array([0.2]))
    assert grad_q_wrt_params(gauss_newton, phi, kkt).approximate is True
