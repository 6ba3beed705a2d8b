"""OCP container, LQ builder, and self-validation."""

import dataclasses

import numpy as np
import pytest

from qmpc.errors import DimensionError
from qmpc.ocp import (
    OCPSpec,
    ParameterVector,
    build_lq_ocp,
    validate_spec,
)
from qmpc.solver import mpc_qvalue, solve_ocp
from tests.conftest import A2, B2, GAMMA, Q2, R2


# ---------------------------------------------------------------------------
# ParameterVector


def test_segments_round_trip():
    pv = ParameterVector.from_segments(
        {"A": np.array([[1.0, 2.0], [3.0, 4.0]]), "b": np.array([5.0])}
    )
    assert pv.size == 5
    assert pv.layout == {"A": (0, 4), "b": (4, 5)}
    np.testing.assert_array_equal(pv.segment("A"), [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(pv.segment("b"), [5.0])


def test_segment_returns_copy():
    pv = ParameterVector.from_segments({"a": np.array([1.0, 2.0])})
    pv.segment("a")[0] = 99.0
    assert pv.phi[0] == 1.0


def test_replace_is_functional():
    pv = ParameterVector.from_segments({"a": np.array([1.0]), "b": np.array([2.0, 3.0])})
    pv2 = pv.replace("b", np.array([[7.0, 8.0]]))
    np.testing.assert_array_equal(pv2.phi, [1.0, 7.0, 8.0])
    np.testing.assert_array_equal(pv.phi, [1.0, 2.0, 3.0])  # original untouched


def test_replace_wrong_size():
    pv = ParameterVector.from_segments({"a": np.array([1.0, 2.0])})
    with pytest.raises(DimensionError, match="segment 'a'"):
        pv.replace("a", np.zeros(3))


def test_layout_must_partition():
    with pytest.raises(ValueError, match="breaks the layout partition"):
        ParameterVector(phi=np.zeros(3), layout={"a": (0, 1), "b": (2, 3)})
    with pytest.raises(ValueError, match="layout covers"):
        ParameterVector(phi=np.zeros(3), layout={"a": (0, 2)})


def test_non_finite_entries_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        ParameterVector(phi=np.array([1.0, np.nan]), layout={"a": (0, 2)})


def test_phi_must_be_flat():
    with pytest.raises(DimensionError):
        ParameterVector(phi=np.zeros((2, 2)), layout={"a": (0, 4)})


# ---------------------------------------------------------------------------
# OCPSpec validation


def test_spec_rejects_bad_scalars(lq2_ocp):
    spec, _ = lq2_ocp
    with pytest.raises(ValueError, match="horizon"):
        dataclasses.replace(spec, H=0)
    with pytest.raises(ValueError, match="gamma"):
        dataclasses.replace(spec, gamma=1.0)
    bounded, _ = build_lq_ocp(A2, B2, Q2, R2, Q2, H=2, gamma=GAMMA, u_lo=[-1.0], u_hi=[1.0])
    with pytest.raises(ValueError, match="ineq_jac"):
        dataclasses.replace(bounded, ineq_jac=None)
    with pytest.raises(DimensionError, match="u_init"):
        dataclasses.replace(spec, u_init=np.zeros(3))


def test_stage_weights():
    spec, _ = build_lq_ocp(A2, B2, Q2, R2, Q2, H=4, gamma=0.5)
    w, wH = spec.stage_weights()
    np.testing.assert_allclose(w, [1.0, 0.5, 0.25, 0.125])
    assert wH == 0.0625
    flat, flat_H = dataclasses.replace(spec, discount_in_horizon=False).stage_weights()
    np.testing.assert_array_equal(flat, np.ones(4))
    assert flat_H == 1.0


def test_builder_shape_checks():
    with pytest.raises(DimensionError, match="Qc"):
        build_lq_ocp(A2, B2, np.eye(3), R2, Q2, H=2, gamma=0.9)
    with pytest.raises(ValueError, match="positive definite"):
        build_lq_ocp(A2, B2, Q2, [[0.0]], Q2, H=2, gamma=0.9)
    with pytest.raises(ValueError, match="both input bounds"):
        build_lq_ocp(A2, B2, Q2, R2, Q2, H=2, gamma=0.9, u_lo=[-1.0])
    with pytest.raises(ValueError, match="input box is empty"):
        build_lq_ocp(A2, B2, Q2, R2, Q2, H=2, gamma=0.9, u_lo=[1.0], u_hi=[-1.0])


# ---------------------------------------------------------------------------
# pinned-input structure


def test_pinned_qvalue_decomposes_when_input_is_inert():
    # B = 0: the action buys nothing, so Q(s, a) = s'Qs + a'Ra + gamma (As)'P(As)
    A = np.array([[0.7]])
    B = np.array([[0.0]])
    Qc = np.array([[2.0]])
    Rc = np.array([[3.0]])
    P = np.array([[5.0]])
    spec, phi = build_lq_ocp(A, B, Qc, Rc, P, H=1, gamma=0.9)
    s, a = np.array([1.3]), np.array([-0.4])
    q, _ = mpc_qvalue(spec, phi, s, a)
    x1 = A @ s
    expected = float(s @ Qc @ s + a @ Rc @ a + 0.9 * x1 @ P @ x1)
    assert q == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# horizon behaviour


def test_value_approaches_infinite_horizon_as_h_grows(lq2):
    A, B, Qc, Rc, gamma, P, K = lq2
    s = np.array([1.0, -0.5])
    v_inf = float(s @ P @ s)
    gaps = []
    for H in (5, 20, 50):
        spec, phi = build_lq_ocp(A, B, Qc, Rc, np.zeros((2, 2)), H, gamma)
        kkt, _ = solve_ocp(spec, phi, s)
        gaps.append(v_inf - kkt.objective)
    assert all(g > 0 for g in gaps)  # truncation underestimates the cost
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_undiscounted_value_matches_backward_recursion(lq2):
    A, B, Qc, Rc, _, _, _ = lq2
    P_term = np.eye(2)
    spec, phi = build_lq_ocp(A, B, Qc, Rc, P_term, H=3, gamma=0.9,
                             discount_in_horizon=False)
    P = P_term.copy()
    for _ in range(3):
        S = Rc + B.T @ P @ B
        P = Qc + A.T @ P @ A - A.T @ P @ B @ np.linalg.solve(S, B.T @ P @ A)
    s = np.array([0.4, 1.1])
    kkt, _ = solve_ocp(spec, phi, s)
    assert kkt.objective == pytest.approx(float(s @ P @ s), abs=1e-8)


# ---------------------------------------------------------------------------
# derivative validation


def test_validate_clean_spec(lq2_ocp):
    spec, phi = lq2_ocp
    assert validate_spec(spec, phi) == []


def test_validate_flags_wrong_gradient(lq2_ocp):
    spec, phi = lq2_ocp
    orig = spec.stage_grad

    def skewed(x, u, pv):
        lx, lu = orig(x, u, pv)
        return 1.01 * lx, lu

    findings = validate_spec(dataclasses.replace(spec, stage_grad=skewed), phi)
    assert any(f.startswith("stage_grad[x]:") for f in findings)
    assert all("stage_grad[u]" not in f for f in findings)


def test_validate_flags_wrong_shape(lq2_ocp):
    spec, phi = lq2_ocp
    bad = dataclasses.replace(spec, terminal_grad=lambda x, pv: np.zeros(3))
    findings = validate_spec(bad, phi)
    assert any(f.startswith("terminal_grad:") and "shape" in f for f in findings)


def test_validate_flags_dynamics_jac_state_mismatch(lq2_ocp):
    spec, phi = lq2_ocp
    orig = spec.dynamics_jac

    def stale_state(x, u, pv):
        f, fx, fu = orig(x, u, pv)
        return f + 1e-6, fx, fu

    findings = validate_spec(dataclasses.replace(spec, dynamics_jac=stale_state), phi)
    assert any(f.startswith("dynamics_jac[F]: differs from dynamics") for f in findings)


def test_validate_flags_wrong_dynamics_jacobian_block(lq2_ocp):
    spec, phi = lq2_ocp
    orig = spec.dynamics_jac

    def skewed(x, u, pv):
        f, fx, fu = orig(x, u, pv)
        return f, fx, 1.01 * fu

    findings = validate_spec(dataclasses.replace(spec, dynamics_jac=skewed), phi)
    assert any(f.startswith("dynamics_jac[u]:") for f in findings)
    assert all(not f.startswith("dynamics_jac[x]:") for f in findings)


def test_validate_flags_wrong_inequality_phi_derivative(lq2):
    A, B, Qc, Rc, gamma, P, _ = lq2
    spec, phi = build_lq_ocp(A, B, Qc, Rc, P, H=3, gamma=gamma, u_lo=[-1.0], u_hi=[1.0])
    assert validate_spec(spec, phi) == []
    # the bounds do not move with phi, so both derivatives are left out
    assert spec.ineq_phi is None and spec.ineq_jac_phi_vp is None
    n, m, p = spec.n, spec.m, phi.size

    def skewed(x, u, pv, mu):
        return np.zeros((n, p)), np.full((m, p), 0.1)

    findings = validate_spec(dataclasses.replace(spec, ineq_jac_phi_vp=skewed), phi)
    assert any(f.startswith("ineq_jac_phi_vp[u]:") for f in findings)
    assert all(not f.startswith("ineq_jac_phi_vp[x]:") for f in findings)


@pytest.mark.parametrize(
    "field", ["stage_phi", "stage_grad_phi", "dynamics_phi", "dynamics_jac_phi_vp"]
)
def test_validate_flags_none_phi_derivative_of_phi_dependent_term(lq2_ocp, field):
    # the LQ cost reads Q and R and its model reads A and B, so declaring
    # "no phi dependence" for either is caught by finite differences
    spec, phi = lq2_ocp
    findings = validate_spec(dataclasses.replace(spec, **{field: None}), phi)
    assert findings
    assert all(f.startswith(field) and "(None)" in f for f in findings)


def test_validate_flags_per_stage_dynamics(lq2_ocp):
    # callbacks written for one stage at a time break the batching rule
    spec, phi = lq2_ocp
    per_stage = dataclasses.replace(
        spec,
        dynamics=lambda x, u, pv: A2 @ x + B2 @ u,
        dynamics_jac=lambda x, u, pv: (A2 @ x + B2 @ u, A2, B2),
    )
    findings = validate_spec(per_stage, phi)
    assert any(f.startswith("dynamics: batched call failed") for f in findings)


def test_lq_batched_dynamics_round_like_one_stage(lq2_ocp):
    # a batch must give A @ x + B @ u of each stage bit for bit, so batching
    # the solver's calls leaves every LQ result unchanged
    spec, phi = lq2_ocp
    rng = np.random.default_rng(8)
    X = 10.0 * rng.normal(size=(50, 2))
    U = rng.normal(size=(50, 1))
    F, Fx, Fu = spec.dynamics_jac(X, U, phi)
    np.testing.assert_array_equal(F, np.stack([A2 @ x + B2 @ u for x, u in zip(X, U)]))
    np.testing.assert_array_equal(spec.dynamics(X, U, phi), F)
    assert Fx.shape == (50, 2, 2) and np.all(Fx == A2)
    assert Fu.shape == (50, 2, 1) and np.all(Fu == B2)
