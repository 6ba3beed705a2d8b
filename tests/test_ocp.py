"""OCP container, LQ builder, and self-validation."""

import dataclasses

import numpy as np
import pytest

from qmpc.envs import build_cstr_ocp, cstr_discrete_jac
from qmpc.errors import DimensionError
from qmpc.ocp import (
    STAGE_CALLBACKS,
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


@pytest.mark.parametrize("name", ["ineq_jac"])
def test_spec_rejects_inequality_callbacks_without_rows(lq2_ocp, name):
    # with n_ineq == 0 there are no rows for it to act on
    spec, phi = lq2_ocp
    with pytest.raises(ValueError, match=f"n_ineq == 0 leaves no rows for {name}"):
        dataclasses.replace(spec, **{name: _one_stage_lq(phi)[name]})


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


def test_validate_flags_wrong_dynamics_jacobian_block(lq2_ocp):
    spec, phi = lq2_ocp
    orig = spec.dynamics_jac

    def skewed(x, u, pv):
        f, fx, fu = orig(x, u, pv)
        return f, fx, 1.01 * fu

    findings = validate_spec(dataclasses.replace(spec, dynamics_jac=skewed), phi)
    assert any(f.startswith("dynamics_jac[u]:") for f in findings)
    assert all(not f.startswith("dynamics_jac[x]:") for f in findings)


def test_validate_flags_skewed_phi_vjp(lq2):
    A, B, Qc, Rc, gamma, P, _ = lq2
    spec, phi = build_lq_ocp(A, B, Qc, Rc, P, H=3, gamma=gamma, u_lo=[-1.0], u_hi=[1.0])
    assert validate_spec(spec, phi) == []
    orig = spec.dynamics_jac_phi_vp

    def skewed(x, u, pv, lam, dx, du):
        # wrong in the input half only: one check covers both halves
        return orig(x, u, pv, lam, dx, 1.1 * du)

    findings = validate_spec(dataclasses.replace(spec, dynamics_jac_phi_vp=skewed), phi)
    assert findings
    assert all(f.startswith("dynamics_jac_phi_vp:") for f in findings), findings


@pytest.mark.parametrize(
    "field", ["stage_phi", "stage_grad_phi_vp", "dynamics_phi_vp", "dynamics_jac_phi_vp"]
)
def test_validate_flags_none_phi_derivative_of_phi_dependent_term(lq2_ocp, field):
    # the LQ cost reads Q and R and its model reads A and B, so declaring
    # "no phi dependence" for either is caught by finite differences
    spec, phi = lq2_ocp
    findings = validate_spec(dataclasses.replace(spec, **{field: None}), phi)
    assert findings
    assert all(f.startswith(field) and "(None)" in f for f in findings)


def _nan_poisoned(spec, name):
    """spec with callback name returning NaN in every entry."""
    orig = getattr(spec, name)

    def poisoned(*args):
        out = orig(*args)
        return tuple(np.nan * v for v in out) if isinstance(out, tuple) else np.nan * out

    return dataclasses.replace(spec, **{name: poisoned})


@pytest.mark.parametrize("name", ["stage_grad", "dynamics_phi_vp"])
def test_validate_flags_nan_derivative(lq2_ocp, name):
    # a NaN compares false against every tolerance, so it must count as an
    # infinite deviation rather than pass as agreement
    spec, phi = lq2_ocp
    findings = validate_spec(_nan_poisoned(spec, name), phi)
    assert any(f.startswith((f"{name}:", f"{name}[")) for f in findings), findings


@pytest.mark.parametrize("name", ["stage_grad", "dynamics_phi_vp"])
def test_validate_names_non_finite_callback_once(lq2_ocp, name):
    # neither the callbacks differenced from the NaN one (stage_hess and
    # stage_grad_phi_vp under stage_grad) nor the batch check, whose batched
    # and per-point NaNs agree, are blamed for it
    spec, phi = lq2_ocp
    findings = validate_spec(_nan_poisoned(spec, name), phi)
    assert findings == [f"{name}: returns non-finite values"]


def _one_stage_lq(phi):
    """The stage callbacks of build_lq_ocp(A2, B2, Q2, R2, ., u_lo=-1, u_hi=1),
    written for one stage x (n,), u (m,) only."""
    p = phi.size
    sl = {name: slice(*span) for name, span in phi.layout.items()}
    Hu = np.array([[1.0], [-1.0]])

    def at(**segments):
        out = np.zeros(p)
        for name, block in segments.items():
            out[sl[name]] = block.ravel()
        return out

    def mat(pv, name):
        return pv.segment(name).reshape({"A": (2, 2), "B": (2, 1), "Q": (2, 2), "R": (1, 1)}[name])

    def cost(x, u, pv):
        return float(x @ mat(pv, "Q") @ x + u @ mat(pv, "R") @ u)

    def grad(x, u, pv):
        Q, R = mat(pv, "Q"), mat(pv, "R")
        return (Q + Q.T) @ x, (R + R.T) @ u

    def hess(x, u, pv):
        Q, R = mat(pv, "Q"), mat(pv, "R")
        return Q + Q.T, np.zeros((2, 1)), R + R.T

    def f(x, u, pv):
        return mat(pv, "A") @ x + mat(pv, "B") @ u

    return {
        "stage_cost": cost,
        "stage_grad": grad,
        "stage_hess": hess,
        "stage_phi": lambda x, u, pv: at(Q=np.outer(x, x), R=np.outer(u, u)),
        "stage_grad_phi_vp": lambda x, u, pv, dx, du: at(
            Q=np.outer(dx, x) + np.outer(x, dx), R=np.outer(du, u) + np.outer(u, du)
        ),
        "dynamics_jac": lambda x, u, pv: (f(x, u, pv), mat(pv, "A"), mat(pv, "B")),
        "dynamics_phi_vp": lambda x, u, pv, lam: at(A=np.outer(lam, x), B=np.outer(lam, u)),
        "dynamics_jac_phi_vp": lambda x, u, pv, lam, dx, du: at(
            A=np.outer(lam, dx), B=np.outer(lam, du)
        ),
        "dynamics_hess_vp": lambda x, u, pv, lam: np.zeros((3, 3)),
        "ineq_constraints": lambda x, u, pv: Hu @ u + np.array([-1.0, -1.0]),
        "ineq_jac": lambda x, u, pv: (np.zeros((2, 2)), Hu),
    }


def _one_stage_cstr(cfg):
    """The stage callbacks of build_cstr_ocp, written for one stage only."""
    u_ref, sp, wt, wm = cfg.reference_input, cfg.setpoint, cfg.w_track, cfg.w_move
    rows_u = np.vstack([np.eye(2), -np.eye(2)])
    rows_x = np.vstack([np.eye(4), -np.eye(4)])
    off_u = np.concatenate([-cfg.input_hi, cfg.input_lo])
    off_x = np.concatenate([-cfg.state_hi, cfg.state_lo])

    def grad(x, u, pv):
        gx = np.zeros(4)
        gx[1] = 2.0 * wt * (x[1] - sp)
        return gx, 2.0 * wm * (u - u_ref)

    return {
        "stage_cost": lambda x, u, pv: float(wt * (x[1] - sp) ** 2 + wm @ (u - u_ref) ** 2),
        "stage_grad": grad,
        "stage_hess": lambda x, u, pv: (
            np.diag([0.0, 2.0 * wt, 0.0, 0.0]), np.zeros((4, 2)), np.diag(2.0 * wm)
        ),
        "dynamics_jac": lambda x, u, pv: cstr_discrete_jac(cfg, x, u),
        "ineq_constraints": lambda x, u, pv: np.concatenate(
            [rows_u @ u + off_u, rows_x @ x + off_x]
        ),
        "ineq_jac": lambda x, u, pv: (
            np.vstack([np.zeros((4, 4)), rows_x]), np.vstack([rows_u, np.zeros((8, 2))])
        ),
    }


def _bounded_lq():
    return build_lq_ocp(A2, B2, Q2, R2, Q2, H=3, gamma=GAMMA, u_lo=[-1.0], u_hi=[1.0])


@pytest.mark.parametrize("name", STAGE_CALLBACKS)
def test_validate_flags_per_stage_callback(name):
    # each callback, written for one stage at a time, is right at every probe
    # point and breaks only the batching rule
    spec, phi = _bounded_lq()
    per_stage = dataclasses.replace(spec, **{name: _one_stage_lq(phi)[name]})
    findings = validate_spec(per_stage, phi)
    assert findings
    assert all(f.startswith(f"{name}: batched call") for f in findings), findings


def _assert_bits_equal(got, want, name):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, name
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), name


@pytest.mark.parametrize("case", ["lq", "cstr"])
def test_batched_stage_callbacks_round_like_one_stage(case, cstr_cfg):
    # a batch must give each stage's one-stage result bit for bit, so that
    # batching the solver's and the sensitivities' calls leaves every result
    # unchanged
    rng = np.random.default_rng(8)
    if case == "lq":
        spec, phi = _bounded_lq()
        one_stage = _one_stage_lq(phi)
        X = 10.0 * rng.normal(size=(50, 2))
        U = rng.normal(size=(50, 1))
    else:
        spec, phi = build_cstr_ocp(cstr_cfg, H=5, gamma=0.98, terminal_weights=np.zeros(15))
        one_stage = _one_stage_cstr(cstr_cfg)
        X = rng.uniform(cstr_cfg.state_lo, cstr_cfg.state_hi, size=(50, 4))
        U = rng.uniform(cstr_cfg.input_lo, cstr_cfg.input_hi, size=(50, 2))
        # a c_B whose (c_B - setpoint) ** 2 rounds apart as a scalar pow and
        # as an array square, with glibc's libm
        X[0, 1] = 0.3192048434535719
    args = {"lam": rng.normal(size=(50, spec.n)), "dx": rng.normal(size=(50, spec.n)),
            "du": rng.normal(size=(50, spec.m))}
    supplied = [name for name in STAGE_CALLBACKS if getattr(spec, name) is not None]
    assert set(supplied) <= set(one_stage)
    for name in supplied:
        extra = [args[a] for a in STAGE_CALLBACKS[name]]
        got = getattr(spec, name)(X, U, phi, *extra)
        want = [one_stage[name](x, u, phi, *v) for x, u, *v in zip(X, U, *extra)]
        if isinstance(got, tuple):
            for i, part in enumerate(got):
                _assert_bits_equal(part, np.stack([w[i] for w in want]), f"{name}[{i}]")
        else:
            _assert_bits_equal(got, np.stack(want), name)
