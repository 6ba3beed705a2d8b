"""LQ and reactor environments: dynamics, rewards, constraint accounting."""

import logging

import numpy as np
import pytest

from qmpc import envs
from qmpc.envs import (
    CSTREnv,
    LQEnv,
    LQEnvConfig,
    build_cstr_ocp,
    constraint_violation_count,
    cstr_discrete,
    cstr_discrete_jac,
    cstr_step,
    lq_step,
)
from qmpc.errors import DimensionError, DivergenceError
from qmpc.mdp import Trajectory, Transition
from qmpc.ocp import validate_spec
from tests.conftest import CSTR_ODE_PARAMS, make_cstr_config

# steady input and its stationary point, frozen from a root solve on the ODE
A_SS = np.array([14.19, -1113.5])
X_SS = np.array([0.783494349355, 0.653086065773, 139.99139068651, 138.706899176728])


def rhs(s, a):
    """The reactor kernel's ODE right-hand side at states s under inputs a."""
    c, x, u, _ = envs._stacked(make_cstr_config(), np.asarray(s, float), np.asarray(a, float))
    return np.stack(envs._rhs(c, x, u)[0], axis=-1)


def rhs_jac(s, a):
    """The reactor kernel's (d rhs/d state, d rhs/d input) at s under a."""
    c, x, u, _ = envs._stacked(make_cstr_config(), np.asarray(s, float), np.asarray(a, float))
    return envs._rhs_jac(c, x, u, envs._rhs(c, x, u)[1])


def action_grid(cfg, points=5):
    """The points x points input grid greedy_value_action searches."""
    axes = np.linspace(cfg.input_lo, cfg.input_hi, points)
    return np.array([[f, q] for f in axes[:, 0] for q in axes[:, 1]])


def kernel_probes(cfg):
    """(X, U): 400 random states around the state box under random inputs;
    (Xp, Up): states whose c_A and theta = T_R + 273.15 square differently
    under pow than as a product (float_power calls the same pow per entry)."""
    rng = np.random.default_rng(11)
    span = cfg.state_hi - cfg.state_lo
    X = rng.uniform(cfg.state_lo - 0.25 * span, cfg.state_hi + 0.25 * span, size=(400, 4))
    U = rng.uniform(cfg.input_lo, cfg.input_hi, size=(400, 2))

    def pow_sensitive(v, shift=0.0):
        return v[np.float_power(v + shift, 2) != (v + shift) * (v + shift)]

    c_A = pow_sensitive(rng.uniform(cfg.state_lo[0], cfg.state_hi[0], 400_000))
    T_R = pow_sensitive(rng.uniform(cfg.state_lo[2], cfg.state_hi[2], 400_000), 273.15)
    k = min(len(c_A), len(T_R), 200)
    return X, U, np.column_stack([c_A[:k], X[:k, 1], T_R[:k], X[:k, 3]]), U[:k]


# ---------------------------------------------------------------------------
# LQ environment


def test_lq_step_arithmetic():
    cfg = LQEnvConfig(A=[[0.9, 0.1], [0.0, 0.8]], B=[[0.0], [1.0]],
                      Qc=np.eye(2), Rc=[[2.0]], noise_std=[0.0, 0.0],
                      x0_lo=[-1.0, -1.0], x0_hi=[1.0, 1.0])
    s, a = np.array([1.0, 2.0]), np.array([0.5])
    r, s_next = lq_step(cfg, s, a, np.random.default_rng(0))
    assert r == pytest.approx(-(1.0 + 4.0 + 2.0 * 0.25))
    np.testing.assert_allclose(s_next, [1.1, 2.1])


def test_lq_env_seeding_and_reset_box():
    cfg = LQEnvConfig(A=[[0.9]], B=[[1.0]], Qc=[[1.0]], Rc=[[1.0]],
                      noise_std=[0.3], x0_lo=[-2.0], x0_hi=[2.0])
    env = LQEnv(cfg)
    s1 = env.reset(np.random.default_rng(5))
    s2 = env.reset(np.random.default_rng(5))
    assert s1 == s2 and -2.0 <= s1[0] <= 2.0
    r1, n1 = env.step(np.array([1.0]), np.array([0.0]), np.random.default_rng(7))
    r2, n2 = env.step(np.array([1.0]), np.array([0.0]), np.random.default_rng(7))
    assert r1 == r2 and n1 == n2


def test_lq_config_validation():
    ok = dict(A=[[1.0]], B=[[1.0]], Qc=[[1.0]], Rc=[[1.0]], noise_std=[0.0],
              x0_lo=[0.0], x0_hi=[1.0])
    with pytest.raises(DimensionError):
        LQEnvConfig(**{**ok, "A": [[1.0, 0.0]]})
    with pytest.raises(ValueError, match="noise_std"):
        LQEnvConfig(**{**ok, "noise_std": [-0.1]})
    with pytest.raises(ValueError, match="initial-state box"):
        LQEnvConfig(**{**ok, "x0_lo": [2.0]})
    with pytest.raises(ValueError, match="positive definite"):
        LQEnvConfig(**{**ok, "Rc": [[0.0]]})


# ---------------------------------------------------------------------------
# reactor integration


def test_cstr_steady_state_is_stationary():
    np.testing.assert_array_less(np.abs(rhs(X_SS, A_SS)), 1e-9)
    cfg = make_cstr_config()
    drift = cstr_discrete(cfg, X_SS, A_SS) - X_SS
    assert np.max(np.abs(drift)) <= 1e-10


def test_integrator_is_fourth_order():
    x0 = np.array([0.8, 0.4, 130.0, 130.0])
    u = np.array([25.0, -2000.0])
    ref = cstr_discrete(make_cstr_config(substeps=64), x0, u)
    e4 = np.max(np.abs(cstr_discrete(make_cstr_config(substeps=4), x0, u) - ref))
    e8 = np.max(np.abs(cstr_discrete(make_cstr_config(substeps=8), x0, u) - ref))
    assert e4 <= 1e-5  # refinement already agrees tightly at the control dt
    # halving the substep cuts the error ~2^4
    assert 12.0 <= e4 / e8 <= 20.0


def test_reward_arithmetic_and_move_penalty():
    cfg = make_cstr_config()
    s = np.array([0.8, 0.4, 130.0, 130.0])
    a = np.array([20.0, -3000.0])
    a_prev = np.array([18.0, -4500.0])
    r, _ = cstr_step(cfg, s, a, a_prev)
    want = -cfg.w_track * (cfg.setpoint - 0.4) ** 2 - float(
        cfg.w_move @ (a - a_prev) ** 2
    )
    assert r == pytest.approx(want, rel=1e-12)


def test_concentrations_stay_nonnegative():
    cfg = make_cstr_config()
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = rng.uniform(cfg.state_lo, cfg.state_hi)
        a = rng.uniform(cfg.input_lo, cfg.input_hi)
        _, s_next = cstr_step(cfg, s, a, cfg.reference_input)
        assert np.all(np.isfinite(s_next))
        assert s_next[0] >= 0.0 and s_next[1] >= 0.0


def test_more_cooling_heat_raises_jacket_temperature():
    cfg = make_cstr_config()
    s = np.array([0.8, 0.5, 135.0, 125.0])
    flow = 20.0
    temps = []
    for q_dot in (-8000.0, -4000.0, -500.0):
        temps.append(cstr_discrete(cfg, s, np.array([flow, q_dot]))[3])
    assert temps[0] < temps[1] < temps[2]


@pytest.mark.parametrize("point", [
    (np.array([0.8, 0.4, 130.0, 130.0]), np.array([18.0, -4500.0])),
    (np.array([1.5, 0.9, 120.0, 140.0]), np.array([30.0, -500.0])),
])
def test_rhs_jacobians_match_fd(point):
    s, a = point
    Jx, Ju = rhs_jac(s, a)
    h = 1e-6
    for i in range(4):
        dp_, dm = s.copy(), s.copy()
        dp_[i] += h * (1 + abs(s[i]))
        dm[i] -= h * (1 + abs(s[i]))
        col = (rhs(dp_, a) - rhs(dm, a)) / (dp_[i] - dm[i])
        np.testing.assert_allclose(Jx[:, i], col, rtol=1e-5, atol=1e-5)
    for j in range(2):
        dp_, dm = a.copy(), a.copy()
        dp_[j] += h * (1 + abs(a[j]))
        dm[j] -= h * (1 + abs(a[j]))
        col = (rhs(s, dp_) - rhs(s, dm)) / (dp_[j] - dm[j])
        np.testing.assert_allclose(Ju[:, j], col, rtol=1e-5, atol=1e-5)


def test_discrete_jacobians_match_fd():
    cfg = make_cstr_config()
    s = np.array([0.9, 0.6, 128.0, 127.0])
    a = np.array([22.0, -3000.0])
    F, Jx, Ju = cstr_discrete_jac(cfg, s, a)
    np.testing.assert_array_equal(F, cstr_discrete(cfg, s, a))
    h = 1e-6
    for i in range(4):
        dp_, dm = s.copy(), s.copy()
        step = h * (1 + abs(s[i]))
        dp_[i] += step
        dm[i] -= step
        col = (cstr_discrete(cfg, dp_, a) - cstr_discrete(cfg, dm, a)) / (2 * step)
        np.testing.assert_allclose(Jx[:, i], col, rtol=1e-6, atol=1e-8)
    for j in range(2):
        dp_, dm = a.copy(), a.copy()
        step = h * (1 + abs(a[j]))
        dp_[j] += step
        dm[j] -= step
        col = (cstr_discrete(cfg, s, dp_) - cstr_discrete(cfg, s, dm)) / (2 * step)
        np.testing.assert_allclose(Ju[:, j], col, rtol=1e-6, atol=1e-8)


def test_batched_discrete_jac_matches_per_state():
    cfg = make_cstr_config()
    rng = np.random.default_rng(4)
    H = 5
    X = rng.uniform(cfg.state_lo, cfg.state_hi, size=(H, 4))
    U = rng.uniform(cfg.input_lo, cfg.input_hi, size=(H, 2))
    F, Jx, Ju = cstr_discrete_jac(cfg, X, U)
    assert F.shape == (H, 4) and Jx.shape == (H, 4, 4) and Ju.shape == (H, 4, 2)
    np.testing.assert_array_equal(F, cstr_discrete(cfg, X, U))
    for k in range(H):
        Fk, Jxk, Juk = cstr_discrete_jac(cfg, X[k], U[k])
        np.testing.assert_array_equal(F[k], Fk)
        np.testing.assert_allclose(Jx[k], Jxk, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(Ju[k], Juk, rtol=1e-12, atol=1e-12)


def test_reactor_kernel_is_batch_invariant_bit_for_bit():
    # One state runs the kernel on np.float64 scalars, a batch on arrays.  A
    # square written as ** 2 calls libm pow on a scalar but squares an array,
    # which round differently now and then; written as a product, every
    # column sees the same operations in the same order.
    cfg = make_cstr_config()
    X, U, Xp, Up = kernel_probes(cfg)
    np.testing.assert_array_equal(
        cstr_discrete(cfg, X, U), np.array([cstr_discrete(cfg, x, u) for x, u in zip(X, U)])
    )
    F, Jx, Ju = cstr_discrete_jac(cfg, X, U)
    for k in range(0, 400, 4):
        for got, want in zip((F[k], Jx[k], Ju[k]), cstr_discrete_jac(cfg, X[k], U[k])):
            np.testing.assert_array_equal(got, want)
    # one state against the action grid, as greedy_value_action asks
    grid = action_grid(cfg)
    for x in X[:40]:
        np.testing.assert_array_equal(
            cstr_discrete(cfg, x, grid), np.array([cstr_discrete(cfg, x, a) for a in grid])
        )
    # Random states rarely meet a square that pow rounds differently, and the
    # rates damp a one-ulp change; so also probe the right-hand side at states
    # whose c_A and theta square differently under pow
    np.testing.assert_array_equal(
        rhs(Xp, Up),
        np.array([rhs(x, u) for x, u in zip(Xp, Up)]),
    )
    Jx, Ju = rhs_jac(Xp, Up)
    for i in range(len(Xp)):
        for got, want in zip((Jx[i], Ju[i]), rhs_jac(Xp[i], Up[i])):
            np.testing.assert_array_equal(got, want)


def test_batched_rhs_jac_matches_per_state():
    rng = np.random.default_rng(5)
    cfg = make_cstr_config()
    X = rng.uniform(cfg.state_lo, cfg.state_hi, size=(2, 3, 4))
    U = rng.uniform(cfg.input_lo, cfg.input_hi, size=(3, 2))  # broadcast over axis 0
    Jx, Ju = rhs_jac(X, U)
    assert Jx.shape == (2, 3, 4, 4) and Ju.shape == (2, 3, 4, 2)
    for i in range(2):
        for k in range(3):
            Jxk, Juk = rhs_jac(X[i, k], U[k])
            np.testing.assert_array_equal(Jx[i, k], Jxk)
            np.testing.assert_array_equal(Ju[i, k], Juk)


# ---------------------------------------------------------------------------
# the reactor kernel against a frozen copy of the column kernel it replaced,
# which ran every column on np.float64 scalars or arrays and read each
# constant from ode_params on every call


def _ref_columns(v) -> tuple:
    """v's trailing-axis entries: np.float64 scalars for one point, views for a batch."""
    return tuple(np.moveaxis(np.asarray(v, dtype=float), -1, 0))


def _ref_rhs(p: dict, x: tuple, F, Qd):
    """Reactor ODE at state columns x = (c_A, c_B, T_R, T_K) under inputs F, Qd:
    the four derivative columns and the rates (theta, k1, k2, k3) there."""
    c_A, c_B, T_R, T_K = x
    theta = T_R + 273.15
    k1 = p["K0_ab"] * np.exp(-p["E_A_ab"] / theta)
    k2 = p["K0_bc"] * np.exp(-p["E_A_bc"] / theta)
    k3 = p["K0_ad"] * np.exp(-p["E_A_ad"] / theta)
    rcp = p["rho"] * p["Cp"]
    kwa = p["K_w"] * p["A_R"]
    k1cA, k2cB, k3cA2 = k1 * c_A, k2 * c_B, k3 * (c_A * c_A)
    d_cA = F * (p["C_A0"] - c_A) - k1cA - k3cA2
    d_cB = -F * c_B + k1cA - k2cB
    d_TR = (
        (k1cA * p["H_R_ab"] + k2cB * p["H_R_bc"] + k3cA2 * p["H_R_ad"]) / (-rcp)
        + F * (p["T_in"] - T_R)
        + kwa * (T_K - T_R) / (rcp * p["V_R"])
    )
    d_TK = (Qd + kwa * (T_R - T_K)) / (p["m_k"] * p["Cp_k"])
    return (d_cA, d_cB, d_TR, d_TK), (theta, k1, k2, k3)


def _ref_rhs_jac(p: dict, x: tuple, F, rates):
    """(d rhs/d state (..., 4, 4), d rhs/d input (..., 4, 2)) at state columns
    x under flow F, from the rates :func:`_ref_rhs` returned at the same point.
    The state columns share one shape, as :func:`_ref_columns` gives them."""
    c_A, c_B, T_R, _ = x
    theta, k1, k2, k3 = rates
    theta2 = theta * theta
    dk1cA = k1 * p["E_A_ab"] / theta2 * c_A
    dk2cB = k2 * p["E_A_bc"] / theta2 * c_B
    dk3cA2 = k3 * p["E_A_ad"] / theta2 * (c_A * c_A)
    two_k3cA = 2.0 * k3 * c_A
    rcp = p["rho"] * p["Cp"]
    kwr = p["K_w"] * p["A_R"] / (rcp * p["V_R"])
    kwk = p["K_w"] * p["A_R"] / (p["m_k"] * p["Cp_k"])
    j00 = -F - k1 - two_k3cA  # spans the batch: it reads F and the state columns
    Jx = np.zeros(np.shape(j00) + (4, 4))
    Jx[..., 0, 0] = j00
    Jx[..., 0, 2] = -(dk1cA + dk3cA2)
    Jx[..., 1, 0] = k1
    Jx[..., 1, 1] = -F - k2
    Jx[..., 1, 2] = dk1cA - dk2cB
    Jx[..., 2, 0] = (k1 * p["H_R_ab"] + two_k3cA * p["H_R_ad"]) / (-rcp)
    Jx[..., 2, 1] = k2 * p["H_R_bc"] / (-rcp)
    Jx[..., 2, 2] = (
        (dk1cA * p["H_R_ab"] + dk2cB * p["H_R_bc"] + dk3cA2 * p["H_R_ad"]) / (-rcp) - F - kwr
    )
    Jx[..., 2, 3] = kwr
    Jx[..., 3, 2] = kwk
    Jx[..., 3, 3] = -kwk
    Ju = np.zeros(Jx.shape[:-1] + (2,))
    Ju[..., 0, 0] = p["C_A0"] - c_A
    Ju[..., 1, 0] = -c_B
    Ju[..., 2, 0] = p["T_in"] - T_R
    Ju[..., 3, 1] = 1.0 / (p["m_k"] * p["Cp_k"])
    return Jx, Ju


def _ref_rk4_substep(p: dict, x: tuple, F, Qd, h: float):
    """One RK4 substep over state columns: the next columns, and the four
    stage points, each with the rates :func:`_ref_rhs` found there."""
    k1, r1 = _ref_rhs(p, x, F, Qd)
    x2 = tuple(xi + 0.5 * h * ki for xi, ki in zip(x, k1))
    k2, r2 = _ref_rhs(p, x2, F, Qd)
    x3 = tuple(xi + 0.5 * h * ki for xi, ki in zip(x, k2))
    k3, r3 = _ref_rhs(p, x3, F, Qd)
    x4 = tuple(xi + h * ki for xi, ki in zip(x, k3))
    k4, r4 = _ref_rhs(p, x4, F, Qd)
    x_next = tuple(
        xi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d) for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    )
    return x_next, ((x, r1), (x2, r2), (x3, r3), (x4, r4))


def ref_cstr_discrete(cfg, s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """State after one control interval dt (substep-subdivided RK4); batched."""
    h = cfg.dt / cfg.substeps
    x, (F, Qd) = _ref_columns(s), _ref_columns(a)
    for _ in range(cfg.substeps):
        x, _ = _ref_rk4_substep(cfg.ode_params, x, F, Qd, h)
    return np.stack(x, axis=-1)


def ref_cstr_discrete_jac(cfg, s: np.ndarray, a: np.ndarray):
    """State after one control interval and its Jacobians, from one RK4 pass.

    Returns (x_next (..., 4), d x_next/d s (..., 4, 4), d x_next/d a (..., 4, 2)),
    chaining the RK4 stage derivatives; broadcasts over leading batch axes.
    x_next equals :func:`ref_cstr_discrete` bit for bit.
    """
    h = cfg.dt / cfg.substeps
    p = cfg.ode_params
    x, (F, Qd) = _ref_columns(s), _ref_columns(a)
    eye = np.eye(4)
    Jx_tot, Ju_tot = eye, np.zeros((4, 2))  # the batch axes arrive via Sx
    for _ in range(cfg.substeps):
        x, stages = _ref_rk4_substep(p, x, F, Qd, h)
        (A1, B1), (A2, B2), (A3, B3), (A4, B4) = (_ref_rhs_jac(p, xs, F, r) for xs, r in stages)
        # stagewise chain rule for dk_i/dx and dk_i/du
        D1x, D1u = A1, B1
        D2x = A2 @ (eye + 0.5 * h * D1x)
        D2u = B2 + A2 @ (0.5 * h * D1u)
        D3x = A3 @ (eye + 0.5 * h * D2x)
        D3u = B3 + A3 @ (0.5 * h * D2u)
        D4x = A4 @ (eye + h * D3x)
        D4u = B4 + A4 @ (h * D3u)
        Sx = eye + (h / 6.0) * (D1x + 2 * D2x + 2 * D3x + D4x)
        Su = (h / 6.0) * (D1u + 2 * D2u + 2 * D3u + D4u)
        Ju_tot = Sx @ Ju_tot + Su
        Jx_tot = Sx @ Jx_tot
    return np.stack(x, axis=-1), Jx_tot, Ju_tot


def assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()  # signed zeros too


def test_reactor_kernel_matches_frozen_reference_bit_for_bit():
    cfg = make_cstr_config()
    X, U, Xp, Up = kernel_probes(cfg)
    edge = np.array([
        [0.5, 0.5, -273.15, 100.0],  # theta = 0: -E_A / theta = -inf, and exp(-inf) = 0
        [np.nan, 0.5, 130.0, 120.0],
        [0.0, 0.0, 130.0, 120.0],
    ])
    cases = [
        (X[0], U[0]),  # one state
        *((x, action_grid(cfg)) for x in X[:10]),  # the greedy 5x5 action grid
        (X[:5], U[:5]),  # an H=5 horizon
        (X[:6].reshape(2, 3, 4), U[:3]),  # two leading axes, inputs broadcast
        (X[:15].reshape(3, 5, 4), U[:15].reshape(3, 5, 2)),  # three H=5 horizons
        (Xp, Up), *zip(Xp[:20], Up[:20]),
        (edge, U[:3]), *zip(edge, U[:3]),
    ]
    with np.errstate(divide="ignore", invalid="ignore"):
        for s, a in cases:
            assert_same_bits(cstr_discrete(cfg, s, a), ref_cstr_discrete(cfg, s, a))
            for got, want in zip(cstr_discrete_jac(cfg, s, a), ref_cstr_discrete_jac(cfg, s, a)):
                assert_same_bits(got, want)


def test_stacked_lq_steps_equal_one_state_steps_bit_for_bit():
    cfg = LQEnvConfig(A=[[0.9, 0.3], [-0.2, 0.8]], B=[[0.1], [1.0]],
                      Qc=[[1.0, 0.2], [0.2, 0.7]], Rc=[[2.0]], noise_std=[0.1, 0.3],
                      x0_lo=[-1.0, -2.0], x0_hi=[1.0, 2.0])
    env, B = LQEnv(cfg), 200
    S0 = env.reset([np.random.default_rng(i) for i in range(B)])
    assert S0.shape == (B, 2)
    for i in range(B):
        np.testing.assert_array_equal(S0[i], env.reset(np.random.default_rng(i)))
    def frozen_lq_step(s, a, rng):
        # the one-state arithmetic of lq_step before it took stacks
        r = -(float(s @ cfg.Qc @ s + a @ cfg.Rc @ a))
        return r, cfg.A @ s + cfg.B @ a + cfg.noise_std * rng.standard_normal(s.size)

    # two steps, each row's generator carrying its draws into the second
    stacked = [np.random.default_rng(10 + i) for i in range(B)]
    lone = [np.random.default_rng(10 + i) for i in range(B)]
    frozen = [np.random.default_rng(10 + i) for i in range(B)]
    actions = np.random.default_rng(99).normal(scale=3.0, size=(2, B, 1))
    S = S0
    for A in actions:
        R, S1 = env.step(S, A, stacked)
        assert R.shape == (B,) and S1.shape == (B, 2)
        for i in range(B):
            r_ref, s_ref = frozen_lq_step(S[i], A[i], frozen[i])
            # the one-state form perfbench's lq_long_horizon steps with
            r, s = env.step(S[i], A[i], lone[i])
            assert R[i] == r == r_ref
            assert S1[i].tobytes() == s.tobytes() == s_ref.tobytes()
        S = S1


def test_stacked_cstr_steps_equal_one_state_steps_bit_for_bit(caplog):
    cfg = make_cstr_config()
    rng = np.random.default_rng(12)
    # c_B whose tracking error pow squares differently from the product
    c_B = rng.uniform(cfg.state_lo[1], cfg.state_hi[1], 200_000)
    err = cfg.setpoint - c_B
    c_B = c_B[np.float_power(err, 2) != err * err][:20]
    B = len(c_B) + 1
    assert B > 5
    S = rng.uniform(cfg.state_lo, cfg.state_hi, size=(B, 4))
    S[:-1, 1] = c_B
    A = rng.uniform(cfg.input_lo, cfg.input_hi, size=(B, 2))
    A_prev = rng.uniform(cfg.input_lo, cfg.input_hi, size=(B, 2))
    S[-1], A[-1] = [-0.01, -0.01, 130.0, 130.0], [0.0, -4500.0]  # clipped to zero
    with caplog.at_level(logging.INFO, logger="qmpc.envs"):
        R, S1 = cstr_step(cfg, S, A, A_prev)
    assert "clipped negative concentration" in caplog.text
    assert R.shape == (B,) and S1.shape == (B, 4)
    for i in range(B):
        r, s = cstr_step(cfg, S[i], A[i], A_prev[i])
        assert R[i] == r
        assert S1[i].tobytes() == s.tobytes()
    np.testing.assert_array_equal(S1[-1, :2], [0.0, 0.0])
    # the environment: a stacked reset and two steps against one-state episodes
    env = CSTREnv(cfg)
    gens = [np.random.default_rng(i) for i in range(3)]
    S0 = env.reset(gens)
    R1, S1 = env.step(S0, A[:3], gens)
    R2, _ = env.step(S1, A[3:6], gens)
    for i in range(3):
        s0 = env.reset(np.random.default_rng(i))
        assert S0[i].tobytes() == s0.tobytes()
        r1, s1 = env.step(s0, A[i], None)
        r2, _ = env.step(s1, A[3 + i], None)
        assert (R1[i], R2[i]) == (r1, r2)


def test_stacked_step_divergence_names_the_row():
    cfg = make_cstr_config()
    S = np.array([X_SS, [0.8, 0.4, 1e4, 130.0], X_SS])
    A = np.array([A_SS, [18.0, -4500.0], A_SS])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError, match="row 1"):
        cstr_step(cfg, S, A, A)


def test_step_clips_negative_concentrations_to_zero(caplog):
    cfg = make_cstr_config()
    s, a = np.array([-0.01, -0.01, 130.0, 130.0]), np.array([0.0, -4500.0])
    raw = cstr_discrete(cfg, s, a)
    assert raw[0] < 0.0 and raw[1] < 0.0
    with caplog.at_level(logging.INFO, logger="qmpc.envs"):
        _, s_next = cstr_step(cfg, s, a, cfg.reference_input)
    np.testing.assert_array_equal(s_next, [0.0, 0.0, raw[2], raw[3]])
    assert "clipped negative concentration" in caplog.text


def test_step_raises_divergence_on_non_finite_successor():
    cfg = make_cstr_config()
    s, a = np.array([0.8, 0.4, 1e4, 130.0]), np.array([18.0, -4500.0])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
        cstr_step(cfg, s, a, cfg.reference_input)


def test_step_at_theta_zero_returns_the_frozen_reference_state():
    # numpy divides -E_A by theta = 0 to -inf where Python floats would raise
    # ZeroDivisionError; the reactor then heats away from absolute zero
    cfg = make_cstr_config()
    s, a = np.array([0.5, 0.5, -273.15, 100.0]), np.array([18.0, -4500.0])
    with np.errstate(divide="ignore"):
        _, s_next = cstr_step(cfg, s, a, cfg.reference_input)
        want = ref_cstr_discrete(cfg, s, a)
    assert np.all(np.isfinite(s_next))
    assert_same_bits(s_next, want)


# ---------------------------------------------------------------------------
# violations


def test_violation_count_on_state_arrays():
    lo, hi = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    inside = np.array([[0.5, 0.5], [0.0, 1.0]])  # boundary counts as feasible
    assert constraint_violation_count(inside, lo, hi) == 0
    mixed = np.array([[0.5, 0.5], [1.5, 0.5], [-0.2, 2.0]])
    assert constraint_violation_count(mixed, lo, hi) == 2


def test_violation_count_ignores_initial_state():
    steps = (
        Transition(s=np.array([5.0]), a=np.zeros(1), r=0.0, s_next=np.array([0.5])),
        Transition(s=np.array([0.5]), a=np.zeros(1), r=0.0, s_next=np.array([2.0])),
    )
    traj = Trajectory(steps=steps, seed=0)
    # the out-of-box start is given; only the two landing states are judged
    assert constraint_violation_count(traj, [0.0], [1.0]) == 1


def test_cstr_env_threads_previous_input():
    cfg = make_cstr_config()
    env = CSTREnv(cfg)
    s0 = env.reset(np.random.default_rng(0))
    a = np.array([25.0, -2000.0])
    rng = np.random.default_rng(1)
    r1, s1 = env.step(s0, a, rng)
    move1 = a - cfg.reference_input
    want1 = -cfg.w_track * (cfg.setpoint - s0[1]) ** 2 - float(cfg.w_move @ move1**2)
    assert r1 == pytest.approx(want1, rel=1e-12)
    r2, _ = env.step(s1, a, rng)  # repeating the input zeroes the move term
    assert r2 == pytest.approx(-cfg.w_track * (cfg.setpoint - s1[1]) ** 2, rel=1e-12)
    env.reset(np.random.default_rng(2))
    r3, _ = env.step(s0, a, rng)
    assert r3 == pytest.approx(want1, rel=1e-12)


# ---------------------------------------------------------------------------
# reactor OCP wiring


def test_cstr_ocp_derivatives_are_consistent(cstr_cfg):
    spec, phi = build_cstr_ocp(cstr_cfg, H=3, gamma=0.98,
                               terminal_weights=np.zeros(15))
    assert validate_spec(spec, phi) == []
    # only the terminal cost reads phi; every other phi-derivative is left out
    for name in ("stage_phi", "stage_grad_phi_vp", "dynamics_phi_vp", "dynamics_jac_phi_vp"):
        assert getattr(spec, name) is None, name
    assert spec.dynamics_hess_vp is None  # Gauss-Newton curvature treatment
    np.testing.assert_array_equal(spec.u_init, cstr_cfg.reference_input)
    assert spec.n_ineq == 2 * 2 + 2 * 4


def test_cstr_ocp_rejects_wrong_weight_length(cstr_cfg):
    with pytest.raises(DimensionError, match="feature basis"):
        build_cstr_ocp(cstr_cfg, H=2, gamma=0.98, terminal_weights=np.zeros(7))


def test_cstr_config_validation():
    with pytest.raises(ValueError, match="missing reactor constants"):
        make_cstr_config(ode_params={"rho": 0.9342})
    with pytest.raises(ValueError, match="must be positive"):
        make_cstr_config(ode_params={**CSTR_ODE_PARAMS, "V_R": 0.0})
    with pytest.raises(ValueError, match="dt"):
        make_cstr_config(dt=0.0)
    with pytest.raises(DimensionError, match="state box"):
        make_cstr_config(state_lo=[0.1, 0.3, 100.0])
    with pytest.raises(ValueError, match="empty state or input box"):
        make_cstr_config(input_lo=[50.0, 0.0])
    with pytest.raises(ValueError, match="nonnegative"):
        make_cstr_config(w_track=-1.0)
