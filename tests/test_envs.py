"""LQ and reactor environments: dynamics, rewards, constraint accounting."""

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
from qmpc.errors import DimensionError
from qmpc.mdp import Trajectory, Transition
from qmpc.ocp import validate_spec
from tests.conftest import CSTR_ODE_PARAMS, make_cstr_config

# steady input and its stationary point, frozen from a root solve on the ODE
A_SS = np.array([14.19, -1113.5])
X_SS = np.array([0.783494349355, 0.653086065773, 139.99139068651, 138.706899176728])


def rhs(s, a):
    """The reactor kernel's ODE right-hand side at states s under inputs a."""
    return np.stack(envs._rhs(CSTR_ODE_PARAMS, envs._columns(s), *envs._columns(a))[0], axis=-1)


def rhs_jac(s, a):
    """The reactor kernel's (d rhs/d state, d rhs/d input) at s under a."""
    x, (F, Qd) = envs._columns(s), envs._columns(a)
    return envs._rhs_jac(CSTR_ODE_PARAMS, x, F, envs._rhs(CSTR_ODE_PARAMS, x, F, Qd)[1])


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
    rng = np.random.default_rng(11)
    span = cfg.state_hi - cfg.state_lo
    X = rng.uniform(cfg.state_lo - 0.25 * span, cfg.state_hi + 0.25 * span, size=(400, 4))
    U = rng.uniform(cfg.input_lo, cfg.input_hi, size=(400, 2))
    np.testing.assert_array_equal(
        cstr_discrete(cfg, X, U), np.array([cstr_discrete(cfg, x, u) for x, u in zip(X, U)])
    )
    F, Jx, Ju = cstr_discrete_jac(cfg, X, U)
    for k in range(0, 400, 4):
        for got, want in zip((F[k], Jx[k], Ju[k]), cstr_discrete_jac(cfg, X[k], U[k])):
            np.testing.assert_array_equal(got, want)
    # one state against the action grid, as greedy_value_action asks
    points = np.linspace(cfg.input_lo, cfg.input_hi, 5)
    grid = np.array([[f, q] for f in points[:, 0] for q in points[:, 1]])
    for x in X[:40]:
        np.testing.assert_array_equal(
            cstr_discrete(cfg, x, grid), np.array([cstr_discrete(cfg, x, a) for a in grid])
        )
    # Random states rarely meet a square that pow rounds differently, and the
    # rates damp a one-ulp change; so also probe the right-hand side at states
    # whose c_A and theta = T_R + 273.15 square differently under pow
    # (float_power calls the same pow per entry)
    def pow_sensitive(v, shift=0.0):
        return v[np.float_power(v + shift, 2) != (v + shift) * (v + shift)]

    c_A = pow_sensitive(rng.uniform(cfg.state_lo[0], cfg.state_hi[0], 400_000))
    T_R = pow_sensitive(rng.uniform(cfg.state_lo[2], cfg.state_hi[2], 400_000), 273.15)
    k = min(len(c_A), len(T_R), 200)
    X, U = np.column_stack([c_A[:k], X[:k, 1], T_R[:k], X[:k, 3]]), U[:k]
    np.testing.assert_array_equal(
        rhs(X, U),
        np.array([rhs(x, u) for x, u in zip(X, U)]),
    )
    Jx, Ju = rhs_jac(X, U)
    for i in range(k):
        for got, want in zip((Jx[i], Ju[i]), rhs_jac(X[i], U[i])):
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
    with pytest.raises(ValueError, match="dt"):
        make_cstr_config(dt=0.0)
    with pytest.raises(DimensionError, match="state box"):
        make_cstr_config(state_lo=[0.1, 0.3, 100.0])
    with pytest.raises(ValueError, match="empty state or input box"):
        make_cstr_config(input_lo=[50.0, 0.0])
    with pytest.raises(ValueError, match="nonnegative"):
        make_cstr_config(w_track=-1.0)
