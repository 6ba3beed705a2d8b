"""TD learning on the MPC Q-function, REINFORCE, value fitting."""

import numpy as np
import pytest

from qmpc import dp
from qmpc.envs import LQEnv, LQEnvConfig
from qmpc.errors import QmpcError
from qmpc.mdp import Transition, episode_rng
from qmpc.ocp import build_lq_ocp
from qmpc.rl import (
    GaussianMPCPolicy,
    RunningBaseline,
    ValueModel,
    fit_value_function,
    gradient_step,
    reinforce_gradient,
    td_loss_and_grad,
)
from qmpc.sensitivity import jac_policy_wrt_params
from qmpc.solver import mpc_policy
from tests.conftest import make_scalar_ocp


def lq_batch(spec_mats, size, seed):
    """Noise-free transitions (s, a, r=-stage, s'=As+Ba) for TD tests."""
    A, B, Qc, Rc = spec_mats
    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(size):
        s = rng.normal(size=A.shape[0])
        a = rng.normal(size=B.shape[1])
        r = -float(s @ Qc @ s + a @ Rc @ a)
        batch.append(Transition(s=s, a=a, r=r, s_next=A @ s + B @ a))
    return batch


# ---------------------------------------------------------------------------
# TD loss


def test_td_loss_vanishes_at_exact_parameterization(lq2):
    A, B, Qc, Rc, gamma, P, K = lq2
    spec, phi = build_lq_ocp(A, B, Qc, Rc, P, H=4, gamma=gamma)
    batch = lq_batch((A, B, Qc, Rc), 64, seed=5)
    res = td_loss_and_grad(spec, phi, batch, gamma)
    assert res.loss <= 1e-10
    assert res.skipped == 0
    assert np.max(np.abs(res.grad)) <= 1e-4  # grad = 2e*dq with e ~ 0


def hand_batch_setup():
    # one-step problem solvable by hand: Q(1,1) = -3, best next value -2
    spec, phi = build_lq_ocp([[0.0]], [[0.0]], [[2.0]], [[1.0]], [[0.0]],
                             H=1, gamma=0.5)
    tr = Transition(s=np.array([1.0]), a=np.array([1.0]), r=-1.0,
                    s_next=np.array([1.0]))
    return spec, phi, tr


def test_td_semi_gradient_by_hand():
    spec, phi, tr = hand_batch_setup()
    res = td_loss_and_grad(spec, phi, [tr], gamma=0.5)
    assert res.loss == pytest.approx(1.0, abs=1e-12)
    # layout (A, B, Q, R, P): error -1, dQ/dQc = -1, dQ/dRc = -1
    np.testing.assert_allclose(res.grad, [0.0, 0.0, 2.0, 2.0, 0.0], atol=1e-10)


def test_td_batch_mean_is_duplication_invariant(lq2):
    A, B, Qc, Rc, gamma, P, K = lq2
    spec, phi = build_lq_ocp(A, B, Qc, Rc, 2.0 * P, H=2, gamma=gamma)
    batch = lq_batch((A, B, Qc, Rc), 8, seed=11)
    once = td_loss_and_grad(spec, phi, batch, gamma)
    twice = td_loss_and_grad(spec, phi, batch + batch, gamma)
    assert twice.loss == pytest.approx(once.loss, rel=1e-12)
    np.testing.assert_allclose(twice.grad, once.grad, rtol=1e-12)


def test_td_skips_unsolvable_samples():
    spec, phi = make_scalar_ocp(u_lo=-1.0, u_hi=1.0)
    good = Transition(s=np.array([0.2]), a=np.array([0.1]), r=0.0,
                      s_next=np.array([0.2]))
    bad = Transition(s=np.array([0.2]), a=np.array([5.0]), r=0.0,
                     s_next=np.array([0.2]))  # pin outside the input box
    res = td_loss_and_grad(spec, phi, [good, bad], gamma=0.9)
    assert res.skipped == 1
    with pytest.raises(QmpcError, match="all 1 TD samples failed"):
        td_loss_and_grad(spec, phi, [bad], gamma=0.9)


def test_td_rejects_empty_batch(lq2_ocp):
    spec, phi = lq2_ocp
    with pytest.raises(ValueError, match="empty batch"):
        td_loss_and_grad(spec, phi, [], gamma=0.9)


def test_terminal_weight_learns_from_fixed_model():
    # freeze dynamics and stage cost, descend the TD loss in the terminal
    # weight alone: the one-step problem then has a unique fixed point
    a_sc, b_sc = 0.8, 0.5
    A, B = np.array([[a_sc]]), np.array([[b_sc]])
    Qc, Rc = np.array([[1.0]]), np.array([[0.2]])
    gamma = 0.9
    P_star, _ = dp.riccati_solve(A, B, Qc, Rc, gamma)
    spec, phi = build_lq_ocp(A, B, Qc, Rc, 0.3 * P_star, H=1, gamma=gamma)
    batch = lq_batch((A, B, Qc, Rc), 32, seed=7)
    mask = np.zeros(phi.size)
    mask[slice(*phi.layout["P"])] = 1.0
    loss0 = td_loss_and_grad(spec, phi, batch, gamma).loss
    for _ in range(200):
        res = td_loss_and_grad(spec, phi, batch, gamma)
        phi = gradient_step(phi, res.grad * mask, 0.1, direction="descent")
    loss_end = td_loss_and_grad(spec, phi, batch, gamma).loss
    assert loss_end <= 1e-6 * loss0
    assert phi.segment("P")[0] == pytest.approx(P_star[0, 0], abs=1e-3)


# ---------------------------------------------------------------------------
# gradient step


def test_gradient_step_directions():
    from qmpc.ocp import ParameterVector

    phi = ParameterVector.from_segments({"w": np.array([1.0, 2.0])})
    up = gradient_step(phi, np.array([0.5, -0.5]), 0.1)
    np.testing.assert_allclose(up.phi, [1.05, 1.95])
    down = gradient_step(phi, np.array([0.5, -0.5]), 0.1, direction="descent")
    np.testing.assert_allclose(down.phi, [0.95, 2.05])
    with pytest.raises(ValueError, match="shape"):
        gradient_step(phi, np.zeros(3), 0.1)
    with pytest.raises(ValueError, match="non-finite"):
        gradient_step(phi, np.array([np.nan, 0.0]), 0.1)
    with pytest.raises(ValueError, match="direction"):
        gradient_step(phi, np.zeros(2), 0.1, direction="sideways")


# ---------------------------------------------------------------------------
# REINFORCE


def scalar_bandit(s0=1.0, sigma=0.4):
    A, B = np.array([[0.5]]), np.array([[1.0]])
    Qc, Rc = np.array([[1.0]]), np.array([[1.0]])
    gamma = 0.9
    P, _ = dp.riccati_solve(A, B, Qc, Rc, gamma)
    spec, phi = build_lq_ocp(A, B, Qc, Rc, P, H=1, gamma=gamma)
    env = LQEnv(LQEnvConfig(A=A, B=B, Qc=Qc, Rc=Rc, noise_std=[0.0],
                            x0_lo=[s0], x0_hi=[s0]))
    return spec, phi, env, gamma


def test_reinforce_single_episode_assembles_exactly():
    spec, phi, env, gamma = scalar_bandit()
    sigma = 0.3
    policy = GaussianMPCPolicy(spec, phi, sigma=sigma)
    got = reinforce_gradient(env, policy, episodes=1, T=2, gamma=gamma, seed=42)

    # replay the same seeded episode by hand
    rng = episode_rng(42, 0)
    s = env.reset(rng)
    score = np.zeros(phi.size)
    G = 0.0
    for t in range(2):
        mean, kkt = mpc_policy(spec, phi, s)
        a = mean + sigma * rng.standard_normal(1)
        jac = jac_policy_wrt_params(spec, phi, kkt).jac_action
        score += jac.T @ ((a - mean) / sigma**2)
        r, s = env.step(s, a, rng)
        G += gamma**t * r
    np.testing.assert_allclose(got.grad, G * score, atol=1e-12)
    assert got.J_hat == pytest.approx(G, abs=1e-12)
    assert got.stderr == 0.0
    assert got.dropped == 0


def test_reinforce_matches_analytic_bandit_gradient():
    spec, phi, env, gamma = scalar_bandit()
    mu, kkt = mpc_policy(spec, phi, np.array([1.0]))
    jac = jac_policy_wrt_params(spec, phi, kkt).jac_action
    # one action, fixed start, unit weights: J = -s0^2 - (mu^2 + sigma^2),
    # so grad J = -2 mu dmu/dphi
    true_grad = -2.0 * mu[0] * jac[0]
    policy = GaussianMPCPolicy(spec, phi, sigma=0.4)
    res = reinforce_gradient(env, policy, episodes=2000, T=1, gamma=gamma, seed=123)
    rel = np.linalg.norm(res.grad - true_grad) / np.linalg.norm(true_grad)
    assert rel <= 0.15


def test_reinforce_baseline_absorbs_reward_offsets():
    spec, phi, env, gamma = scalar_bandit()

    class Shifted:
        def __init__(self, inner, c):
            self.inner, self.c = inner, c
            self.n, self.m = inner.n, inner.m

        def reset(self, rng):
            return self.inner.reset(rng)

        def step(self, s, a, rng):
            r, s_next = self.inner.step(s, a, rng)
            return r + self.c, s_next

    C, N = 7.0, 12
    grads = []
    scores = {}
    for e in (env, Shifted(env, C)):
        policy = GaussianMPCPolicy(spec, phi, sigma=0.5)
        res = reinforce_gradient(e, policy, episodes=N, T=1, gamma=gamma, seed=9)
        grads.append(res.grad)
    # the running baseline sees every return shifted by C except episode 0's
    # empty read, so the estimates differ by exactly C * score_0 / N
    rng = episode_rng(9, 0)
    s = env.reset(rng)
    mean, kkt = mpc_policy(spec, phi, s)
    a = mean + 0.5 * rng.standard_normal(1)
    jac = jac_policy_wrt_params(spec, phi, kkt).jac_action
    score0 = jac.T @ ((a - mean) / 0.5**2)
    np.testing.assert_allclose(grads[1] - grads[0], C * score0 / N, atol=1e-10)


def test_reinforce_counts_degenerate_timesteps():
    spec, phi = make_scalar_ocp(u_lo=-1.0, u_hi=1.0)
    A, B, Qc, Rc = ([[0.8]], [[0.5]], [[1.0]], [[0.2]])
    _, K = dp.riccati_solve(np.array(A), np.array(B), np.array(Qc),
                            np.array(Rc), 0.9)
    s0 = -1.0 / float(K[0, 0])  # policy mean lands exactly on the bound
    env = LQEnv(LQEnvConfig(A=A, B=B, Qc=Qc, Rc=Rc, noise_std=[0.0],
                            x0_lo=[s0], x0_hi=[s0]))
    policy = GaussianMPCPolicy(spec, phi, sigma=0.2)
    res = reinforce_gradient(env, policy, episodes=1, T=1, gamma=0.9, seed=0)
    assert res.dropped == 1
    np.testing.assert_array_equal(res.grad, np.zeros(phi.size))


def test_running_baseline_reads_before_update():
    b = RunningBaseline()
    assert b.value == 0.0
    b.update(2.0)
    assert b.value == 2.0
    b.update(4.0)
    assert b.value == 3.0


def test_policy_sampling_and_sigma_checks(lq2_ocp):
    spec, phi = lq2_ocp
    with pytest.raises(ValueError, match="sigma"):
        GaussianMPCPolicy(spec, phi, sigma=0.0)
    policy = GaussianMPCPolicy(spec, phi, sigma=0.2)
    s = np.array([0.4, -0.2])
    mean_direct, _ = mpc_policy(spec, phi, s)
    a, mean, kkt = policy.sample(s, np.random.default_rng(1))
    np.testing.assert_allclose(mean, mean_direct, atol=1e-12)
    noise = np.random.default_rng(1).standard_normal(1)
    np.testing.assert_allclose(a, mean + 0.2 * noise, atol=1e-12)
    score = policy.score(kkt, a, mean)
    jac = jac_policy_wrt_params(spec, phi, kkt).jac_action
    np.testing.assert_allclose(score, jac.T @ ((a - mean) / 0.04), atol=1e-12)


# ---------------------------------------------------------------------------
# value fitting


def test_fit_constant_returns():
    states = np.random.default_rng(0).normal(size=(40, 2))
    model = fit_value_function(states, np.full(40, 10.0))
    assert model.rmse <= 1e-8
    assert model.value(np.array([3.0, -1.0])) == pytest.approx(10.0, abs=1e-8)


def test_fit_recovers_quadratic_value():
    P = np.array([[3.0, 0.5], [0.5, 2.0]])
    rng = np.random.default_rng(1)
    states = rng.normal(size=(60, 2))
    returns = np.array([-s @ P @ s for s in states])
    model = fit_value_function(states, returns)
    assert model.rmse <= 1e-8
    assert model.ridged is False
    s = np.array([0.7, -1.3])
    assert model.value(s) == pytest.approx(-s @ P @ s, abs=1e-8)
    np.testing.assert_allclose(model.value_hess(s), -(P + P.T) / 1.0, atol=1e-6)


def test_fit_marks_rank_deficiency():
    states = np.tile(np.array([[1.0, 2.0]]), (10, 1))  # one repeated point
    model = fit_value_function(states, np.full(10, 5.0))
    assert model.ridged is True
    assert model.value(np.array([1.0, 2.0])) == pytest.approx(5.0, abs=1e-3)


def test_fit_input_validation():
    with pytest.raises(ValueError, match="empty"):
        fit_value_function(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError, match="disagree"):
        fit_value_function(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError, match="non-finite"):
        fit_value_function(np.zeros((2, 2)), np.array([1.0, np.nan]))


def test_value_model_derivatives_match_fd():
    rng = np.random.default_rng(2)
    n = 3
    model = ValueModel(n=n, weights=rng.normal(size=10))
    s = rng.normal(size=n)
    h = 1e-6
    fd_grad = np.zeros(n)
    fd_hess = np.zeros((n, n))
    fd_feat = np.zeros((model.feature_dim(), n))
    for i in range(n):
        dp_, dm = s.copy(), s.copy()
        dp_[i] += h
        dm[i] -= h
        fd_grad[i] = (model.value(dp_) - model.value(dm)) / (2 * h)
        fd_hess[:, i] = (model.value_grad(dp_) - model.value_grad(dm)) / (2 * h)
        fd_feat[:, i] = (model.features(dp_) - model.features(dm)) / (2 * h)
    np.testing.assert_allclose(model.value_grad(s), fd_grad, atol=1e-6)
    np.testing.assert_allclose(model.value_hess(s), fd_hess, atol=1e-5)
    np.testing.assert_allclose(model.features_jac(s), fd_feat, atol=1e-6)


def test_value_model_features_batch_equals_per_state():
    rng = np.random.default_rng(3)
    n = 4
    model = ValueModel(n=n, weights=rng.normal(size=15))
    S = rng.normal(size=(2, 5, n))
    feats = model.features(S)
    assert feats.shape == (2, 5, model.feature_dim())
    per_state = np.stack([[model.features(s) for s in row] for row in S])
    np.testing.assert_array_equal(feats, per_state)
    values = model.value(S)
    assert values.shape == (2, 5)
    np.testing.assert_allclose(
        values, [[model.value(s) for s in row] for row in S], rtol=1e-12, atol=1e-12
    )
    assert isinstance(model.value(S[0, 0]), float)
