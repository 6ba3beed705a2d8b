"""Rollouts, returns, Monte Carlo estimates, and tabular MDP validation."""

import numpy as np
import pytest

from qmpc import harness
from qmpc.envs import CSTREnv, LQEnv, LQEnvConfig
from qmpc.errors import DimensionError, DivergenceError
from qmpc.mdp import (
    TabularMDP,
    Trajectory,
    Transition,
    check_gamma,
    discounted_return,
    episode_rng,
    estimate_J,
    rollout,
)
from qmpc.rl import ValueModel
from tests.conftest import A2, B2, Q2, R2, StaticEnv, make_cstr_config


# Toy environments follow the stacked protocol rollout drives: states (B, n),
# actions (B, m), rewards (B,) and one generator per row.


class CountingEnv:
    """s' = s + 1 deterministically, r = s; exposes exact bookkeeping."""

    n = 1
    m = 1

    def reset(self, rngs):
        return np.zeros((len(rngs), 1))

    def step(self, S, A, rngs):
        return S[:, 0].copy(), S + 1.0


class NoisyRewardEnv:
    """State constant, reward 1 + Gaussian noise."""

    n = 1
    m = 1

    def __init__(self, noise=0.5):
        self.noise = noise

    def reset(self, rngs):
        return np.zeros((len(rngs), 1))

    def step(self, S, A, rngs):
        noise = np.array([g.standard_normal() for g in rngs])
        return 1.0 + self.noise * noise, np.asarray(S, dtype=float)


class BlowUp:
    """s' = s + 1 until s exceeds 1.5, then non-finite; starts at ``starts``
    (one per episode, cycled)."""

    n = 1
    m = 1

    def __init__(self, starts=(0.0,)):
        self.starts = starts

    def reset(self, rngs):
        return np.resize(np.asarray(self.starts, dtype=float), (len(rngs), 1))

    def step(self, S, A, rngs):
        return np.zeros(len(S)), S + np.where(S > 1.5, np.inf, 1.0)


def zero_policy(s):
    return np.zeros(1)


# ---------------------------------------------------------------------------
# rollout


def test_rollout_fixed_point_env():
    traj = rollout(StaticEnv(), zero_policy, T=3, seed=0)
    assert len(traj) == 3
    assert np.all(traj.rewards == 1.0)
    assert np.all(traj.states == 0.0)


def test_rollout_chaining_and_bookkeeping():
    traj = rollout(CountingEnv(), zero_policy, T=5, seed=1)
    for t in range(len(traj) - 1):
        assert np.array_equal(traj.steps[t].s_next, traj.steps[t + 1].s)
    assert np.array_equal(traj.states[:, 0], np.arange(6.0))
    assert np.array_equal(traj.rewards, np.arange(5.0))
    assert traj.seed == 1


def test_rollout_same_seed_identical():
    cfg = LQEnvConfig(A=A2, B=B2, Qc=Q2, Rc=R2, noise_std=[0.1, 0.1],
                      x0_lo=[-1, -1], x0_hi=[1, 1])
    t1 = rollout(LQEnv(cfg), zero_policy, T=20, seed=7)
    t2 = rollout(LQEnv(cfg), zero_policy, T=20, seed=7)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.rewards, t2.rewards)
    t3 = rollout(LQEnv(cfg), zero_policy, T=20, seed=8)
    assert not np.array_equal(t1.states, t3.states)


def test_rollout_lq_optimal_policy_decays(lq2):
    A, B, Qc, Rc, gamma, P, K = lq2
    cfg = LQEnvConfig(A=A, B=B, Qc=Qc, Rc=Rc, noise_std=[0, 0],
                      x0_lo=[1.0, 1.0], x0_hi=[1.0, 1.0])
    traj = rollout(LQEnv(cfg), lambda s: -K @ s, T=50, seed=0)
    norms = np.linalg.norm(traj.states, axis=1)
    assert norms[-1] < 1e-3 * norms[0]


def test_rollout_wrong_action_dimension():
    with pytest.raises(DimensionError, match="step 0"):
        rollout(StaticEnv(), lambda s: np.zeros(3), T=2, seed=0)


def test_rollout_divergence_names_step():
    with pytest.raises(DivergenceError, match="step 2") as exc:
        rollout(BlowUp(), zero_policy, T=5, seed=0)
    assert exc.value.step == 2


def test_lockstep_divergence_names_episode_and_step():
    # episodes 0 and 2 count up from -10 and stay finite; episode 1 passes 1.5
    # at step 0 and turns non-finite at step 1
    with pytest.raises(DivergenceError, match="episode 1 at step 1") as exc:
        rollout(BlowUp(starts=(-10.0, 1.0, -10.0)), [zero_policy] * 3, T=5, seed=0)
    assert exc.value.step == 1


def test_lockstep_rollout_matches_lone_rollouts_bit_for_bit():
    # 16 reactor episodes under value training's epsilon-greedy policy: each
    # draws its start and its exploration from its own generator, and each
    # greedy choice integrates the grid one state at a time
    cfg = make_cstr_config()
    grid = harness._action_grid(cfg, 5)
    vmodel = ValueModel(n=4, weights=harness.default_terminal_weights(50.0, cfg.setpoint))
    T, episodes = 12, 16

    def policies_and_rngs():
        rngs = [episode_rng(5, ep) for ep in range(episodes)]
        return [harness.epsilon_greedy_policy(cfg, vmodel, grid, 0.98, 0.3, g) for g in rngs], rngs

    policies, rngs = policies_and_rngs()
    lockstep = rollout(CSTREnv(cfg), policies, T, seed=5, rng=rngs)
    policies, rngs = policies_and_rngs()
    lone = [rollout(CSTREnv(cfg), pi, T, seed=5, rng=g) for pi, g in zip(policies, rngs)]
    assert len(lockstep) == episodes
    for got, want in zip(lockstep, lone):
        assert got.seed == want.seed and len(got) == len(want) == T
        for a, b in zip(got.steps, want.steps):
            for field in ("s", "a", "r", "s_next"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), field
    # the episodes differ, and the policy sometimes explores and sometimes not
    assert len({traj.steps[-1].s_next.tobytes() for traj in lockstep}) == episodes


def test_rollout_checks_one_generator_per_policy():
    with pytest.raises(ValueError, match="2 policies and 1 generators"):
        rollout(StaticEnv(), [zero_policy] * 2, T=2, seed=0, rng=[episode_rng(0, 0)])


def test_rollout_requires_positive_T():
    with pytest.raises(ValueError):
        rollout(StaticEnv(), zero_policy, T=0, seed=0)


# ---------------------------------------------------------------------------
# discounted_return


def test_discounted_return_direct_sum():
    traj = rollout(StaticEnv(), zero_policy, T=3, seed=0)
    assert discounted_return(traj, 0.9) == pytest.approx(2.71, abs=1e-12)


def test_discounted_return_small_gamma_is_first_reward():
    traj = rollout(CountingEnv(), zero_policy, T=4, seed=0)  # rewards 0,1,2,3
    assert discounted_return(traj, 1e-12) == pytest.approx(traj.rewards[0], abs=1e-10)


def test_discounted_return_truncation_bound():
    # constant reward 1: the T-step tail is exactly gamma^T / (1 - gamma)
    gamma = 0.9
    long = rollout(StaticEnv(), zero_policy, T=60, seed=0)
    short = Trajectory(steps=long.steps[:20], seed=0)
    gap = abs(discounted_return(long, gamma) - discounted_return(short, gamma))
    assert gap <= gamma**20 * 1.0 / (1 - gamma) + 1e-12


def test_discounted_return_matches_riccati_value(lq2):
    A, B, Qc, Rc, gamma, P, K = lq2
    s0 = np.array([0.7, -1.1])
    cfg = LQEnvConfig(A=A, B=B, Qc=Qc, Rc=Rc, noise_std=[0, 0],
                      x0_lo=s0, x0_hi=s0)
    traj = rollout(LQEnv(cfg), lambda s: -K @ s, T=300, seed=0)
    assert discounted_return(traj, gamma) == pytest.approx(-float(s0 @ P @ s0), abs=1e-8)


def test_discounted_return_rejects_bad_gamma_and_empty():
    traj = rollout(StaticEnv(), zero_policy, T=1, seed=0)
    for g in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            discounted_return(traj, g)
    assert check_gamma(0.5) == 0.5


# ---------------------------------------------------------------------------
# estimate_J


def test_estimate_J_deterministic_zero_stderr():
    mean, stderr = estimate_J(StaticEnv(), zero_policy, episodes=5, T=10, gamma=0.9, seed=3)
    assert stderr == 0.0
    mean1, stderr1 = estimate_J(StaticEnv(), zero_policy, episodes=1, T=10, gamma=0.9, seed=3)
    assert stderr1 == 0.0
    assert mean == pytest.approx(mean1)


def test_estimate_J_geometric_series():
    mean, _ = estimate_J(StaticEnv(), zero_policy, episodes=2, T=200, gamma=0.9, seed=0)
    assert mean == pytest.approx(10.0, abs=1e-8)


def test_estimate_J_unbiased_within_three_stderr():
    env = NoisyRewardEnv(noise=0.5)
    gamma, T = 0.9, 30
    truth = (1 - gamma**T) / (1 - gamma)
    mean, stderr = estimate_J(env, zero_policy, episodes=400, T=T, gamma=gamma, seed=11)
    assert stderr > 0.0
    assert abs(mean - truth) <= 3.0 * stderr


def test_estimate_J_noisy_lq_matches_noiseless_control_run(lq2):
    A, B, Qc, Rc, gamma, P, K = lq2
    kw = dict(A=A, B=B, Qc=Qc, Rc=Rc, x0_lo=[-1, -1], x0_hi=[1, 1])
    noisy = LQEnv(LQEnvConfig(noise_std=[0.01, 0.01], **kw))
    clean = LQEnv(LQEnvConfig(noise_std=[0.0, 0.0], **kw))
    policy = lambda s: -K @ s
    m_noisy, se = estimate_J(noisy, policy, episodes=100, T=80, gamma=gamma, seed=5)
    m_clean, _ = estimate_J(clean, policy, episodes=100, T=80, gamma=gamma, seed=5)
    assert abs(m_noisy - m_clean) <= 3.0 * se


def test_estimate_J_equals_lone_seeded_rollouts(lq2):
    A, B, Qc, Rc, gamma, P, K = lq2
    env = LQEnv(LQEnvConfig(A=A, B=B, Qc=Qc, Rc=Rc, noise_std=[0.05, 0.02],
                            x0_lo=[-1, -1], x0_hi=[1, 1]))
    policy = lambda s: -K @ s
    returns = np.array([
        discounted_return(rollout(env, policy, 15, 4, rng=episode_rng(4, ep)), gamma)
        for ep in range(7)
    ])
    mean, stderr = estimate_J(env, policy, episodes=7, T=15, gamma=gamma, seed=4)
    assert (mean, stderr) == (float(np.mean(returns)), float(np.std(returns, ddof=1) / np.sqrt(7)))


def test_estimate_J_propagates_divergence_with_episode():
    class DivergingEnv:
        n = 1
        m = 1

        def reset(self, rngs):
            return np.array([[g.uniform()] for g in rngs])

        def step(self, S, A, rngs):
            return np.zeros(len(S)), S * np.inf

    with pytest.raises(DivergenceError, match="episode 0"):
        estimate_J(DivergingEnv(), zero_policy, episodes=2, T=3, gamma=0.9, seed=0)
    with pytest.raises(ValueError):
        estimate_J(StaticEnv(), zero_policy, episodes=0, T=3, gamma=0.9, seed=0)


# ---------------------------------------------------------------------------
# episode_rng


def test_episode_rng_reproducible_and_independent():
    a = episode_rng(42, 3).standard_normal(8)
    b = episode_rng(42, 3).standard_normal(8)
    c = episode_rng(42, 4).standard_normal(8)
    d = episode_rng(43, 3).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ---------------------------------------------------------------------------
# data types


def test_transition_validation():
    s = np.zeros(2)
    with pytest.raises(ValueError):
        Transition(s=s, a=np.zeros(1), r=np.nan, s_next=s)
    with pytest.raises(DimensionError):
        Transition(s=s, a=np.zeros(1), r=0.0, s_next=np.zeros(3))


def test_trajectory_rejects_broken_chain():
    t0 = Transition(s=np.zeros(1), a=np.zeros(1), r=0.0, s_next=np.ones(1))
    t_bad = Transition(s=np.full(1, 5.0), a=np.zeros(1), r=0.0, s_next=np.zeros(1))
    with pytest.raises(ValueError, match="chaining"):
        Trajectory(steps=(t0, t_bad), seed=0)


def test_tabular_mdp_validation():
    P = np.zeros((2, 2, 2))
    P[:, :, 0] = 1.0
    R = np.zeros((2, 2))
    mdp = TabularMDP(P=P, R=R, gamma=0.9)
    assert mdp.n_states == 2 and mdp.n_actions == 2

    bad = P.copy()
    bad[0, 0, 0] = 0.9999
    with pytest.raises(ValueError, match="sum to 1"):
        TabularMDP(P=bad, R=R, gamma=0.9)
    neg = P.copy()
    neg[0, 0, 0] = -0.5
    neg[0, 0, 1] = 1.5
    with pytest.raises(ValueError, match="negative"):
        TabularMDP(P=neg, R=R, gamma=0.9)
    with pytest.raises(DimensionError):
        TabularMDP(P=P, R=np.zeros((3, 2)), gamma=0.9)
    with pytest.raises(ValueError):
        TabularMDP(P=P, R=R, gamma=1.0)
    with pytest.raises(ValueError):
        TabularMDP(P=P, R=np.full((2, 2), np.inf), gamma=0.9)
