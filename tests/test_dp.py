"""Dynamic-programming oracles: value iteration, greedy policies, Riccati."""

import numpy as np
import pytest
import scipy.linalg

from qmpc import dp
from qmpc.errors import DimensionError, NonConvergenceError
from qmpc.mdp import TabularMDP
from tests.conftest import A2, B2, Q2, R2

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def one_state_mdp(r=1.0, gamma=0.9):
    return TabularMDP(P=np.ones((1, 1, 1)), R=np.full((1, 1), r), gamma=gamma)


def chain_mdp():
    """Two states, actions (stay, advance); advance pays 1 into an absorbing
    zero-reward state.  gamma=0.5 gives Q*(s0) = (0.5, 1)."""
    P = np.zeros((2, 2, 2))
    P[0, 0, 0] = 1.0  # stay
    P[0, 1, 1] = 1.0  # advance
    P[1, :, 1] = 1.0  # absorbing
    R = np.array([[0.0, 1.0], [0.0, 0.0]])
    return TabularMDP(P=P, R=R, gamma=0.5)


def random_mdp(rng, nS=None, nA=None):
    nS = int(rng.integers(2, 21)) if nS is None else nS
    nA = int(rng.integers(2, 6)) if nA is None else nA
    return TabularMDP(
        P=rng.dirichlet(np.ones(nS), size=(nS, nA)),
        R=rng.uniform(-1, 1, size=(nS, nA)),
        gamma=float(rng.uniform(0.85, 0.99)),
    )


def random_stabilizable_lq(rng, n=2, m=1):
    A = rng.normal(size=(n, n)) * 0.6
    B = rng.normal(size=(n, m))
    Qc = np.eye(n)
    Rc = np.eye(m) * float(rng.uniform(0.3, 2.0))
    gamma = float(rng.uniform(0.9, 0.98))
    return A, B, Qc, Rc, gamma


# ---------------------------------------------------------------------------
# bellman_backup / bellman_residual


def test_backup_single_state():
    mdp = one_state_mdp()
    assert dp.bellman_backup(mdp, np.zeros((1, 1)))[0, 0] == pytest.approx(1.0)


def test_backup_geometric_accumulation():
    mdp = one_state_mdp()
    Q = np.zeros((1, 1))
    for k in range(1, 8):
        Q = dp.bellman_backup(mdp, Q)
        assert Q[0, 0] == pytest.approx(sum(0.9**i for i in range(k)), abs=1e-12)


def test_backup_shape_check():
    with pytest.raises(DimensionError):
        dp.bellman_backup(one_state_mdp(), np.zeros((2, 2)))


def test_residual_of_zero_q_on_unit_reward():
    assert dp.bellman_residual(one_state_mdp(), np.zeros((1, 1))) == pytest.approx(1.0)


def test_residual_decreases_along_iterates():
    rng = np.random.default_rng(0)
    for _ in range(5):
        mdp = random_mdp(rng)
        Q = np.zeros((mdp.n_states, mdp.n_actions))
        res = [dp.bellman_residual(mdp, Q)]
        for _ in range(15):
            Q = dp.bellman_backup(mdp, Q)
            res.append(dp.bellman_residual(mdp, Q))
        assert all(res[i + 1] <= res[i] + 1e-12 for i in range(len(res) - 1))


def test_contraction_property():
    rng = np.random.default_rng(1)
    mdp = random_mdp(rng, nS=5, nA=3)
    for _ in range(100):
        Q1 = rng.normal(size=(5, 3))
        Q2 = rng.normal(size=(5, 3))
        lhs = np.max(np.abs(dp.bellman_backup(mdp, Q1) - dp.bellman_backup(mdp, Q2)))
        assert lhs <= mdp.gamma * np.max(np.abs(Q1 - Q2)) + 1e-12


# ---------------------------------------------------------------------------
# value_iteration


def test_value_iteration_geometric_series():
    Q, iters = dp.value_iteration(one_state_mdp(), tol=1e-10)
    assert Q[0, 0] == pytest.approx(10.0, abs=1e-9)
    assert iters >= 1
    assert dp.bellman_residual(one_state_mdp(), Q) <= 1e-10


def test_value_iteration_chain():
    Q, _ = dp.value_iteration(chain_mdp(), tol=1e-12)
    assert Q[0, 1] == pytest.approx(1.0, abs=1e-10)
    assert Q[0, 0] == pytest.approx(0.5, abs=1e-10)
    assert np.allclose(Q[1], 0.0, atol=1e-10)


def test_value_iteration_tol_monotonicity():
    mdp = random_mdp(np.random.default_rng(2))
    Q_loose, it_loose = dp.value_iteration(mdp, tol=1e-6)
    Q_tight, it_tight = dp.value_iteration(mdp, tol=1e-10)
    assert it_loose <= it_tight
    assert dp.bellman_residual(mdp, Q_tight) <= dp.bellman_residual(mdp, Q_loose) + 1e-15


def test_value_iteration_warm_start_at_fixed_point():
    mdp = random_mdp(np.random.default_rng(3))
    Q_star, _ = dp.value_iteration(mdp, tol=1e-12)
    _, iters = dp.value_iteration(mdp, tol=1e-10, Q0=Q_star)
    assert iters == 1


def test_value_iteration_counts_backups():
    # deltas from Q=0 are 1, 0.9, 0.81, ...; first one <= 0.5 is 0.9^7
    _, iters = dp.value_iteration(one_state_mdp(), tol=0.5)
    assert iters == 8


# ---------------------------------------------------------------------------
# greedy_policy_tabular / policy_evaluation_tabular


def test_greedy_rows_and_tie_break():
    pi = dp.greedy_policy_tabular(np.array([[1.0, 3.0, 2.0], [2.0, 2.0, 0.0]]))
    assert pi.tolist() == [1, 0]
    with pytest.raises(DimensionError):
        dp.greedy_policy_tabular(np.zeros(3))


def test_greedy_on_chain_advances():
    mdp = chain_mdp()
    Q, _ = dp.value_iteration(mdp, tol=1e-12)
    assert dp.greedy_policy_tabular(Q)[0] == 1


def test_policy_evaluation_chain_closed_form():
    mdp = chain_mdp()
    V_stay = dp.policy_evaluation_tabular(mdp, np.array([0, 0]))
    assert V_stay == pytest.approx([0.0, 0.0], abs=1e-12)
    V_adv = dp.policy_evaluation_tabular(mdp, np.array([1, 0]))
    assert V_adv == pytest.approx([1.0, 0.0], abs=1e-12)


def test_policy_evaluation_input_checks():
    mdp = chain_mdp()
    with pytest.raises(DimensionError):
        dp.policy_evaluation_tabular(mdp, np.array([0]))
    with pytest.raises(ValueError):
        dp.policy_evaluation_tabular(mdp, np.array([0, 5]))


def test_greedy_policy_improvement():
    rng = np.random.default_rng(4)
    for _ in range(10):
        mdp = random_mdp(rng)
        # evaluate an arbitrary policy, then act greedily on its Q
        pi0 = rng.integers(mdp.n_actions, size=mdp.n_states)
        V0 = dp.policy_evaluation_tabular(mdp, pi0)
        Q_pi = mdp.R + mdp.gamma * mdp.P @ V0
        pi1 = dp.greedy_policy_tabular(Q_pi)
        V1 = dp.policy_evaluation_tabular(mdp, pi1)
        assert np.all(V1 >= V0 - 1e-9)


def test_value_iteration_sweeps_are_bellman_backups_bit_for_bit():
    # gamma P is formed once per call; each sweep must still round as
    # bellman_backup does, so the iterates and their count stay the same
    rng = np.random.default_rng(13)
    for _ in range(5):
        mdp = random_mdp(rng)
        Q, iters = dp.value_iteration(mdp, tol=1e-10)
        want = np.zeros_like(mdp.R)
        for _ in range(iters):
            want = dp.bellman_backup(mdp, want)
        assert Q.tobytes() == want.tobytes()
        assert np.max(np.abs(dp.bellman_backup(mdp, want) - want)) <= 1e-10


def test_value_iteration_checks_the_warm_start_shape():
    with pytest.raises(DimensionError):
        dp.value_iteration(one_state_mdp(), Q0=np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# riccati_solve


def test_riccati_no_dynamics():
    P, K = dp.riccati_solve(np.zeros((2, 2)), B2, Q2, R2, 0.9)
    assert np.allclose(P, Q2, atol=1e-12)
    assert np.allclose(K, 0.0, atol=1e-12)


def test_riccati_scalar_golden_ratio():
    one = np.ones((1, 1))
    P, K = dp.riccati_solve(one, one, one, one, 1.0 - 1e-6)
    assert abs(P[0, 0] - GOLDEN) <= 1e-5
    assert abs(K[0, 0] - (GOLDEN - 1.0)) <= 1e-5


def test_riccati_fixed_point_and_gain():
    rng = np.random.default_rng(5)
    for _ in range(5):
        A, B, Qc, Rc, gamma = random_stabilizable_lq(rng)
        P, K = dp.riccati_solve(A, B, Qc, Rc, gamma)
        G = Rc + gamma * B.T @ P @ B
        resid = Qc + gamma * A.T @ P @ A - gamma**2 * (A.T @ P @ B) @ np.linalg.solve(
            G, B.T @ P @ A
        ) - P
        assert np.max(np.abs(resid)) <= 1e-10
        assert np.allclose(K, np.linalg.solve(G, gamma * B.T @ P @ A), atol=1e-8)
        assert np.allclose(P, P.T, atol=1e-10)
        assert np.min(np.linalg.eigvalsh(P)) >= -1e-10


def test_riccati_against_scipy_dare():
    # discounting folds into scaled dynamics: the fixed point of the
    # discounted equation is the standard DARE solution for (sqrt(g)A, sqrt(g)B)
    rng = np.random.default_rng(6)
    for _ in range(5):
        A, B, Qc, Rc, gamma = random_stabilizable_lq(rng)
        P, _ = dp.riccati_solve(A, B, Qc, Rc, gamma)
        P_ref = scipy.linalg.solve_discrete_are(
            np.sqrt(gamma) * A, np.sqrt(gamma) * B, Qc, Rc
        )
        assert np.max(np.abs(P - P_ref)) <= 1e-8


def test_riccati_non_stabilizable_raises():
    A = np.array([[2.0]])
    B = np.array([[0.0]])
    with pytest.raises(NonConvergenceError):
        dp.riccati_solve(A, B, np.eye(1), np.eye(1), 0.99)


def test_riccati_gives_up_on_a_stalled_iteration(monkeypatch):
    # the third LQ instance of oracle-suite seed 10: stabilizable (the PBH
    # test's smallest singular value is 5.8e-4 at the unstable eigenvalue
    # -1.355), but max|P| = 1.85e6, so one ulp (2.3e-10) is far above
    # tol = 1e-12 and the update wanders at P's rounding instead of falling
    A = np.array([[-0.6576024628299688, -1.67859560711584],
                  [-0.6326975229960728, 0.16726333286165226]])
    B = np.array([[-1.1196904347267307], [1.016453667432266]])
    Rc = np.array([[0.9899352447208882]])
    gamma = 0.9773376303225438
    lam = np.linalg.eigvals(A)
    unstable = lam[np.abs(lam) * np.sqrt(gamma) >= 1.0]
    assert unstable.size == 1
    pbh = np.linalg.svd(np.hstack([A - unstable[0] * np.eye(2), B]), compute_uv=False)
    assert pbh.min() > 1e-4
    # each sweep makes one np.linalg.solve; each of the three passes used to
    # run all MAX_RICCATI_ITERS sweeps
    sweeps = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: sweeps.append(1) or solve(*a))
    stall = f"stalled, with no smaller update in {dp.RICCATI_STALL_SWEEPS} sweeps"
    with pytest.raises(NonConvergenceError, match=stall):
        dp.riccati_solve(A, B, np.eye(2), Rc, gamma)
    assert len(sweeps) < dp.MAX_RICCATI_ITERS


def test_riccati_input_validation():
    with pytest.raises(ValueError):
        dp.riccati_solve(A2, B2, Q2, -R2, 0.9)  # Rc not PD
    with pytest.raises(ValueError):
        dp.riccati_solve(A2, B2, np.array([[1.0, 0.5], [0.0, 1.0]]), R2, 0.9)  # asymmetric
    with pytest.raises(DimensionError):
        dp.riccati_solve(np.eye(3), B2, Q2, R2, 0.9)


# ---------------------------------------------------------------------------
# lq_optimal_q


def test_lq_optimal_q_origin(lq2):
    A, B, Qc, Rc, gamma, P, _ = lq2
    assert dp.lq_optimal_q(A, B, Qc, Rc, P, gamma, np.zeros(2), np.zeros(1)) == 0.0


def test_lq_optimal_q_at_optimal_action_is_value(lq2):
    A, B, Qc, Rc, gamma, P, K = lq2
    rng = np.random.default_rng(7)
    for _ in range(10):
        s = rng.normal(size=2)
        q = dp.lq_optimal_q(A, B, Qc, Rc, P, gamma, s, -K @ s)
        assert q == pytest.approx(float(s @ P @ s), abs=1e-9)


def test_lq_optimal_q_completing_the_square(lq2):
    A, B, Qc, Rc, gamma, P, K = lq2
    G = Rc + gamma * B.T @ P @ B
    rng = np.random.default_rng(8)
    for _ in range(10):
        s = rng.normal(size=2)
        a = rng.normal(size=1)
        gap = dp.lq_optimal_q(A, B, Qc, Rc, P, gamma, s, a) - float(s @ P @ s)
        d = a + K @ s
        assert gap == pytest.approx(float(d @ G @ d), abs=1e-9)
        if np.linalg.norm(d) > 1e-6:
            assert gap > 0.0


def test_lq_optimal_q_grid_minimum_at_gain(lq2):
    A, B, Qc, Rc, gamma, P, K = lq2
    s = np.array([0.4, -0.8])
    a_star = float((-K @ s)[0])
    grid = np.linspace(a_star - 1.0, a_star + 1.0, 101)  # contains a_star exactly
    vals = [dp.lq_optimal_q(A, B, Qc, Rc, P, gamma, s, np.array([a])) for a in grid]
    assert grid[int(np.argmin(vals))] == pytest.approx(a_star, abs=1e-12)
