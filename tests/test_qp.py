"""Active-set QP core: frozen examples, KKT certificates, random cross-checks."""

import itertools

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmpc.qp import _solve_kkt, qp_solve


def kkt_certificate(sol, H, g, Aineq=None, bineq=None, tol=1e-8):
    """Assert stationarity, feasibility, dual signs, and complementarity."""
    x = sol.primal
    grad = H @ x + g
    if Aineq is not None:
        grad = grad + Aineq.T @ sol.dual_ineq
        slack = bineq - Aineq @ x
        assert np.min(slack) >= -tol
        assert np.min(sol.dual_ineq) >= -tol
        assert np.max(np.abs(sol.dual_ineq * slack)) <= 1e-6
    assert np.max(np.abs(grad)) <= 1e-6


# ---------------------------------------------------------------------------
# frozen examples


def test_unconstrained_stationarity():
    sol = qp_solve(np.eye(2), np.array([-1.0, -2.0]))
    assert sol.status == "converged"
    assert np.allclose(sol.primal, [1.0, 2.0], atol=1e-10)
    assert sol.active_set.size == 0


def test_scalar_clamped_inequality():
    sol = qp_solve(
        np.array([[1.0]]), np.array([-2.0]),
        np.array([[1.0]]), np.array([1.0]),
    )
    assert sol.status == "converged"
    assert np.allclose(sol.primal, [1.0], atol=1e-10)
    assert np.allclose(sol.dual_ineq, [1.0], atol=1e-10)
    assert sol.active_set.tolist() == [0]


# ---------------------------------------------------------------------------
# status channels


def test_infeasible_inequalities():
    Aineq = np.array([[1.0], [-1.0]])  # x <= -1 and -x <= -2  ->  x >= 2
    sol = qp_solve(np.eye(1), np.zeros(1), Aineq, np.array([-1.0, -2.0]))
    assert sol.status == "infeasible"


def test_semidefinite_hessian_is_rejected():
    H = np.diag([1.0, 0.0])  # flat direction with linear drift
    sol = qp_solve(H, np.array([0.0, -1.0]))
    assert sol.status == "diverged"


def test_pivot_cap_reports_max_iter():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(6, 4))
    H = M.T @ M + 0.1 * np.eye(4)
    g = rng.normal(size=4)
    Aineq = np.vstack([np.eye(4), -np.eye(4)])
    bineq = np.full(8, 0.05)
    sol = qp_solve(H, g, Aineq, bineq, max_pivots=1)
    assert sol.status in ("max_iter", "converged")
    full = qp_solve(H, g, Aineq, bineq)
    assert full.status == "converged"


# ---------------------------------------------------------------------------
# structural edge cases


def test_zero_variable_qp_checks_its_rows():
    # a QP with nothing left to choose: only all-zero rows, which decide
    # feasibility by their right-hand sides alone
    H, g, A = np.zeros((0, 0)), np.zeros(0), np.zeros((2, 0))
    sol = qp_solve(H, g, A, np.array([0.0, 1.0]))
    assert sol.status == "converged" and sol.primal.size == 0
    assert sol.dual_ineq.tolist() == [0.0, 0.0] and sol.active_set.size == 0
    assert qp_solve(H, g, A, np.array([0.0, -1.0])).status == "infeasible"


def test_zero_inequality_rows_are_pruned():
    Aineq = np.array([[0.0, 0.0], [1.0, 0.0]])
    sol = qp_solve(np.eye(2), np.array([-3.0, 0.0]), Aineq, np.array([5.0, 1.0]))
    assert sol.status == "converged"
    assert sol.primal[0] == pytest.approx(1.0, abs=1e-8)


def _bordered_solve_kkt(H, A, g, b):
    """_solve_kkt by the bordered assembly, which it skips without rows."""
    nz, nc = H.shape[0], A.shape[0]
    K = np.zeros((nz + nc, nz + nc))
    K[:nz, :nz] = H
    K[:nz, nz:] = A.T
    K[nz:, :nz] = A
    rhs = np.concatenate([-g, np.broadcast_to(b, (nc,) + np.shape(g)[1:])])
    sol = np.linalg.solve(K, rhs)
    resid = float(np.max(np.abs(K @ sol - rhs)))
    return sol[:nz], sol[nz:], resid / (1.0 + float(np.max(np.abs(rhs))))


@pytest.mark.parametrize("cols", [None, 1, 3])
def test_kkt_solve_without_rows_matches_bordered_assembly_bit_for_bit(cols):
    # without rows the bordered matrix is H itself, and K @ sol - rhs is
    # H @ x + g: the direct solve must give the same bits, residual included
    rng = np.random.default_rng(11)
    for nz in (1, 5, 12):
        M = rng.normal(size=(nz, nz))
        H = M @ M.T + 0.1 * np.eye(nz)
        g = rng.normal(size=nz if cols is None else (nz, cols))
        g.flat[0] = -0.0
        for b in (0.0, np.zeros((0,) + g.shape[1:])):
            got = _solve_kkt(H, np.zeros((0, nz)), g, b)
            want = _bordered_solve_kkt(H, np.zeros((0, nz)), g, b)
            for x, y in zip(got[:2], want[:2]):
                assert x.shape == y.shape and x.tobytes() == y.tobytes()
            assert got[2] == want[2]


@pytest.mark.parametrize("Aineq, bineq", [(None, None), (np.zeros((0, 4)), np.zeros(0)),
                                          (np.zeros((2, 4)), np.array([0.0, 1.0]))],
                         ids=["none", "empty", "all_zero"])
def test_qp_without_live_rows_factors_and_solves_once(Aineq, bineq, monkeypatch):
    # no row can block or leave, so the Cholesky test and the one free solve
    # are the whole QP
    calls = []
    for name in ("cholesky", "solve"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _name=name, _fn=fn, **k: calls.append(_name) or _fn(*a, **k))
    rng = np.random.default_rng(12)
    M = rng.normal(size=(4, 4))
    H, g = M @ M.T + np.eye(4), rng.normal(size=4)
    sol = qp_solve(H, g, Aineq, bineq, active0=np.array([0]))
    assert calls == ["cholesky", "solve"]
    assert sol.status == "converged" and sol.iterations == 0 and sol.active_set.size == 0
    assert sol.primal.tobytes() == np.linalg.solve(0.5 * (H + H.T), -g).tobytes()
    assert sol.dual_ineq.tolist() == [0.0] * (0 if bineq is None else bineq.size)


def test_warm_start_reuses_active_set():
    H = np.eye(2)
    g = np.array([-3.0, -3.0])
    Aineq = np.vstack([np.eye(2), -np.eye(2)])
    bineq = np.array([1.0, 1.0, 0.0, 0.0])
    cold = qp_solve(H, g, Aineq, bineq)
    assert cold.status == "converged"
    warm = qp_solve(H, g, Aineq, bineq, active0=cold.active_set)
    assert warm.status == "converged"
    assert np.allclose(warm.primal, cold.primal, atol=1e-10)
    assert warm.iterations <= cold.iterations


def test_dependent_warm_start_falls_back_to_cold_start():
    # rows 0 and 1 coincide, so the warm-start working set [0, 1] has a
    # singular KKT matrix: the solve starts cold and keeps row 0 alone
    H = np.eye(2)
    g = np.array([-3.0, -3.0])
    Aineq = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    bineq = np.array([1.0, 1.0, 5.0])
    sol = qp_solve(H, g, Aineq, bineq, active0=np.array([0, 1]))
    cold = qp_solve(H, g, Aineq, bineq)
    assert sol.status == cold.status == "converged"
    assert sol.active_set.tolist() == cold.active_set.tolist() == [0]
    assert sol.dual_ineq.tolist() == cold.dual_ineq.tolist() == [2.0, 0.0, 0.0]
    assert np.array_equal(sol.primal, cold.primal)
    # with a row 3 below ZERO_ROW_TOL added, which counts as all zero: a warm
    # start naming it, or an index outside the rows, names no row that can
    # enter the working set, and the solve starts cold
    Aineq, bineq = np.vstack([Aineq, [1e-15, 0.0]]), np.append(bineq, 0.0)
    cold = qp_solve(H, g, Aineq, bineq)
    for active0 in ([3], [4], [-1], [3, 9]):
        sol = qp_solve(H, g, Aineq, bineq, active0=np.array(active0))
        assert sol.status == cold.status == "converged"
        assert sol.iterations == cold.iterations
        assert sol.active_set.tolist() == cold.active_set.tolist() == [0]
        assert np.array_equal(sol.primal, cold.primal)


def _tie_qp(c2, c3):
    """Row 0 is all zero; rows 2 and 3 both read x_0 <= 1, scaled by c2 and
    c3.  From the warm start on row 1 (x = 0), the multiplier of row 1 is
    negative, and once it is dropped the free step (2, 2) reaches rows 2 and
    3 at the same step length 0.5."""
    H = np.eye(2)
    g = np.array([-2.0, -2.0])
    A = np.array([[0.0, 0.0], [-1.0, -1.0], [c2, 0.0], [c3, 0.0], [0.0, 1.0]])
    b = np.array([0.0, 0.0, c2, c3, 5.0])
    return H, g, A, b


def test_tied_blockers_admit_the_lower_row():
    for c2, c3 in ((2.0, 1.0), (1.0, 2.0)):
        H, g, A, b = _tie_qp(c2, c3)
        sol = qp_solve(H, g, A, b, active0=np.array([1]))
        assert sol.status == "converged" and sol.iterations == 4
        assert sol.primal.tolist() == [1.0, 2.0]
        assert sol.active_set.tolist() == [2]
        assert sol.dual_ineq.tolist() == [0.0, 0.0, 1.0 / c2, 0.0, 0.0]


def test_certificate_on_mixed_constraints():
    H = np.array([[2.0, 0.5], [0.5, 1.0]])
    g = np.array([1.0, -4.0])
    Aineq = np.array([[0.0, 1.0], [-1.0, 0.0]])
    bineq = np.array([1.5, 0.0])
    sol = qp_solve(H, g, Aineq, bineq)
    assert sol.status == "converged"
    kkt_certificate(sol, H, g, Aineq, bineq)


def test_tiny_positive_curvature_is_not_unbounded():
    H = np.diag([4.0, 4.0e-10])
    g = np.array([-1.0, -2.0e-10])
    sol = qp_solve(H, g)
    assert sol.status == "converged"
    assert np.allclose(sol.primal, [0.25, 0.5], atol=1e-6)


def test_badly_scaled_curvature_terminates():
    # curvature spread 1e8 across rotated coordinates: KKT steps carry a
    # rounding noise floor, and the solver must recognize it as convergence
    # instead of stepping forever
    rng = np.random.default_rng(9)
    R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    H = R.T @ np.diag([1.0e4, 1.0, 1.0e-4]) @ R
    x_t = np.array([2.0, -3.0, 1.5])  # unconstrained optimum outside the box
    g = -H @ x_t
    Aineq = np.vstack([np.eye(3), -np.eye(3)])
    bineq = np.full(6, 1.0)
    sol = qp_solve(H, g, Aineq, bineq)
    assert sol.status == "converged"
    x = sol.primal
    assert np.max(np.abs(x)) <= 1.0 + 1e-8
    grad = H @ x + g + Aineq.T @ sol.dual_ineq
    assert np.max(np.abs(grad)) <= 1e-6 * (1.0 + np.max(np.abs(H @ x)))
    assert np.min(sol.dual_ineq) >= -1e-8


def test_random_qps_match_scipy():
    rng = np.random.default_rng(1)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        M = rng.normal(size=(n + 2, n))
        H = M.T @ M + 0.5 * np.eye(n)
        g = rng.normal(size=n)
        Aineq = np.vstack([np.eye(n), -np.eye(n)])
        bineq = rng.uniform(0.5, 2.0, size=2 * n)

        sol = qp_solve(H, g, Aineq, bineq)
        assert sol.status == "converged", f"trial {trial}"
        kkt_certificate(sol, H, g, Aineq, bineq)

        cons = [
            {"type": "ineq", "fun": lambda x, A=Aineq, b=bineq: b - A @ x,
             "jac": lambda x, A=Aineq: -A},
        ]
        ref = scipy.optimize.minimize(
            lambda x: 0.5 * x @ H @ x + g @ x,
            np.zeros(n),
            jac=lambda x: H @ x + g,
            constraints=cons,
            method="SLSQP",
            options={"ftol": 1e-12, "maxiter": 200},
        )
        assert ref.success, f"trial {trial}: oracle failed"
        assert np.max(np.abs(sol.primal - ref.x)) <= 1e-5, f"trial {trial}"


# ---------------------------------------------------------------------------
# property tests against brute-force active-set enumeration

# half-integer entries make ties, dependent rows and degenerate vertices common
GRID = st.integers(-4, 4).map(lambda v: v / 2.0)


@st.composite
def convex_qps(draw):
    """Strictly convex QP min 1/2 x'Hx + g'x s.t. A x <= b, feasible at x_v.

    H = D H0 D with a diagonal rescaling D; base rows with zero slack all
    pass through x_v (a degenerate vertex once more than n of them do); the
    remaining rows duplicate a base row, rescale one, or are all-zero with a
    nonnegative right-hand side.
    """
    n = draw(st.integers(1, 3))
    M = draw(arrays(float, (n, n), elements=GRID))
    d = draw(arrays(float, n, elements=st.sampled_from([0.1, 1.0, 10.0])))
    H = d[:, None] * (M.T @ M + 0.5 * np.eye(n)) * d[None, :]
    x_v = draw(arrays(float, n, elements=GRID))
    g = -H @ (x_v + draw(arrays(float, n, elements=GRID)))
    n_base = draw(st.integers(0, 4))
    A = draw(arrays(float, (n_base, n), elements=GRID))
    b = A @ x_v + draw(arrays(float, n_base, elements=st.sampled_from([0.0, 0.0, 0.5, 2.0])))
    rows, rhs = list(A), list(b)
    for _ in range(draw(st.integers(0, 6 - n_base))):
        kind = draw(st.sampled_from(["duplicate", "rescaled", "zero"]))
        if kind == "zero" or n_base == 0:
            rows.append(np.zeros(n))
            rhs.append(draw(st.sampled_from([0.0, 1.0])))
        else:
            i = draw(st.integers(0, n_base - 1))
            c = 1.0 if kind == "duplicate" else draw(st.sampled_from([0.5, 4.0]))
            rows.append(c * A[i])
            rhs.append(c * b[i])
    order = draw(st.permutations(range(len(rows))))
    A = np.array([rows[i] for i in order]).reshape(len(rows), n)
    b = np.array([rhs[i] for i in order])
    return H, g, A, b


def brute_force_optimum(H, g, A, b, tol=1e-9):
    """Least objective over the equality QPs of every subset of rows that is
    consistent and whose minimizer is feasible for all rows."""
    n = g.size
    best = np.inf
    for k in range(b.size + 1):
        for S in itertools.combinations(range(b.size), k):
            A_S, b_S = A[list(S)], b[list(S)]
            if k:
                x_p = np.linalg.lstsq(A_S, b_S, rcond=None)[0]
                if np.max(np.abs(A_S @ x_p - b_S)) > tol * (1.0 + np.max(np.abs(b_S))):
                    continue
                _, sv, Vt = np.linalg.svd(A_S)
                rank = int(np.sum(sv > 1e-12 * max(1.0, sv[0])))
                Z = Vt[rank:].T
            else:
                x_p, Z = np.zeros(n), np.eye(n)
            x = x_p
            if Z.shape[1]:
                x = x_p - Z @ np.linalg.solve(Z.T @ H @ Z, Z.T @ (H @ x_p + g))
            if b.size and np.max(A @ x - b) > tol * (1.0 + np.max(np.abs(b))):
                continue
            best = min(best, 0.5 * x @ H @ x + g @ x)
    return best


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(convex_qps())
def test_qp_matches_brute_force_active_sets(qp):
    H, g, A, b = qp
    rows = b.size
    sol = qp_solve(H, g, A if rows else None, b if rows else None)
    assert sol.status == "converged"
    kkt_certificate(sol, H, g, Aineq=A if rows else None, bineq=b if rows else None)
    x = sol.primal
    active = sol.active_set
    # the reported active set is exact: its rows are tight, and every row off
    # it carries a zero multiplier
    if active.size:
        assert np.max(np.abs(A[active] @ x - b[active])) <= 1e-8 * (1.0 + np.max(np.abs(b)))
    assert np.all(sol.dual_ineq >= 0.0)
    off = np.setdiff1d(np.arange(rows), active)
    assert np.all(sol.dual_ineq[off] == 0.0)
    q_best = brute_force_optimum(H, g, A, b)
    q_sol = 0.5 * x @ H @ x + g @ x
    assert q_sol == pytest.approx(q_best, rel=1e-8, abs=1e-9)
