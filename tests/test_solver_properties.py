"""Property tests of solve_ocp on random box-bounded LQ problems, against a
condensed QP built and solved here by enumerating the bound pattern."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmpc.ocp import build_lq_ocp
from qmpc.solver import solve_ocp

# quarter-integer entries in [-1, 1]: ties and zero blocks are common, and
# states stay small over the horizon
GRID = st.integers(-4, 4).map(lambda v: v / 4.0)


def condensed(A, B, Qc, Rc, P, H, gamma, discount, s):
    """The cost as 1/2 U'G U + g'U + const over the inputs U = (u_0..u_{H-1})
    of a one-input LQ problem, and the states x_k = E_k s + S_k U."""
    n = A.shape[0]
    w = gamma ** np.arange(H + 1) if discount else np.ones(H + 1)
    E, S = [np.eye(n)], [np.zeros((n, H))]
    for k in range(H):
        E.append(A @ E[k])
        S.append(A @ S[k])
        S[k + 1][:, k] += B[:, 0]
    G = 2.0 * np.diag(w[:H] * Rc[0, 0])
    g = np.zeros(H)
    for k in range(1, H + 1):
        W = w[k] * (P if k == H else Qc)
        G += 2.0 * S[k].T @ W @ S[k]
        g += 2.0 * S[k].T @ W @ E[k] @ s
    return G, g, E, S, w


def box_qp(G, g, lo, hi):
    """Minimizer of 1/2 U'G U + g'U over lo <= U <= hi, G positive definite:
    the feasible one of the 3^H patterns of free, lower and upper entries
    whose free part is stationary and whose bound parts have the right sign."""
    H = g.size
    for pattern in itertools.product((0, -1, 1), repeat=H):
        pattern = np.array(pattern)
        U = np.where(pattern == -1, lo, hi)
        free = pattern == 0
        if free.any():
            rhs = -(g[free] + G[np.ix_(free, ~free)] @ U[~free])
            U[free] = np.linalg.solve(G[np.ix_(free, free)], rhs)
        if np.any(U < lo - 1e-12) or np.any(U > hi + 1e-12):
            continue
        grad = G @ U + g
        if np.all(grad[pattern == -1] >= -1e-9) and np.all(grad[pattern == 1] <= 1e-9):
            return U
    raise AssertionError("no pattern satisfies the KKT conditions")


@st.composite
def boxed_lq(draw):
    """A two-state, one-input LQ problem with H <= 4 and an input box; one
    bound sits at the unconstrained u_0 when ``at_u0`` is drawn."""
    H = draw(st.integers(1, 4))
    A = draw(arrays(float, (2, 2), elements=GRID))
    B = draw(arrays(float, (2, 1), elements=GRID))
    M = draw(arrays(float, (2, 2), elements=GRID))
    Qc = M.T @ M + 0.1 * np.eye(2)
    N = draw(arrays(float, (2, 2), elements=GRID))
    P = N.T @ N
    Rc = np.array([[draw(st.sampled_from([0.1, 1.0, 10.0]))]])
    gamma = draw(st.sampled_from([0.5, 0.9, 0.99]))
    discount = draw(st.booleans())
    s = 4.0 * draw(arrays(float, 2, elements=GRID))
    G, g, *_ = condensed(A, B, Qc, Rc, P, H, gamma, discount, s)
    u0 = np.linalg.solve(G, -g)[0]
    width = draw(st.sampled_from([0.25, 1.0, 4.0]))
    bound = draw(st.sampled_from(["at_u0_above", "at_u0_below", "around_zero"]))
    if bound == "at_u0_above":
        lo, hi = u0 - width, u0
    elif bound == "at_u0_below":
        lo, hi = u0, u0 + width
    else:
        lo, hi = -width, width
    return A, B, Qc, Rc, P, H, gamma, discount, s, lo, hi


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(boxed_lq())
def test_solve_ocp_matches_condensed_box_qp(problem):
    A, B, Qc, Rc, P, H, gamma, discount, s, lo, hi = problem
    spec, phi = build_lq_ocp(A, B, Qc, Rc, P, H, gamma, u_lo=lo, u_hi=hi,
                             discount_in_horizon=discount)
    kkt, report = solve_ocp(spec, phi, s)
    assert report.status == "converged"

    G, g, E, S, w = condensed(A, B, Qc, Rc, P, H, gamma, discount, s)
    U = box_qp(G, g, np.full(H, lo), np.full(H, hi))
    scale = 1.0 + np.max(np.abs(U))
    plan = kkt.z[H * 2:]
    np.testing.assert_allclose(plan, U, rtol=0.0, atol=1e-7 * scale)
    states = np.concatenate([E[k] @ s + S[k] @ U for k in range(1, H + 1)])
    np.testing.assert_allclose(kkt.z[: H * 2], states, rtol=0.0,
                               atol=1e-7 * (1.0 + np.max(np.abs(states))))
    cost = sum(w[k] * (x @ (P if k == H else Qc) @ x) for k, x in
               ((k, E[k] @ s + S[k] @ U) for k in range(H + 1)))
    cost += float(w[:H] @ (Rc[0, 0] * U**2))
    assert kkt.objective == pytest.approx(cost, rel=1e-8, abs=1e-10)

    # multipliers of the bound rows: nonnegative, and zero off the active set
    assert np.all(kkt.mu >= 0.0)
    off = np.setdiff1d(np.arange(kkt.mu.size), kkt.active_set)
    assert np.all(kkt.mu[off] == 0.0)
