"""SQP solver: LQ exactness against the Riccati oracle, constraints, errors."""

import dataclasses
import re
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from qmpc import dp, sensitivity, solver
from qmpc.config import _section
from qmpc.envs import build_cstr_ocp
from qmpc.errors import ConfigError, DivergenceError, InfeasibleError, NonConvergenceError
from qmpc.ocp import STAGE_CALLBACKS, _rel_dev, build_lq_ocp
from qmpc.sensitivity import grad_q_wrt_params, jac_policy_wrt_params
from qmpc.solver import (
    MPCController,
    SolverSettings,
    mpc_policy,
    mpc_qvalue,
    solve_ocp,
)
from tests.conftest import make_scalar_ocp


# ---------------------------------------------------------------------------
# LQ exactness


def test_free_solve_value_is_riccati_value(lq2, lq2_ocp):
    A, B, Qc, Rc, gamma, P, K = lq2
    spec, phi = lq2_ocp
    rng = np.random.default_rng(0)
    for _ in range(5):
        s = rng.normal(size=2)
        kkt, report = solve_ocp(spec, phi, s)
        assert report.status == "converged"
        assert kkt.objective == pytest.approx(float(s @ P @ s), abs=1e-8)


def test_policy_is_riccati_gain(lq2, lq2_ocp):
    A, B, Qc, Rc, gamma, P, K = lq2
    spec, phi = lq2_ocp
    rng = np.random.default_rng(1)
    for _ in range(5):
        s = rng.normal(size=2)
        a, _ = mpc_policy(spec, phi, s)
        assert np.max(np.abs(a + K @ s)) <= 1e-8


def test_qvalue_matches_oracle_any_horizon(lq2):
    A, B, Qc, Rc, gamma, P, K = lq2
    rng = np.random.default_rng(2)
    for H in (1, 3, 7):
        spec, phi = build_lq_ocp(A, B, Qc, Rc, P, H, gamma)
        for _ in range(4):
            s = rng.normal(size=2)
            a = rng.normal(size=1)
            q, _ = mpc_qvalue(spec, phi, s, a)
            assert q == pytest.approx(
                dp.lq_optimal_q(A, B, Qc, Rc, P, gamma, s, a), abs=1e-8
            )


def test_unconstrained_lq_converges_in_one_iteration(lq2_ocp):
    spec, phi = lq2_ocp
    _, report = solve_ocp(spec, phi, np.array([0.6, -0.4]))
    assert report.status == "converged"
    assert report.iterations == 1


def test_pinned_at_policy_equals_free_optimum(lq2_ocp):
    spec, phi = lq2_ocp
    s = np.array([1.1, -0.3])
    a, kkt_free = mpc_policy(spec, phi, s)
    q, _ = mpc_qvalue(spec, phi, s, a)
    assert q == pytest.approx(kkt_free.objective, abs=1e-8)


def test_pinned_value_dominates_free_optimum(lq2_ocp):
    spec, phi = lq2_ocp
    s = np.array([-0.9, 0.5])
    free_val = solve_ocp(spec, phi, s)[0].objective
    rng = np.random.default_rng(3)
    for _ in range(8):
        q, _ = mpc_qvalue(spec, phi, s, rng.normal(size=1))
        assert q >= free_val - 1e-9


def test_scalar_input_bound_clamps():
    # unconstrained optimum -k s = 2 sits outside |u| <= 1
    spec, phi = make_scalar_ocp(u_lo=-1.0, u_hi=1.0)
    A, B, Qc, Rc, _ = (
        phi.segment("A"), phi.segment("B"), phi.segment("Q"),
        phi.segment("R"), phi.segment("P"),
    )
    P, K = dp.riccati_solve(
        A.reshape(1, 1), B.reshape(1, 1), Qc.reshape(1, 1), Rc.reshape(1, 1), spec.gamma
    )
    s = np.array([-2.0 / K[0, 0]])
    a, kkt = mpc_policy(spec, phi, s)
    assert a[0] == pytest.approx(1.0, abs=1e-8)
    # first-stage upper bound row is active with a strictly positive multiplier
    assert 0 in kkt.active_set.tolist()
    assert kkt.mu[0] > 1e-8


def test_zero_input_gain_gives_zero_action():
    spec, phi = make_scalar_ocp(b=0.0, P=np.array([[1.0]]), u_lo=-1.0, u_hi=1.0)
    a, _ = mpc_policy(spec, phi, np.array([0.8]))
    assert abs(a[0]) <= 1e-8


def test_warm_start_identical_and_no_slower(lq2_ocp):
    spec, phi = lq2_ocp
    s = np.array([0.3, 0.9])
    a_cold, kkt = mpc_policy(spec, phi, s)
    a_warm, _ = mpc_policy(spec, phi, s, warm_start=kkt)
    assert np.max(np.abs(a_warm - a_cold)) <= 1e-10
    _, rep_cold = solve_ocp(spec, phi, s)
    _, rep_warm = solve_ocp(spec, phi, s, warm_start=kkt)
    assert rep_warm.iterations <= rep_cold.iterations


def test_closed_loop_tracks_riccati_sequence(lq2, lq2_ocp):
    A, B, Qc, Rc, gamma, P, K = lq2
    spec, phi = lq2_ocp
    ctrl = MPCController(spec, phi)
    x_mpc = np.array([1.0, -1.0])
    x_ric = x_mpc.copy()
    for _ in range(50):
        a = ctrl(x_mpc)
        x_mpc = A @ x_mpc + B @ a
        x_ric = (A - B @ K) @ x_ric
        assert np.max(np.abs(x_mpc - x_ric)) <= 1e-6


def test_constraints_hold_along_closed_loop():
    spec, phi = make_scalar_ocp(u_lo=-0.2, u_hi=0.2)
    ctrl = MPCController(spec, phi)
    x = np.array([3.0])
    for _ in range(20):
        a = ctrl(x)
        assert abs(a[0]) <= 0.2 + 1e-8
        x = phi.segment("A").reshape(1, 1) @ x + phi.segment("B").reshape(1, 1) @ a


def test_pinned_warm_start_from_another_action(lq2_ocp):
    # a pinned u_0 is data, like x_0: a warm start from the point of another
    # action takes the new pin as it is, and only states and free inputs move
    spec, phi = lq2_ocp
    s = np.array([0.3, 0.9])
    a = np.array([0.37])
    _, kkt_other = mpc_qvalue(spec, phi, s, np.array([-0.8]))
    q_warm, kkt = mpc_qvalue(spec, phi, s, a, warm_start=kkt_other)
    q_cold, _ = mpc_qvalue(spec, phi, s, a)
    assert kkt.z[spec.H * spec.n :][: spec.m].tobytes() == a.tobytes()
    assert q_warm == pytest.approx(q_cold, abs=1e-10)
    # the dynamics rows alone carry multipliers, pinned or free
    _, kkt_free = mpc_policy(spec, phi, s)
    assert kkt.lam.size == kkt_free.lam.size == spec.H * spec.n


def test_kkt_certificate_fields(lq2_ocp):
    spec, phi = lq2_ocp
    kkt, report = solve_ocp(spec, phi, np.array([0.5, 0.5]))
    assert report.status == "converged"
    assert kkt.kkt_residual <= SolverSettings().kkt_tol
    assert kkt.mu.size == 0 and kkt.active_set.size == 0  # unconstrained spec
    # multiple-shooting layout: H states then H inputs
    assert kkt.z.size == spec.H * (spec.n + spec.m)


def test_complementarity_and_dual_signs():
    spec, phi = make_scalar_ocp(u_lo=-1.0, u_hi=1.0)
    kkt, report = solve_ocp(spec, phi, np.array([4.0]))
    assert report.status == "converged"
    assert np.min(kkt.mu) >= -1e-9
    # recompute h rows stagewise and check complementary slackness
    st_states = [np.array([4.0])]
    for k in range(spec.H):
        u = kkt.z[spec.H * spec.n + k * spec.m: spec.H * spec.n + (k + 1) * spec.m]
        h = np.concatenate([u - 1.0, -u - 1.0])
        mu_k = kkt.mu[2 * k: 2 * k + 2]
        assert np.max(np.abs(mu_k * h)) <= 1e-7
        st_states.append(spec.dynamics_jac(st_states[-1], u, phi)[0])


# ---------------------------------------------------------------------------
# error channels


def test_infeasible_pin_raises():
    spec, phi = make_scalar_ocp(u_lo=-1.0, u_hi=1.0)
    with pytest.raises(InfeasibleError):
        mpc_qvalue(spec, phi, np.array([0.0]), np.array([2.0]))


def test_sqp_iteration_cap_raises(cstr_cfg):
    spec, phi = build_cstr_ocp(cstr_cfg, H=3, gamma=0.98,
                               terminal_weights=np.zeros(15))
    x0 = np.array([0.8, 0.4, 130.0, 130.0])
    tight = SolverSettings(kkt_tol=1e-10, max_sqp_iters=1)
    kkt, report = solve_ocp(spec, phi, x0, settings=tight)
    assert report.status == "max_iter" and report.iterations == 1
    assert kkt is not None  # best iterate found is still returned
    with pytest.raises(NonConvergenceError, match=r"iteration cap \(max_sqp_iters=1\)") as exc:
        mpc_policy(spec, phi, x0, settings=tight)
    assert "stalled" not in str(exc.value)
    assert exc.value.residual == report.kkt_residual


def test_qp_pivot_cap_is_told_apart_from_the_sqp_cap():
    spec, phi = make_scalar_ocp(u_lo=-1.0, u_hi=1.0)
    no_pivots = SolverSettings(max_qp_pivots=0)
    _, report = solve_ocp(spec, phi, np.array([4.0]), settings=no_pivots)
    assert report.status == "max_iter" and report.iterations == 0
    with pytest.raises(NonConvergenceError, match=r"QP pivot cap \(max_qp_pivots=0\)"):
        mpc_policy(spec, phi, np.array([4.0]), settings=no_pivots)


def test_regularized_hessian_is_the_matrix_the_qp_factors():
    # Z'HL Z rounds asymmetrically; the QP symmetrizes its Hessian before its
    # Cholesky test, so the regularization must certify that same matrix
    rng = np.random.default_rng(4)
    M = rng.normal(size=(7, 7))
    HL = M + M.T  # indefinite: needs sigma > 0
    Z = rng.normal(size=(7, 4))
    assert not np.array_equal(Z.T @ HL @ Z, (Z.T @ HL @ Z).T)
    _, Hz, sigma = solver._regularize(HL, Z)
    assert sigma > 0.0
    assert np.array_equal(0.5 * (Hz + Hz.T), Hz)


def test_line_search_stall_has_its_own_status(lq2_ocp):
    spec, phi = lq2_ocp
    s = np.array([0.6, -0.4])
    no_step = SolverSettings(alpha_min=2.0)  # even the full step is below alpha_min
    kkt, report = solve_ocp(spec, phi, s, settings=no_step)
    assert report.status == "stalled" and report.iterations == 0
    assert kkt is not None
    with pytest.raises(NonConvergenceError, match="stalled") as exc:
        mpc_policy(spec, phi, s, settings=no_step)
    assert "iteration cap" not in str(exc.value)


def test_non_finite_warm_start_reports_divergence(lq2_ocp):
    spec, phi = lq2_ocp
    s = np.array([0.2, 0.2])
    _, kkt = mpc_policy(spec, phi, s)
    broken = dataclasses.replace(kkt, z=np.full_like(kkt.z, np.inf))
    _, report = solve_ocp(spec, phi, s, warm_start=broken)
    assert report.status == "diverged"
    with pytest.raises(DivergenceError):
        mpc_policy(spec, phi, s, warm_start=broken)


@pytest.mark.parametrize("block", [1, 2])
def test_non_finite_linearization_reports_divergence(block, lq2_ocp):
    # a NaN in the state (1) or input (2) Jacobian blocks ends the solve as a
    # divergence, a typed error, instead of escaping from a triangular solve
    spec, phi = lq2_ocp
    s = np.array([0.2, 0.2])

    def nan_jac(x, u, pv):
        out = list(spec.dynamics_jac(x, u, pv))
        out[block] = out[block] * np.nan
        return tuple(out)

    broken = dataclasses.replace(spec, dynamics_jac=nan_jac)
    kkt, report = solve_ocp(broken, phi, s)
    assert kkt is None and report.status == "diverged" and report.iterations == 0
    with pytest.raises(DivergenceError):
        mpc_policy(broken, phi, s)


def test_input_shape_validation(lq2_ocp):
    spec, phi = lq2_ocp
    with pytest.raises(ValueError):
        solve_ocp(spec, phi, np.zeros(3))
    with pytest.raises(ValueError):
        solve_ocp(spec, phi, np.zeros(2), pinned_a=np.zeros(2))


# ---------------------------------------------------------------------------
# callback traffic


def _logged(spec):
    """Spec whose stage callbacks append (name, x shape, u shape) to a log."""
    log = []

    def logged(name, fn):
        def call(x, u, *args):
            log.append((name, np.shape(x), np.shape(u)))
            return fn(x, u, *args)

        return call

    callbacks = {
        name: logged(name, getattr(spec, name))
        for name in STAGE_CALLBACKS
        if getattr(spec, name) is not None
    }
    return dataclasses.replace(spec, **callbacks), log


def _letters(log):
    """The dynamics_jac and qp_solve calls of a log: R for one stage of a
    cold-start rollout, J for a batch of stages, Q for a QP."""
    def letter(name, x):
        if name == "dynamics_jac":
            return "R" if len(x) == 1 else "J"
        return "Q" if name == "qp_solve" else ""

    return "".join(letter(name, x) for name, x, _ in log)


@pytest.mark.parametrize("case", ["lq", "cstr"])
def test_one_batched_dynamics_jacobian_per_sqp_iterate(case, lq2_ocp, cstr_cfg, monkeypatch):
    if case == "lq":
        spec, phi = lq2_ocp
        s, settings = np.array([0.6, -0.4]), None
    else:
        spec, phi = build_cstr_ocp(cstr_cfg, H=5, gamma=0.98,
                                   terminal_weights=np.zeros(15))
        s, settings = np.array([0.8, 0.4, 130.0, 130.0]), SolverSettings(kkt_tol=1e-6)
    logged, log = _logged(spec)
    qp_solve = solver.qp_solve

    def logged_qp(*args, **kwargs):
        log.append(("qp_solve", None, None))
        return qp_solve(*args, **kwargs)

    monkeypatch.setattr(solver, "qp_solve", logged_qp)
    _, report = solve_ocp(logged, phi, s, settings=settings)
    assert report.status == "converged" and report.iterations >= 1
    trace = _letters(log)
    # a cold-start rollout, one stage at a time, and the first iterate's
    # Jacobian call; then per SQP step its QP and one Jacobian call per
    # line-search trial.  The accepted trial's call is the next iterate's
    # linearization, whatever its step length.
    assert re.fullmatch(r"R{%d}J(QJ+)*" % spec.H, trace), trace
    rejected = len(re.findall(r"J(?=J)", trace))
    assert trace.count("Q") == report.iterations
    assert trace.count("J") == report.iterations + 1 + rejected
    if case == "lq":  # one exact Newton step, taken whole
        assert trace == "R" * spec.H + "JQJ"
    else:
        assert rejected >= 1
    shapes = {(x, u) for name, x, u in log if name == "dynamics_jac"}
    assert shapes == {((spec.n,), (spec.m,)), ((spec.H, spec.n), (spec.H, spec.m))}


def test_backtracked_trial_carries_its_linearization_to_the_next_iterate(cstr_cfg):
    # the reactor's first SQP step from a cold start is too long: its unit
    # step and the half step are rejected, the quarter step is accepted, and
    # each of the three trials is evaluated in full; the accepted one is
    # iterate 1's evaluation, so its QP step follows with no call between
    spec, phi = build_cstr_ocp(cstr_cfg, H=5, gamma=0.98, terminal_weights=np.zeros(15))
    logged, log = _logged(spec)
    _, report = solve_ocp(logged, phi, np.array([0.8, 0.4, 130.0, 130.0]),
                          settings=SolverSettings(kkt_tol=1e-6))
    assert report.status == "converged"
    names = [name for name, _, _ in log[spec.H:]]
    full = ["stage_cost", "stage_grad", "dynamics_jac", "ineq_constraints", "ineq_jac"]
    step = ["stage_hess"]  # the reactor's curvature is Gauss-Newton: no dynamics_hess_vp
    assert spec.dynamics_hess_vp is None
    # iterate 0 and its QP step; the trials at alpha = 1, 1/2 and 1/4; then
    # iterate 1's QP step
    assert names[:22] == full + step + full * 3 + step


def _traffic_case(case, H, lq2, cstr_cfg):
    if case == "lq":
        A, B, Qc, Rc, gamma, P, _ = lq2
        spec, phi = build_lq_ocp(A, B, Qc, Rc, P, H, gamma, u_lo=-1.0, u_hi=1.0)
        return spec, phi, np.array([0.6, -0.4]), None
    spec, phi = build_cstr_ocp(cstr_cfg, H=H, gamma=0.98, terminal_weights=np.zeros(15))
    return spec, phi, np.array([0.8, 0.4, 130.0, 130.0]), SolverSettings(kkt_tol=1e-6)


@pytest.mark.parametrize("case", ["lq", "cstr"])
def test_stage_callback_traffic_does_not_grow_with_horizon(case, lq2, cstr_cfg):
    # every stage callback takes the whole horizon in one call, so an SQP
    # iterate and a sensitivity evaluation make as many calls at H=50 as at
    # H=5; only the cold-start rollout steps through the stages one by one
    traffic = []
    for H in (5, 50):
        spec, phi, s, settings = _traffic_case(case, H, lq2, cstr_cfg)
        logged, log = _logged(spec)
        kkt, report = solve_ocp(logged, phi, s, settings=settings)
        assert report.status == "converged" and report.iterations >= 1
        one_stage = ((spec.n,), (spec.m,))
        assert log[:H] == [("dynamics_jac", *one_stage)] * H
        batch = ((H, spec.n), (H, spec.m))
        assert all((x, u) == batch for _, x, u in log[H:])
        # the first iterate and each line-search trial are evaluated in full,
        # and each QP step adds the Hessian
        it = report.iterations
        evaluated = Counter(name for name, _, _ in log[H:])["dynamics_jac"]
        assert evaluated >= it + 1
        want = {
            "stage_cost": evaluated, "stage_grad": evaluated, "stage_hess": it,
            "dynamics_jac": evaluated, "dynamics_hess_vp": it,
            "ineq_constraints": evaluated, "ineq_jac": evaluated,
        }
        want = Counter({name: k for name, k in want.items() if getattr(spec, name) is not None})
        assert Counter(name for name, _, _ in log[H:]) == want  # a zero count is no call

        del log[:]
        jac_policy_wrt_params(logged, phi, kkt)
        # it reuses the solve's last linearization, the blocks kkt carries
        assert not {"dynamics_jac", "ineq_constraints", "ineq_jac"} & {
            name for name, _, _ in log}
        # the policy Jacobian's m adjoint directions come to each VJP as a
        # leading batch axis, once per VJP
        vjps = [name for name in ("stage_grad_phi_vp", "dynamics_jac_phi_vp", "dynamics_phi_vp")
                if getattr(spec, name) is not None]
        assert Counter(name for name, _, _ in log if name in vjps) == dict.fromkeys(vjps, 1)
        adjoint = ((spec.m, H, spec.n), (spec.m, H, spec.m))
        for name, x, u in log:
            assert (x, u) == (adjoint if name in vjps else batch), name
        n_policy = len(log)
        grad_q_wrt_params(logged, phi, kkt)
        # both read the inequality values the solve computed at the KKT point
        assert "ineq_constraints" not in {name for name, _, _ in log}
        assert all((x, u) == batch for _, x, u in log[n_policy:])
        traffic.append(Counter(name for name, _, _ in log))
    assert traffic[0] == traffic[1]


def test_value_gradient_calls_only_cost_and_dynamics_phi_gradients(lq2_ocp):
    # the envelope gradient is dL/dphi at the KKT point: it needs neither the
    # Jacobian products of the policy Jacobian nor a dynamics evaluation
    spec, phi = lq2_ocp
    assert spec.H == 5
    _, kkt = mpc_qvalue(spec, phi, np.array([0.9, -0.4]), np.array([0.3]))
    logged, log = _logged(spec)
    grad_q_wrt_params(logged, phi, kkt)
    assert Counter(name for name, _, _ in log) == {"stage_phi": 1, "dynamics_phi_vp": 1}


def _policy_case(case, lq2, cstr_cfg):
    """(spec, phi, s, settings): the bounded H=5 LQ spec at a state that
    saturates its input bound, or the H=5 reactor spec."""
    if case == "lq":
        A, B, Qc, Rc, gamma, P, K = lq2
        spec, phi = build_lq_ocp(A, B, Qc, Rc, P, H=5, gamma=gamma, u_lo=-1.0, u_hi=1.0)
        # the unconstrained action -K s = -3 saturates the input bound
        return spec, phi, 3.0 * K[0] / (K[0] @ K[0]), None
    spec, phi = build_cstr_ocp(cstr_cfg, H=5, gamma=0.98, terminal_weights=np.zeros(15))
    return spec, phi, np.array([0.8, 0.4, 130.0, 130.0]), SolverSettings(kkt_tol=1e-6)


@pytest.mark.parametrize("case", ["lq", "cstr"])
def test_policy_jacobian_is_one_adjoint_solve(case, lq2, cstr_cfg, monkeypatch):
    # the KKT matrix is solved once, for the m unit right-hand sides of the
    # u_0 rows, never for one column per parameter
    spec, phi, s, settings = _policy_case(case, lq2, cstr_cfg)
    _, kkt = mpc_policy(spec, phi, s, settings=settings)
    if case == "lq":
        assert kkt.active_set.size
    rhs_shapes = []
    solve = np.linalg.solve

    def logged_solve(a, b):
        rhs_shapes.append(np.shape(b))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", logged_solve)
    jac = jac_policy_wrt_params(spec, phi, kkt).jac_action
    assert jac.shape == (spec.m, phi.size) and spec.m < phi.size
    assert len(rhs_shapes) == 1 and rhs_shapes[0][1:] == (spec.m,)


@pytest.mark.parametrize("case", ["lq", "cstr"])
def test_condensed_policy_jacobian_matches_full_space_solve(case, lq2, cstr_cfg):
    # reference: the adjoint solve of the full-space KKT matrix
    # K = [[H_L, C', C_A'], [C, 0, 0], [C_A, 0, 0]] for the u_0 columns of E,
    # built here from a fresh linearization at the KKT point
    spec, phi, s, settings = _policy_case(case, lq2, cstr_cfg)
    if case == "lq":
        # along the null direction of the gain K, u_0 stays inside the box
        # while the plan rides the lower bound at stages 2 and 3
        k = lq2[6][0]
        s = 50.0 * np.array([-k[1], k[0]]) / np.linalg.norm(k)
    a, kkt = mpc_policy(spec, phi, s, settings=settings)
    if case == "lq":
        np.testing.assert_array_equal(kkt.active_set, [5, 7])
        assert abs(a[0]) < 0.1
    st = solver._Stacker(spec, False)
    z, lam = kkt.z, kkt.lam
    C, Hj = solver._jacobians(st, solver._evaluate(st, phi, z, s)[4])
    G = np.vstack([C, Hj[kkt.active_set]])
    K = np.block([[solver._lagrangian_hessian(st, phi, z, s, lam), G.T],
                  [G, np.zeros((len(G), len(G)))]])
    E = np.zeros((len(K), spec.m))
    E[st.u_idx[0], np.arange(spec.m)] = 1.0
    Y = np.linalg.solve(K, E)
    direction = (Y[: st.nz].T, Y[st.nz : st.nz + st.n_dyn].T)
    want = -sensitivity._lagrangian_phi_grad(st, phi, z, s, lam, direction)
    res = jac_policy_wrt_params(spec, phi, kkt)
    assert res.regularity == "strict"
    assert _rel_dev(res.jac_action, want) <= 1e-12


@pytest.mark.parametrize("case", ["lq", "cstr"])
def test_sqp_runs_no_rank_revealing_factorization(case, lq2, cstr_cfg, monkeypatch):
    # the dynamics rows are full rank by construction: condensing them
    # needs triangular solves only, never an SVD, QR, rank or lstsq
    if case == "lq":
        A, B, Qc, Rc, gamma, P, K = lq2
        spec, phi = build_lq_ocp(A, B, Qc, Rc, P, H=50, gamma=gamma, u_lo=-1.0, u_hi=1.0)
        # the unconstrained action -K s = -3 saturates the input bound
        s, a, settings = 3.0 * K[0] / (K[0] @ K[0]), np.array([0.5]), None
    else:
        spec, phi = build_cstr_ocp(cstr_cfg, H=5, gamma=0.98,
                                   terminal_weights=np.zeros(15))
        s, a = np.array([0.8, 0.4, 130.0, 130.0]), np.array([18.0, -4500.0])
        settings = SolverSettings(kkt_tol=1e-6)

    def forbidden(*args, **kwargs):
        raise AssertionError("rank-revealing factorization inside solve_ocp")

    for owner, name in ((np.linalg, "svd"), (np.linalg, "matrix_rank"),
                        (np.linalg, "lstsq"), (scipy.linalg, "qr")):
        monkeypatch.setattr(owner, name, forbidden)
    kkt, report = solve_ocp(spec, phi, s, settings=settings)
    assert report.status == "converged"
    if case == "lq":
        assert kkt.active_set.size and kkt.z[spec.H * spec.n] == pytest.approx(-1.0)
    _, report = solve_ocp(spec, phi, s, a, settings=settings)
    assert report.status == "converged"


# ---------------------------------------------------------------------------
# settings: a solver mapping becomes SolverSettings through the config reader


def test_settings_from_dict_roundtrip():
    st = _section(SolverSettings, {"kkt_tol": 1e-6, "max_sqp_iters": 10}, "solver")
    assert st.kkt_tol == 1e-6
    assert st.max_sqp_iters == 10
    assert st.max_qp_pivots == SolverSettings().max_qp_pivots


def test_settings_from_dict_rejects_unknown():
    # the last three are module constants of the solver, not settings
    for key in ("kkt_tolerance", "sigma0", "armijo_c1", "rho_factor"):
        with pytest.raises(ConfigError, match="solver: unknown keys"):
            _section(SolverSettings, {key: 1e-6}, "solver")
