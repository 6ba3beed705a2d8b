"""End-to-end acceptance checks; each prints a single PASS/FAIL verdict line.

The two case studies run once each through the shipped configuration files
(module-scoped fixtures) and again for the reproducibility comparison, so
this module is the slow part of the suite.
"""

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from qmpc import dp
from qmpc.config import load_config
from qmpc.envs import LQEnv, LQEnvConfig
from qmpc.harness import run_cstr_vfmpc, run_lq_reinforce
from qmpc.mdp import TabularMDP, Transition
from qmpc.ocp import build_lq_ocp
from qmpc.rl import td_loss_and_grad
from qmpc.sensitivity import finite_diff_check, jac_policy_wrt_params
from qmpc.solver import mpc_policy, mpc_qvalue
from tests.conftest import A2, B2, GAMMA, Q2, R2

REPO = Path(__file__).resolve().parents[1]
# Outputs of configs/cstr_vfmpc.yaml and of configs/lq_reinforce.yaml reduced
# to 2 repetitions x 3 iterations (metrics.csv without wall_time), kept to make
# numerical drift visible: reruns agree byte for byte, but a change that
# reorders floating-point operations can shift the numbers and keep every
# verdict.
CSTR_REFERENCE = REPO / "tests" / "reference" / "cstr_vfmpc"
LQ_REFERENCE = REPO / "tests" / "reference" / "lq_reinforce"
REF_RTOL, REF_ATOL = 1e-9, 1e-12


def verdict(name: str, ok: bool, detail: str):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def lq_study(tmp_path_factory):
    cfg = load_config(REPO / "configs" / "lq_reinforce.yaml")
    out = tmp_path_factory.mktemp("lq_study")
    t0 = time.perf_counter()
    summary = run_lq_reinforce(cfg, out)
    return summary, out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cstr_study(tmp_path_factory):
    cfg = load_config(REPO / "configs" / "cstr_vfmpc.yaml")
    out = tmp_path_factory.mktemp("cstr_study")
    t0 = time.perf_counter()
    summary = run_cstr_vfmpc(cfg, out)
    return summary, out, time.perf_counter() - t0


def test_riccati_mpc_equivalence():
    t0 = time.perf_counter()
    P, K = dp.riccati_solve(A2, B2, Q2, R2, GAMMA)
    spec, phi = build_lq_ocp(A2, B2, Q2, R2, P, H=20, gamma=GAMMA)
    rng = np.random.default_rng(2024)
    dq_max = 0.0
    dpi_max = 0.0
    for _ in range(100):
        s = rng.normal(size=2)
        a = rng.normal(size=1)
        q, _ = mpc_qvalue(spec, phi, s, a)
        dq_max = max(dq_max, abs(q - dp.lq_optimal_q(A2, B2, Q2, R2, P, GAMMA, s, a)))
        act, _ = mpc_policy(spec, phi, s)
        dpi_max = max(dpi_max, float(np.linalg.norm(act + K @ s)))
    elapsed = time.perf_counter() - t0
    verdict(
        "Riccati-MPC equivalence (H=20, 100 pairs)",
        dq_max <= 1e-6 and dpi_max <= 1e-6 and elapsed < 10.0,
        f"max |dQ| {dq_max:.2e}, max |dpi| {dpi_max:.2e}, {elapsed:.1f}s",
    )


def test_tabular_bellman_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_resid = 0.0
    worst_contraction = -np.inf
    worst_improvement = np.inf
    for _ in range(50):
        nS = int(rng.integers(2, 21))
        nA = int(rng.integers(2, 6))
        mdp = TabularMDP(
            P=rng.dirichlet(np.ones(nS), size=(nS, nA)),
            R=rng.normal(size=(nS, nA)),
            gamma=float(rng.uniform(0.7, 0.99)),
        )
        Q, _ = dp.value_iteration(mdp, tol=1e-12)
        worst_resid = max(worst_resid, dp.bellman_residual(mdp, Q))
        for _ in range(100):
            Q1 = rng.normal(size=Q.shape)
            Q2 = rng.normal(size=Q.shape)
            lhs = float(np.max(np.abs(dp.bellman_backup(mdp, Q1) - dp.bellman_backup(mdp, Q2))))
            worst_contraction = max(
                worst_contraction, lhs - mdp.gamma * float(np.max(np.abs(Q1 - Q2)))
            )
        pi = dp.greedy_policy_tabular(Q)
        V_pi = dp.policy_evaluation_tabular(mdp, pi)
        worst_improvement = min(worst_improvement, float(np.min(V_pi - Q.max(axis=1))))
    elapsed = time.perf_counter() - t0
    verdict(
        "Bellman oracle suite (50 MDPs)",
        worst_resid <= 1e-8
        and worst_contraction <= 1e-12
        and worst_improvement >= -1e-9
        and elapsed < 30.0,
        f"max residual {worst_resid:.2e}, contraction slack {worst_contraction:.2e}, "
        f"improvement floor {worst_improvement:.2e}, {elapsed:.1f}s",
    )


def test_sensitivities_match_finite_differences():
    t0 = time.perf_counter()
    P, K = dp.riccati_solve(A2, B2, Q2, R2, GAMMA)
    spec, phi = build_lq_ocp(A2, B2, Q2, R2, P, H=5, gamma=GAMMA)
    devs = [
        finite_diff_check(spec, phi, np.array([0.9, -0.4]), np.array([0.3])),
        finite_diff_check(spec, phi, np.array([-0.6, 1.1])),
    ]
    A1, B1, Qc1, Rc1 = (np.array([[0.8]]), np.array([[0.5]]),
                        np.array([[1.0]]), np.array([[0.2]]))
    P1, K1 = dp.riccati_solve(A1, B1, Qc1, Rc1, 0.9)
    spec1, phi1 = build_lq_ocp(A1, B1, Qc1, Rc1, P1, H=3, gamma=0.9)
    devs.append(finite_diff_check(spec1, phi1, np.array([1.3]), np.array([-0.4])))
    devs.append(finite_diff_check(spec1, phi1, np.array([1.3])))

    # active input bound: the clamped first input is insensitive to every
    # cost parameter, identically
    specb, phib = build_lq_ocp(A1, B1, Qc1, Rc1, P1, H=3, gamma=0.9,
                               u_lo=[-1.0], u_hi=[1.0])
    s_clamp = np.array([-2.0 / float(K1[0, 0])])
    a_clamp, kkt = mpc_policy(specb, phib, s_clamp)
    assert abs(a_clamp[0] - 1.0) <= 1e-8
    jac = jac_policy_wrt_params(specb, phib, kkt).jac_action
    cost_cols = np.concatenate(
        [jac[:, slice(*phib.layout[name])].ravel() for name in ("Q", "R", "P")]
    )
    exact_zero = bool(np.all(cost_cols == 0.0))
    devs.append(finite_diff_check(specb, phib, s_clamp))
    elapsed = time.perf_counter() - t0
    verdict(
        "sensitivity vs central differences",
        max(devs) <= 1e-4 and exact_zero and elapsed < 30.0,
        f"max FD deviation {max(devs):.2e}, bound-case cost sensitivity exactly "
        f"zero: {exact_zero}, {elapsed:.1f}s",
    )


def test_td_fixed_point_at_exact_parameterization():
    P, K = dp.riccati_solve(A2, B2, Q2, R2, GAMMA)
    spec, phi = build_lq_ocp(A2, B2, Q2, R2, P, H=5, gamma=GAMMA)
    env = LQEnv(LQEnvConfig(A=A2, B=B2, Qc=Q2, Rc=R2, noise_std=[0.0, 0.0],
                            x0_lo=[-1.0, -1.0], x0_hi=[1.0, 1.0]))
    rng = np.random.default_rng(99)
    batch = []
    s = env.reset(rng)
    for _ in range(64):
        a = rng.normal(scale=0.7, size=1)
        r, s_next = env.step(s, a, rng)
        batch.append(Transition(s=s, a=a, r=r, s_next=s_next))
        s = s_next if np.max(np.abs(s_next)) < 5.0 else env.reset(rng)
    res = td_loss_and_grad(spec, phi, batch, GAMMA)
    verdict(
        "TD fixed point (64-sample batch)",
        res.loss <= 1e-10 and res.skipped == 0,
        f"loss {res.loss:.2e}",
    )


@pytest.mark.slow
def test_policy_gradient_closes_performance_gap(lq_study):
    summary, out, elapsed = lq_study
    closure = summary["gap_closure"]
    curves = (out / "curves.csv").read_text().splitlines()
    has_mismatch_curves = (
        "frob_A_mean" in curves[0] and "frob_B_mean" in curves[0]
        and len(curves) >= 3
    )
    # final model mismatch is an observed outcome, reported but not asserted
    verdict(
        "policy-gradient gap closure (20 repetitions)",
        closure >= 0.8 and has_mismatch_curves and elapsed < 900.0,
        f"closure {closure:.3f}, final ||A_err||_F {summary['frob_A_final_mean']:.3f}, "
        f"final ||B_err||_F {summary['frob_B_final_mean']:.3f}, {elapsed:.0f}s",
    )


def test_reactor_agents_rank_as_expected(cstr_study):
    summary, out, elapsed = cstr_study
    ag = summary["agents"]
    vf, default, greedy = ag["vf_mpc"], ag["default_mpc"], ag["greedy_v"]
    ok = (
        vf["violation_count"] == 0
        and vf["final_cB_error"] < 0.1 * vf["initial_cB_error"]
        and greedy["violation_count"] >= 1
        and default["violation_count"] == 0
        and default["final_cB_error"] > vf["final_cB_error"]
        and elapsed < 600.0
    )
    verdict(
        "reactor case study (three agents)",
        ok,
        f"vf err {vf['final_cB_error']:.4f} (0 violations), default err "
        f"{default['final_cB_error']:.4f} (0 violations), greedy violations "
        f"{greedy['violation_count']}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_reruns_are_byte_identical(lq_study, cstr_study, tmp_path):
    def drop_wall(path: Path) -> list[str]:
        lines = (path / "metrics.csv").read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    _, lq_out, _ = lq_study
    _, cstr_out, _ = cstr_study
    lq_cfg = load_config(REPO / "configs" / "lq_reinforce.yaml")
    cstr_cfg = load_config(REPO / "configs" / "cstr_vfmpc.yaml")
    run_lq_reinforce(lq_cfg, tmp_path / "lq")
    run_cstr_vfmpc(cstr_cfg, tmp_path / "cstr")
    lq_same = drop_wall(tmp_path / "lq") == drop_wall(lq_out)
    cstr_same = drop_wall(tmp_path / "cstr") == drop_wall(cstr_out)
    curves_same = (
        (tmp_path / "lq" / "curves.csv").read_text() == (lq_out / "curves.csv").read_text()
        and (tmp_path / "cstr" / "curves.csv").read_text()
        == (cstr_out / "curves.csv").read_text()
    )
    verdict(
        "rerun reproducibility (metrics.csv modulo wall_time)",
        lq_same and cstr_same and curves_same,
        f"lq identical: {lq_same}, reactor identical: {cstr_same}, "
        f"curves identical: {curves_same}",
    )


def _compare(got, want, where: str, drift: list[float]):
    """Ints, bools and strings must match exactly, floats within the reference
    tolerance; the relative drift of every float is appended to ``drift``."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for k in want:
            _compare(got[k], want[k], f"{where}.{k}", drift)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]", drift)
    elif isinstance(want, float):
        assert isinstance(got, float), where
        drift.append(abs(got - want) / max(abs(want), 1e-300))
        assert abs(got - want) <= REF_ATOL + REF_RTOL * abs(want), f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _cell(text: str):
    if text == "":
        return None
    return int(text) if text.lstrip("-").isdigit() else float(text)


def _csv_cells(text: str, drop_last: bool = False):
    rows = [line.split(",") for line in text.splitlines()]
    rows = [row[:-1] for row in rows] if drop_last else rows
    return rows[0], [[_cell(c) for c in row] for row in rows[1:]]


def _match_reference(name: str, out: Path, reference: Path, csv_files: list[str]):
    drift: list[float] = []
    got = json.loads((out / "summary.json").read_text())
    want = json.loads((reference / "summary.json").read_text())
    _compare(got, want, "summary", drift)
    for file in ["metrics.csv"] + csv_files:
        got = _csv_cells((out / file).read_text(), drop_last=file == "metrics.csv")
        want = _csv_cells((reference / file).read_text())
        _compare(list(got), list(want), file, drift)
    verdict(
        f"{name} outputs vs committed reference",
        True,
        f"{len(drift)} floats, max relative drift {max(drift):.2e} "
        f"(bound rtol {REF_RTOL:.0e}, atol {REF_ATOL:.0e})",
    )


def test_reactor_outputs_match_reference(cstr_study):
    _, out, _ = cstr_study
    trajectories = [f"trajectory_{a}.csv" for a in ("greedy_v", "default_mpc", "vf_mpc")]
    _match_reference("reactor", out, CSTR_REFERENCE, trajectories)


def test_lq_outputs_match_reference(tmp_path):
    cfg = load_config(REPO / "configs" / "lq_reinforce.yaml")
    cfg = dataclasses.replace(
        cfg, repetitions=2, learner=dataclasses.replace(cfg.learner, iterations=3)
    )
    run_lq_reinforce(cfg, tmp_path)
    _match_reference("LQ study (2 repetitions x 3 iterations)", tmp_path, LQ_REFERENCE, [])
