"""Shows that every workload check fails on a deliberately corrupted output.

    PYTHONPATH=src python3 perfbench/selftest.py [--workload NAME] [--seed N]

Runs round 0 of each workload once, requires its check to pass, then applies
one corruption at a time to the outputs (in memory or in the files the check
reads) and requires the check to report the matching problem.  Exits 1 when a
clean output fails or a corruption goes unnoticed.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import sys
from pathlib import Path

import numpy as np

import workloads
from qmpc import solver


def _edit_csv(path: Path, row: int, column: str, fn):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[1 + row].split(",")
    j = header.index(column)
    cells[j] = repr(float(fn(float(cells[j]))))
    lines[1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _summary(out, fn):
    """out with a corrupted deep copy of its summary dict."""
    cfg, summary = out
    summary = copy.deepcopy(summary)
    fn(summary)
    return cfg, summary


def _mpc_policy_off(run):
    def corrupted(*args, **kwargs):
        a, kkt = orig(*args, **kwargs)
        return a + 1e-4, kkt

    orig = solver.mpc_policy
    solver.mpc_policy = corrupted
    try:
        return run()
    finally:
        solver.mpc_policy = orig


def _kkt(out, fn):
    records, failed = out
    t, x0, u, kkt = records[3]
    records = list(records)
    records[3] = (t, x0, u, fn(kkt))
    return records, failed


def _shift_plan(wl, kkt):
    """Move one interior plan input and keep the planned states consistent."""
    _, Gam, _, _ = wl._condensed()
    dU = np.eye(1, wl.H, 30)[0] * 1e-3
    return dataclasses.replace(kkt, z=kkt.z + np.concatenate([Gam @ dU, dU]))


def corruptions(wl, out):
    """(name, expected problem text, corrupt-and-check thunk) per check."""
    if isinstance(wl, workloads.LQReinforce):
        metrics = wl.out / "metrics.csv"
        return [
            ("J_star", "J_star", lambda: wl.check(0, _summary(out, lambda s: s.update(J_star=s["J_star"] * (1 + 1e-6))))),
            ("flagged run", "flagged", lambda: wl.check(0, _summary(out, lambda s: s.update(flagged_runs=[0])))),
            ("gap grows", "gap did not shrink", lambda: wl.check(0, _summary(out, lambda s: s.update(gap_final=s["gap_initial"] + 1)))),
            ("non-finite row", "non-finite", lambda: (_edit_csv(metrics, 2, "frob_A", lambda v: float("inf")), wl.check(0, out))[1]),
            ("mpc_policy", "mpc_policy", lambda: _mpc_policy_off(lambda: wl.check(0, out))),
        ]
    if isinstance(wl, workloads.CSTRVFMPC):
        traj = wl.out / "trajectory_vf_mpc.csv"
        hi = wl.cfg.env.input_hi[0]
        return [
            ("criterion", "criterion vf_mpc_zero_violations", lambda: wl.check(0, _summary(out, lambda s: s["criteria"].update(vf_mpc_zero_violations=False)))),
            ("violation count", "recount", lambda: wl.check(0, _summary(out, lambda s: s["agents"]["vf_mpc"].update(violation_count=1)))),
            ("transition", "solve_ivp", lambda: (_edit_csv(traj, 40, "T_R", lambda v: v + 1e-3), wl.check(0, out))[1]),
            ("input box", "input box", lambda: (_edit_csv(traj, 10, "F", lambda v: hi + 1e-3), wl.check(0, out))[1]),
            ("reward", "reward formula", lambda: (_edit_csv(traj, 60, "reward", lambda v: v - 1e-6), wl.check(0, out))[1]),
        ]
    if isinstance(wl, workloads.LQLongHorizon):
        return [
            ("KKT residual", "KKT residual", lambda: wl.check(0, _kkt(out, lambda k: dataclasses.replace(k, kkt_residual=1e-3)))),
            ("objective", "objective", lambda: wl.check(0, _kkt(out, lambda k: dataclasses.replace(k, objective=k.objective * (1 + 1e-7))))),
            ("planned states", "dynamics", lambda: wl.check(0, _kkt(out, lambda k: dataclasses.replace(k, z=k.z + np.eye(1, k.z.size, 7)[0] * 1e-4)))),
            ("plan optimality", "projected gradient", lambda: wl.check(0, _kkt(out, lambda k: _shift_plan(wl, k)))),
        ]
    if isinstance(wl, workloads.OracleSuite):
        return [
            ("passed", "passed=False", lambda: wl.check(0, _summary(out, lambda s: s.update(passed=False)))),
            ("Riccati residual", "riccati_max_residual", lambda: wl.check(0, _summary(out, lambda s: s.update(riccati_max_residual=1e-7)))),
            ("value iteration residual", "value_iteration_max_residual", lambda: wl.check(0, _summary(out, lambda s: s.update(value_iteration_max_residual=1e-7)))),
            ("FD deviation", "sensitivity_max_fd_deviation", lambda: wl.check(0, _summary(out, lambda s: s.update(sensitivity_max_fd_deviation=2e-4)))),
            ("contraction", "Bellman", lambda: wl.check(0, _summary(out, lambda s: s.update(contraction_ok=False)))),
        ]
    raise ValueError(wl.name)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    ok = True
    for name in [args.workload] if args.workload else list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name](Path.cwd(), args.seed)
        out = wl.run(0)
        files = {p: p.read_text() for p in wl.out.glob("*.csv")} if hasattr(wl, "out") else {}
        _, _, problems = wl.check(0, out)
        print(f"{name}: clean output {'passes' if not problems else 'FAILS ' + str(problems)}")
        ok &= not problems
        for label, expect, thunk in corruptions(wl, out):
            _, _, problems = thunk()
            for p, text in files.items():
                p.write_text(text)
            caught = [p for p in problems if expect in p]
            print(f"{name}: corrupted {label}: {'caught' if caught else 'MISSED'} {caught[:1]}")
            ok &= bool(caught)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
