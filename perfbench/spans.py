"""In-memory span tracer around the qmpc layer boundaries.

Spans come only from this benchmark: :func:`instrument` replaces the module
and class attributes that the program looks up at call time with wrappers,
and :meth:`Tracer.restore` puts the originals back.  Nothing in the program
changes.  Each span holds a name, a start, an end and the index of its parent
span; the arrays stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from array import array
from collections import Counter

import numpy as np

# Span names per layer.  The linalg layer stands for the dense numpy/scipy
# factorizations the program calls; eigvalsh is counted under linalg.eigh.
LINALG = ("svd", "qr", "solve", "lstsq", "cholesky", "eigh", "matrix_rank")
LAYERS = ("envs", "ocp", "solver", "qp", "linalg", "sensitivity", "rl", "mdp", "dp", "harness", "config")
SOLVE_STATUSES = ("converged", "max_iter", "infeasible", "diverged")

# (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER = (
    [
        ("envs.cstr_discrete.calls", "count", "lower"),
        ("envs.cstr_discrete.s", "s", "lower"),
        ("envs.cstr_discrete_jac.calls", "count", "lower"),
        ("envs.cstr_discrete_jac.s", "s", "lower"),
        ("envs.step.calls", "count", "lower"),
        ("envs.step.s", "s", "lower"),
        ("ocp.callback.calls", "count", "lower"),
        ("ocp.callback.s", "s", "lower"),
        ("ocp.dynamics.calls", "count", "lower"),
        ("ocp.dynamics_jac.calls", "count", "lower"),
        ("ocp.phi_callback.s", "s", "lower"),
        ("solver.solve.calls", "count", "lower"),
        ("solver.solve.s", "s", "lower"),
        ("solver.solve.self_s", "s", "lower"),
        ("solver.solve_ms_p50", "ms", "lower"),
        ("solver.sqp_iters", "count", "lower"),
    ]
    + [(f"solver.status.{st}", "count", "higher" if st == "converged" else "lower") for st in SOLVE_STATUSES]
    + [
        ("solver.dynamics_jac_per_iter", "ratio", "lower"),
        ("solver.dynamics_jac_per_iter.base", "count", "lower"),
        ("qp.solve.calls", "count", "lower"),
        ("qp.solve.s", "s", "lower"),
        ("qp.solve.self_s", "s", "lower"),
        ("qp.pivots", "count", "lower"),
        ("qp.phase1.calls", "count", "lower"),
        ("qp.phase1.s", "s", "lower"),
    ]
    + [(f"linalg.{op}.{k}", u, "lower") for op in LINALG for k, u in (("calls", "count"), ("s", "s"))]
    + [
        ("linalg.flops_computed", "flop", "lower"),
        ("sensitivity.jac_policy.calls", "count", "lower"),
        ("sensitivity.jac_policy.s", "s", "lower"),
        ("sensitivity.grad_q.calls", "count", "lower"),
        ("sensitivity.grad_q.s", "s", "lower"),
        ("sensitivity.degenerate", "count", "lower"),
        ("rl.reinforce.s", "s", "lower"),
        ("rl.dropped_steps", "count", "lower"),
        ("rl.value.calls", "count", "lower"),
        ("rl.fit_value.s", "s", "lower"),
        ("harness.train_value.s", "s", "lower"),
        ("harness.greedy_action.calls", "count", "lower"),
        ("harness.greedy_action.s", "s", "lower"),
        ("mdp.rollout.calls", "count", "lower"),
        ("mdp.rollout.s", "s", "lower"),
        ("dp.value_iteration.iters", "count", "lower"),
        ("dp.value_iteration.s", "s", "lower"),
        ("dp.riccati.calls", "count", "lower"),
        ("dp.riccati.s", "s", "lower"),
        ("config.load.s", "s", "lower"),
    ]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [("trace.overhead_s", "s", "lower")]
)


class Tracer:
    """Span recorder with attribute patching and restore."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def inside(self, name: str) -> bool:
        """True while a span of this name is open."""
        return self._open[self._id(name)] > 0

    def wrap(self, name: str, fn, after=None):
        """fn with a span around each call; after(out, args, kwargs) runs on return."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, open_, clock = self._stack, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(end)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            open_[nid] += 1
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                open_[nid] -= 1
            if after is not None:
                after(out, args, kwargs)
            return out

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_span(self, owner, attr: str, name: str, after=None) -> None:
        self.patch(owner, attr, self.wrap(name, owner.__dict__[attr], after))

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def _arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.int32) if len(self.name_id) else np.zeros(0, np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        dur = np.asarray(self.end) - np.asarray(self.start)
        return nid, par, dur

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; spans never overlap their siblings (one thread)."""
        nid, par, dur = self._arrays()
        child = np.zeros(dur.size)
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - child, minlength=k)
        return {n: (int(calls[i]), float(incl[i]), float(own[i])) for i, n in enumerate(self.names)}

    def durations(self, name: str) -> np.ndarray:
        nid, _, dur = self._arrays()
        return dur[nid == self._ids[name]] if name in self._ids else np.zeros(0)

    def write(self, path) -> None:
        nid, par, _ = self._arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=nid,
            parent=par,
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )

    def per_layer(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s."""
        tot = self.totals()
        c = self.counts

        def get(name, i):
            return tot.get(name, (0, 0.0, 0.0))[i]

        m: dict[str, float] = {}
        for span in (
            "envs.cstr_discrete",
            "envs.cstr_discrete_jac",
            "envs.step",
            "solver.solve",
            "qp.solve",
            "qp.phase1",
            "sensitivity.jac_policy",
            "sensitivity.grad_q",
            "harness.greedy_action",
            "mdp.rollout",
            "dp.riccati",
            *(f"linalg.{op}" for op in LINALG),
        ):
            m[f"{span}.calls"] = get(span, 0)
            m[f"{span}.s"] = get(span, 1)
        for span in ("solver.solve", "qp.solve"):
            m[f"{span}.self_s"] = get(span, 2)
        for span in ("rl.reinforce", "rl.fit_value", "harness.train_value", "dp.value_iteration", "config.load"):
            m[f"{span}.s"] = get(span, 1)
        callbacks = [n for n in tot if n.startswith("ocp.")]
        m["ocp.callback.calls"] = sum(get(n, 0) for n in callbacks)
        m["ocp.callback.s"] = sum(get(n, 1) for n in callbacks)
        m["ocp.dynamics.calls"] = get("ocp.dynamics", 0)
        m["ocp.dynamics_jac.calls"] = get("ocp.dynamics_jac", 0)
        m["ocp.phi_callback.s"] = sum(get(n, 1) for n in callbacks if "_phi" in n)
        solve_ms = 1e3 * self.durations("solver.solve")
        m["solver.solve_ms_p50"] = float(np.median(solve_ms)) if solve_ms.size else 0.0
        m["solver.sqp_iters"] = c["solver.sqp_iters"]
        for st in SOLVE_STATUSES:
            m[f"solver.status.{st}"] = c[f"solver.status.{st}"]
        base = c["solver.iter_stages"]
        m["solver.dynamics_jac_per_iter"] = c["solver.dynamics_jac_in_solve"] / base if base else 0.0
        m["solver.dynamics_jac_per_iter.base"] = base
        m["qp.pivots"] = c["qp.pivots"]
        m["linalg.flops_computed"] = c["linalg.flops_computed"]
        m["sensitivity.degenerate"] = c["sensitivity.degenerate"]
        m["rl.dropped_steps"] = c["rl.dropped_steps"]
        m["rl.value.calls"] = get("rl.value", 0)
        m["dp.value_iteration.iters"] = c["dp.value_iteration.iters"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v[2] for n, v in tot.items() if n.split(".", 1)[0] == layer)
        return m


# Textbook operation counts from the operand shapes (Golub & Van Loan); they
# are computed, not measured.
def _mn(a):
    s = np.shape(a)
    return max(s[-2:]), min(s[-2:])


def _svd_flops(args, kwargs):
    M, N = _mn(args[0])
    if kwargs.get("compute_uv", args[2] if len(args) > 2 else True):
        return 4 * M * M * N + 8 * M * N * N + 9 * N**3
    return 4 * M * N * N - 4 * N**3 // 3


def _qr_flops(args, kwargs):
    M, N = _mn(args[0])
    return 4 * M * N * N - 4 * N**3 // 3  # Householder R plus economic Q


def _solve_flops(args, kwargs):
    n = np.shape(args[0])[-1]
    b = np.shape(args[1])
    k = 1 if len(b) == 1 else b[-1]
    return 2 * n**3 // 3 + 2 * n * n * k


def _lstsq_flops(args, kwargs):
    M, N = _mn(args[0])
    b = np.shape(args[1])
    k = 1 if len(b) == 1 else b[-1]
    return 4 * M * N * N - 4 * N**3 // 3 + 2 * M * N * k


def _cholesky_flops(args, kwargs):
    return np.shape(args[0])[-1] ** 3 // 3


def _eigh_flops(args, kwargs):
    return 9 * np.shape(args[0])[-1] ** 3


def _eigvalsh_flops(args, kwargs):
    return 4 * np.shape(args[0])[-1] ** 3 // 3


def _rank_flops(args, kwargs):
    M, N = _mn(args[0])
    return 4 * M * N * N - 4 * N**3 // 3


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads reach."""
    import numpy.linalg
    import scipy.linalg

    from qmpc import config, dp, envs, harness, mdp, ocp, qp, rl, sensitivity, solver

    c = tracer.counts

    def count(key, fn):
        def after(out, args, kwargs):
            c[key] += fn(out, args, kwargs)

        return after

    for owner, attr, op, flops in (
        (numpy.linalg, "svd", "svd", _svd_flops),
        (scipy.linalg, "qr", "qr", _qr_flops),
        (numpy.linalg, "solve", "solve", _solve_flops),
        (numpy.linalg, "lstsq", "lstsq", _lstsq_flops),
        (numpy.linalg, "cholesky", "cholesky", _cholesky_flops),
        (numpy.linalg, "eigh", "eigh", _eigh_flops),
        (numpy.linalg, "eigvalsh", "eigh", _eigvalsh_flops),
        (numpy.linalg, "matrix_rank", "matrix_rank", _rank_flops),
    ):
        tracer.patch_span(owner, attr, f"linalg.{op}", count("linalg.flops_computed", lambda o, a, k, f=flops: f(a, k)))

    def solve_done(out, args, kwargs):
        report = out[1]
        c["solver.sqp_iters"] += report.iterations
        c[f"solver.status.{report.status}"] += 1
        c["solver.iter_stages"] += args[0].H * (report.iterations + 1)

    tracer.patch_span(solver, "solve_ocp", "solver.solve", solve_done)
    tracer.patch_span(solver, "qp_solve", "qp.solve", count("qp.pivots", lambda o, a, k: o.iterations))
    tracer.patch_span(qp, "linprog", "qp.phase1")

    degenerate = count("sensitivity.degenerate", lambda o, a, k: o.regularity != "strict")
    for owner in (rl, sensitivity):
        tracer.patch_span(owner, "jac_policy_wrt_params", "sensitivity.jac_policy", degenerate)
        tracer.patch_span(owner, "grad_q_wrt_params", "sensitivity.grad_q", degenerate)

    tracer.patch_span(harness, "reinforce_gradient", "rl.reinforce", count("rl.dropped_steps", lambda o, a, k: o.dropped))
    tracer.patch_span(rl.ValueModel, "value", "rl.value")
    tracer.patch_span(harness, "fit_value_function", "rl.fit_value")
    tracer.patch_span(harness, "train_value_model", "harness.train_value")
    tracer.patch_span(harness, "greedy_value_action", "harness.greedy_action")
    for owner in (mdp, harness):
        tracer.patch_span(owner, "rollout", "mdp.rollout")
    tracer.patch_span(dp, "value_iteration", "dp.value_iteration", count("dp.value_iteration.iters", lambda o, a, k: o[1]))
    tracer.patch_span(dp, "riccati_solve", "dp.riccati")
    tracer.patch_span(config, "load_config", "config.load")

    for owner in (envs, harness):
        tracer.patch_span(owner, "cstr_discrete", "envs.cstr_discrete")
    tracer.patch_span(envs, "cstr_discrete_jac", "envs.cstr_discrete_jac")
    tracer.patch_span(envs, "cstr_step", "envs.step")
    tracer.patch_span(envs, "lq_step", "envs.step")

    in_solve = count("solver.dynamics_jac_in_solve", lambda o, a, k: tracer.inside("solver.solve"))

    def traced_builder(build):
        @functools.wraps(build)
        def build_traced(*args, **kwargs):
            spec, phi = build(*args, **kwargs)
            callbacks = {
                f.name: getattr(spec, f.name)
                for f in dataclasses.fields(spec)
                if callable(getattr(spec, f.name))
            }
            wrapped = {
                k: tracer.wrap(f"ocp.{k}", fn, in_solve if k == "dynamics_jac" else None)
                for k, fn in callbacks.items()
            }
            return dataclasses.replace(spec, **wrapped), phi

        return build_traced

    for owner, attr in ((ocp, "build_lq_ocp"), (harness, "build_lq_ocp"), (envs, "build_cstr_ocp"), (harness, "build_cstr_ocp")):
        tracer.patch(owner, attr, traced_builder(owner.__dict__[attr]))
