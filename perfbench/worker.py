"""One benchmark process: set up a workload, run timed rounds, check them.

Started by run.py with a one-thread BLAS pool.  Prints ``{"ready": t}`` as
soon as the workload is set up (t on the system-wide monotonic clock, so the
parent can subtract its spawn time), and in run mode a final JSON line with
the round times, step latencies, operation counts, check problems, peak
memory and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from qmpc import errors

import spans
import workloads


class StepClock:
    """Latency of each closed-loop step, timed at the named call boundaries.

    A target with role "call" is one step per call; "begin"/"end" targets
    mark the first and last call of a step."""

    def __init__(self, targets):
        self.samples: list[float] = []
        self.active = False
        self._begin = 0.0
        self._patched = []
        for owner, attr, role in targets:
            fn = owner.__dict__[attr]
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, role))

    def _wrap(self, fn, role):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            if self.active:
                if role == "begin":
                    self._begin = t0
                else:
                    self.samples.append(clock() - (t0 if role == "call" else self._begin))
            return out

        return timed

    def restore(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)


def _software() -> dict:
    """numpy/scipy versions, the BLAS build and the live thread count of
    every OpenBLAS loaded into this process."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as f:
        libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": threads,
    }


def _timed_round(wl, r):
    """(wall seconds, output or None when the round raised a numerical error)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(r)
    except errors.QmpcError as exc:
        print(f"# {wl.name} round {r} failed: {exc!r}")
        out = None
    return time.perf_counter() - t0, out


def _check(wl, r, out, tally):
    if out is None:
        attempted, failed, problems = wl.ops_per_round, wl.ops_per_round, []
    else:
        attempted, failed, problems = wl.check(r, out)
    tally["attempted"] += attempted
    tally["failed"] += failed
    tally["problems"] += [f"round {r}: {p}" for p in problems]
    tally["inputs"].append({"round": r, **{k: np.asarray(v).tolist() for k, v in wl.inputs(r).items()}})


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    root = Path.cwd()
    cls = workloads.WORKLOADS[args.workload]

    wl = cls(root, args.seed)
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if args.setup_only:
        return 0

    tally = {"attempted": 0, "failed": 0, "problems": [], "inputs": []}
    result: dict = {"rounds": [], "steps": []}
    if not args.trace:
        clock = StepClock(cls.steps)
        # Whole rounds while half a round of the mean length still fits in
        # --seconds (at least one): the measured time lands nearest to
        # --seconds, and the round count does not hinge on whether one long
        # round ends just before or after the limit.  A cstr_vfmpc round
        # (12-16 s) thus runs twice in 25 s, not once.
        elapsed, r = 0.0, 0
        while r == 0 or elapsed + elapsed / r / 2 <= args.seconds:
            clock.active = True
            wall, out = _timed_round(wl, r)
            clock.active = False
            elapsed += wall
            result["rounds"].append(wall)
            _check(wl, r, out, tally)
            r += 1
        clock.restore()
        result["steps"] = clock.samples
    else:
        # Round 0 untraced, then set-up and round 0 again under the tracer;
        # the difference of the two walls is the tracing overhead.
        wall, out = _timed_round(wl, 0)
        _check(wl, 0, out, tally)
        tracer = spans.Tracer()
        spans.instrument(tracer)
        wl = cls(root, args.seed)
        traced_wall, out = _timed_round(wl, 0)
        tracer.restore()
        result["rounds"] = [wall]
        result["traced_round"] = traced_wall
        result["per_layer"] = {**tracer.per_layer(), "trace.overhead_s": traced_wall - wall}
        trace_path = root / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.npz"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(root))
        result["spans"] = len(tracer.end)
        _check(wl, 0, out, tally)
    result.update(tally)
    result["software"] = _software()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
