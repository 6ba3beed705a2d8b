"""qmpc benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Without --workload every workload runs in
turn, untraced and then traced; ``--write-manifest`` rewrites BENCHMARK.json
from the metric definitions here and in spans.py.

Each workload runs in child processes whose BLAS pool is pinned to one
thread: SETUP_PROCESSES that only set up (for the set-up time median), then
one that also measures.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics when untraced and the per-layer metrics when traced.  The full record
(machine, versions, BLAS, seeds, inputs, commit) goes to
.bench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = {
    "lq_reinforce": "policy Jacobian (sensitivity) and a small unconstrained SQP dominate; no inequality rows, no RK4",
    "cstr_vfmpc": "RK4 envs, OCP callbacks, constrained active-set QP with line search and greedy value training dominate",
    "lq_long_horizon": "H=50 with an active input box: dense O(nz^3) SVD/QR in solver and qp dominate; no RK4, no sensitivities",
    "oracle_suite": "the only shipped path for pinned Q-value solves, envelope value gradients and the DP oracles",
}
# (name, unit, better, bound): the bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
# Step latency is reported at p90 alone.  On a shared VM whose speed flips
# between two levels within seconds, the median step lands on whichever level
# held more than half of the run, so it jumps between them from run to run (a
# greedy decision reads 0.7 or 1.3 ms); the p90 stays in the slower level,
# which holds steady.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("step_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)
RUN_SECONDS = 25
SETUP_PROCESSES = 4
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args: list[str], root: Path, timeout: float) -> tuple[float, list[str]]:
    """Run a worker to completion; (spawn time on the monotonic clock, stdout lines)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, env=_child_env(root), capture_output=True, text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return t0, proc.stdout.strip().splitlines()


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "configs").glob("*.yaml"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.monotonic()
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    for _ in range(SETUP_PROCESSES):
        t0, lines = _spawn([*common, "--setup-only"], root, DEADLINE_S - (time.monotonic() - start))
        setups.append(json.loads(lines[0])["ready"] - t0)
    t0, lines = _spawn(common, root, DEADLINE_S - (time.monotonic() - start))
    setups.append(json.loads(lines[0])["ready"] - t0)
    for line in lines[1:-1]:
        print(line)
    res = json.loads(lines[-1])

    if trace:
        metrics = {n: {"value": res["per_layer"][n], "unit": u} for n, u, _ in _per_layer()}
    else:
        steps_ms = [1e3 * s for s in res["steps"]]
        values = {
            "wall_s": statistics.median(res["rounds"]),
            "step_ms_p90": statistics.quantiles(steps_ms, n=10)[-1],
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u, _, _ in END_TO_END}
    result = {
        "correct": not res["problems"] and res["attempted"] >= 1,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "result": result,
        "setup_samples_s": setups,
        "round_walls_s": res["rounds"],
        "step_samples": len(res["steps"]),
        "inputs": res["inputs"],
        "problems": res["problems"],
        "machine": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), "platform": platform.platform()},
        "software": {"python": platform.python_version(), **res["software"]},
        "blas_env": BLAS_ENV,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        **{k: res[k] for k in ("traced_round", "trace_file", "spans") if k in res},
    }
    out = root / ".bench_out" / "results" / f"{name}-seed{seed}-trace{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    for p in res["problems"]:
        print(f"# CHECK FAILED {name}: {p}")
    print(f"# {name} seed={seed} trace={trace} rounds={len(res['rounds'])} steps={len(res['steps'])} "
          f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    print(f"# machine {record['machine']} software {record['software']} git {record['git_commit']}")
    for n, m in metrics.items():
        print(f"# {n} {m['value']:.6g} {m['unit']}")
    return result


def _per_layer():
    import spans

    return spans.PER_LAYER


def write_manifest(root: Path) -> None:
    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd} for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in _per_layer()],
    }
    (root / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--write-manifest", action="store_true")
    args = ap.parse_args()
    root = Path.cwd()
    if args.write_manifest:
        write_manifest(root)
        return 0
    if not (root / "src" / "qmpc" / "__init__.py").is_file() or not (root / "configs").is_dir():
        print(f"error: {root} is not a qmpc checkout (src/qmpc and configs/ are missing)", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    result = None
    for name in names:
        for trace in traces:
            result = run_workload(root, name, args.seed, args.seconds, trace)
            print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
