#!/usr/bin/env python3
"""Byte-identity check of a checkout's study outputs, with one BLAS thread.

    python tools/byte_check.py                  # quick set: a SHA-256 per output
    python tools/byte_check.py --full           # full set
    python tools/byte_check.py --against REV    # the same set at REV; name the first difference

Run from anywhere inside a git checkout; the outputs are computed with that
checkout's ``src/``.  The quick set is

* the LQ study of ``configs/lq_reinforce.yaml`` reduced to 2 repetitions x 4
  iterations: ``metrics.csv`` less its ``wall_time`` column, ``curves.csv``
  and ``summary.json``;
* the reactor study of ``configs/cstr_vfmpc.yaml``: every file it writes,
  ``metrics.csv`` less ``wall_time``;
* the ``run_oracle_suite`` summaries of seeds 0-49;
* z, lam, mu and the active set, as hex bytes, of every H=50
  ``MPCController`` solve of ``perfbench``'s ``lq_long_horizon`` workload at
  seed 7, rounds 0-3.

``--full`` runs the LQ study unreduced, oracle seeds 0-399 and rounds 0-11.
``--against REV`` checks REV out in a ``git worktree`` under a temporary
directory, computes the same set there with this script, and prints the first
output whose bytes differ with its first differing line; the exit code is 1
when any output differs.  The digests depend on the BLAS build, so compare
runs made on one machine.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

QUICK = {"lq_repetitions": 2, "lq_iterations": 4, "oracle_seeds": 50, "horizon_rounds": 4}
FULL = {"lq_repetitions": None, "lq_iterations": None, "oracle_seeds": 400, "horizon_rounds": 12}
HORIZON_SEED = 7


def _drop_wall_time(path: Path) -> None:
    """Rewrite a study's metrics.csv without its wall_time column, the one
    output that differs from run to run."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    col = rows[0].index("wall_time")
    path.write_text("".join(",".join(r[:col] + r[col + 1 :]) + "\n" for r in rows))


def produce(root: Path, out: Path, full: bool) -> None:
    """Compute the output set of the checkout at root into out."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import numpy as np

    from qmpc import config, harness

    import workloads

    sizes = FULL if full else QUICK
    cfg = config.load_config(root / "configs" / "lq_reinforce.yaml")
    if not full:
        cfg = dataclasses.replace(
            cfg,
            repetitions=sizes["lq_repetitions"],
            learner=dataclasses.replace(cfg.learner, iterations=sizes["lq_iterations"]),
        )
    harness.run_lq_reinforce(cfg, out / "lq")
    harness.run_cstr_vfmpc(config.load_config(root / "configs" / "cstr_vfmpc.yaml"), out / "cstr")
    for study in ("lq", "cstr"):
        _drop_wall_time(out / study / "metrics.csv")

    for seed in range(sizes["oracle_seeds"]):
        d = out / "oracle" / f"seed{seed:03d}"
        try:
            harness.run_oracle_suite(d, seed=seed)
        except Exception as exc:  # a seed that raises is an output too
            d.mkdir(parents=True, exist_ok=True)
            (d / "raised.txt").write_text(f"{type(exc).__name__}: {exc}\n")

    wl = workloads.LQLongHorizon(root, HORIZON_SEED)
    lines = []
    for r in range(sizes["horizon_rounds"]):
        records, failed = wl.run(r)
        lines.append(f"round {r} failed {failed}")
        for t, _, _, kkt in records:
            active = np.asarray(kkt.active_set, dtype=np.int64)
            parts = (kkt.z, kkt.lam, kkt.mu, active)
            lines.append(f"round {r} step {t} " + " ".join(a.tobytes().hex() for a in parts))
    (out / "lq_long_horizon_kkt.txt").write_text("\n".join(lines) + "\n")


def manifest(out: Path) -> dict[str, str]:
    """SHA-256 of every output file, by its path under out."""
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def run_set(root: Path, out: Path, full: bool) -> dict[str, str]:
    """Produce the set for the checkout at root in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--produce", str(root), "--out", str(out)]
    subprocess.run(cmd + (["--full"] if full else []), check=True, cwd=root)
    return manifest(out)


def first_difference(a: Path, b: Path, here: dict, there: dict) -> str | None:
    """The first output, in path order, that is missing on one side or whose
    bytes differ, with its first differing line; None when all agree."""
    for name in sorted(set(here) | set(there)):
        if name not in here or name not in there:
            return f"{name}: only {'at REV' if name in there else 'here'}"
        if here[name] != there[name]:
            la = (a / name).read_text().splitlines()
            lb = (b / name).read_text().splitlines()
            for i, (x, y) in enumerate(zip(la, lb), 1):
                if x != y:
                    return f"{name}: line {i} differs\n  here: {x[:200]}\n  REV:  {y[:200]}"
            return f"{name}: {len(la)} lines here, {len(lb)} at REV"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--full", action="store_true", help="the full set instead of the quick one")
    ap.add_argument("--against", metavar="REV", help="also compute the set at REV and compare")
    ap.add_argument("--produce", metavar="ROOT", help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.produce:
        produce(Path(args.produce), Path(args.out), args.full)
        return 0

    top = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True,
                         check=True, cwd=Path(__file__).resolve().parent).stdout.strip()
    root = Path(top)
    with tempfile.TemporaryDirectory(prefix="byte_check-") as tmp:
        tmp = Path(tmp)
        here = run_set(root, tmp / "here", args.full)
        for name, digest in here.items():
            print(f"{digest}  {name}")
        if not args.against:
            return 0
        tree = tmp / "rev"
        subprocess.run(["git", "worktree", "add", "--detach", str(tree), args.against],
                       check=True, cwd=root, capture_output=True)
        try:
            there = run_set(tree, tmp / "there", args.full)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=root, capture_output=True)
        diff = first_difference(tmp / "here", tmp / "there", here, there)
        if diff is None:
            print(f"# all {len(here)} outputs are byte-identical to {args.against}")
            return 0
        print(f"# differs from {args.against}: {diff}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
