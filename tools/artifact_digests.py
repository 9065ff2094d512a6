#!/usr/bin/env python3
"""Digest every artifact of the benchmark workloads' pipeline runs.

    python3 tools/artifact_digests.py OUT_DIR

For each workload in ``perfbench/workloads.py`` at seeds 1-3, this runs
the benchmark's settings: ``run_pipeline`` on the in-memory clip, ``evc
play`` on the ``.adderc``, and ``evc detect`` in paper and exact mode on
both the ``.adder`` and the ``.adderc``.  It writes only under OUT_DIR,
one ``<workload>-<seed>`` folder per run, and prints one sorted
``sha256  <workload>-<seed>/<file>`` line per artifact, 108 in all.
Diffing its output for two checkouts shows whether a change moved any
output byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import evc.cli  # noqa: E402
from evc.harness import ExperimentConfig, run_pipeline  # noqa: E402
from workloads import DT_MAX, DT_REF, WORKLOADS  # noqa: E402

SEEDS = (1, 2, 3)


def artifacts(workload, seed: int, out_dir: Path) -> list[Path]:
    """Run one workload at one seed into ``out_dir``; return its files."""
    config = ExperimentConfig(
        input=f"{workload.name}.y4m", crf=workload.crf,
        feature_adaptation=workload.features, dt_ref=DT_REF, dt_max=DT_MAX,
        detector_mode=workload.mode, out_dir=str(out_dir))
    paths = run_pipeline(config, frames=workload.frames(seed)).paths
    files = [Path(p) for p in paths.values()]
    files += [Path(f"{paths[k]}.dims") for k in ("recon_raw", "recon_comp")]
    calls = [["play", paths["compressed"],
              "--out", str(out_dir / f"{workload.name}.play.y4m")]]
    for kind in ("raw", "compressed"):
        for mode in ("paper", "exact"):
            csv = f"{paths[kind]}.{mode}.csv"
            calls.append(["detect", paths[kind], "--mode", mode, "--out", csv])
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            if evc.cli.main(argv) != 0:
                sys.exit(f"evc {' '.join(argv)} failed")
        files.append(Path(argv[-1]))
    return files


def main(argv) -> int:
    if len(argv) != 1:
        sys.exit("usage: python3 tools/artifact_digests.py OUT_DIR")
    out = Path(argv[0])
    lines = []
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            run = out / f"{name}-{seed}"
            run.mkdir(parents=True, exist_ok=True)
            for path in artifacts(workload, seed, run):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {run.name}/{path.name}")
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
