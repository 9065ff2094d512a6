#!/usr/bin/env python3
"""Compare the end-to-end benchmark of two checkouts, pair by pair.

    python3 tools/ab_bench.py PARENT_DIR CHANGE_DIR [--pairs N]
        [--seconds S] [--tiny]

For each workload in the parent's ``BENCHMARK.json`` it runs, ``--pairs``
times in each checkout, ``python3 perfbench/run.py --workload W --seed 1
--seconds S --trace 0`` from the checkout's root, alternating which side
runs first.  ``--seconds`` defaults to the file's ``run_seconds``.  Each
run writes only what ``perfbench/run.py`` writes, under the checkout's
git-ignored ``perfbench/_out/``; this script writes nothing else.

For each end-to-end metric it prints both medians, the parent's
interquartile spread, and the pairs the change won (ties count for
neither side).  The verdict is ``WORSE`` when the change's median is
worse than the parent's by more than the metric's ``bound``, read as a
fraction of the parent's median; ``noisy`` when the parent's own spread
exceeds that bound, so the runs cannot resolve it; else ``ok``.  The
exit status is 1 when any verdict is ``WORSE``.

The runs set PYTHONDONTWRITEBYTECODE, so no run leaves a bytecode cache
that would let a later ``setup_s`` sample skip compiling ``src/evc``.  A
cache already under either checkout's ``src/evc`` is warned about, since
it makes ``setup_s`` incomparable.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seconds: float,
             tiny: bool) -> dict:
    """One end-to-end run in ``checkout``: its metrics, name to value."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", str(seconds), "--trace", "0"]
    if tiny:
        argv.append("--tiny")
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if done.returncode != 0:
        sys.exit(f"error: {workload} in {checkout} exited with "
                 f"{done.returncode}:\n{done.stderr[-2000:]}")
    report = json.loads(done.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in report["metrics"].items()}


def compare(metric: dict, parent: list[float], change: list[float]):
    """(parent median, change median, parent IQR, wins, verdict)."""
    lower = metric["better"] == "lower"
    base, new = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    wins = sum(c < p if lower else c > p for p, c in zip(parent, change))
    allowed = metric["bound"] * abs(base)
    worse = new - base if lower else base - new
    verdict = ("WORSE" if worse > allowed
               else "noisy" if q3 - q1 > allowed else "ok")
    return base, new, q3 - q1, wins, verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--tiny", action="store_true",
                        help="pass --tiny: smoke-test clip sizes")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        # the parent's quartiles need two runs
        parser.error("--pairs must be at least 2")
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    sides = (args.parent, args.change)
    for side in sides:
        if (side / "src" / "evc" / "__pycache__").exists():
            print(f"warning: {side}/src/evc/__pycache__ exists; setup_s "
                  "reads it instead of compiling", file=sys.stderr)

    print(f"{'workload':16} {'metric':12} {'parent':>10} {'change':>10} "
          f"{'parent IQR':>10} {'wins':>6}  verdict")
    flagged = 0
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {side: [] for side in sides}
        for k in range(args.pairs):
            for side in sides if k % 2 == 0 else sides[::-1]:
                runs[side].append(run_once(side, workload, seconds,
                                           args.tiny))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base, new, iqr, wins, verdict = compare(
                metric, *([run[name] for run in runs[side]]
                          for side in sides))
            flagged += verdict == "WORSE"
            print(f"{workload:16} {name:12} {base:10.4g} {new:10.4g} "
                  f"{iqr:10.3g} {wins:>3}/{args.pairs:<2}  {verdict}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
