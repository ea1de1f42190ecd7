"""Run one workload several times and print each metric's spread against its bound.

Usage, from the repository root::

    python3 perfbench/repeat.py --workload heis-dmrg --runs 10
    python3 perfbench/repeat.py --workload heis-dmrg --runs 10 --first-seed 101 \\
        --compare perfbench/_results/repeat-heis-dmrg-seed1.json

Each run is a fresh process of the command in ``BENCHMARK.json`` with its
own seed (``first-seed``, ``first-seed + 1``, ...), untraced and of the
``run_seconds`` the bounds were set for. For every end-to-end
metric the table shows the median of the runs, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and the metric's bound. ``--compare`` reads a set
saved by an earlier call and prints how far this set's median moved from
that one's, as a share of the earlier median; a move towards worse beyond
the bound is flagged. The raw results are saved under
``perfbench/_results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--compare", help="a set saved by an earlier call, to compare medians against")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("need at least two runs for quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        res = run_once(spec, args.workload, seed)
        results.append({"seed": seed, **res})
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}", flush=True)

    out = HERE / "_results" / f"repeat-{args.workload}-seed{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))

    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"\n{args.workload}: {args.runs} runs of {spec['run_seconds']} s, all correct: {all(r['correct'] for r in results)}")
    print(f"failed share per run: {shares}  (one value means every run failed the same share)")
    earlier = None
    if args.compare:
        saved = json.loads(Path(args.compare).read_text())
        earlier = {m["name"]: [r["metrics"][m["name"]]["value"] for r in saved] for m in metrics}
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}  verdict")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)  # the middle cut is the median
        spread = (q3 - q1) / med if med else float("nan")
        verdict = "steady" if spread <= bound / 3 else ("within bound" if spread <= bound else "WIDE")
        line = f"{name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {bound:>6}  {verdict}"
        if earlier is not None:
            before = statistics.median(earlier[name])
            move = (med - before) / before if before else float("nan")
            worse = move if m["better"] == "lower" else -move
            flag = "WORSE" if worse > bound else ""
            line += f"  vs earlier median {before:.6g}: {move:+.3f} {flag}"
        print(line)
    print(f"saved {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
