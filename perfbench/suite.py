"""Run every workload on several seeds, then one traced run each, and summarize.

    python3 perfbench/suite.py --seeds 0-9 --out results.jsonl

For every workload of BENCHMARK.json: one untraced run per seed, then one
traced run on the first seed, each for BENCHMARK.json's run_seconds.  Each
run is a separate ``run.py`` process, one at a time.  Records are appended
to ``--out``; the summary printed at the end is ``compare.py`` on that
file.  Compare two commits with ``compare.py base.jsonl head.jsonl``, both
measured with the same benchmark code.
"""

import argparse
import subprocess
import sys
from pathlib import Path

import compare
from spec import SPEC, WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    failed = 0
    for workload in WORKLOAD_NAMES:
        runs = [(seed, 0) for seed in args.seeds] + [(args.seeds[0], 1)]
        for seed, trace in runs:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                   "--trace", str(trace), "--out", str(args.out)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
            print(f"{workload} seed={seed} trace={trace} exit={done.returncode} "
                  f"{last[:100]}", flush=True)
            if done.returncode != 0:
                failed += 1
                print(done.stdout[-2000:] + done.stderr[-2000:], file=sys.stderr)
    compare.summarize(compare.load(args.out), SPEC)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
