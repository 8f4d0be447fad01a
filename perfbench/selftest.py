"""Self-test of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

Checks that a short traced run of every workload passes its output check
with every named layer recording calls on its home workloads (a wrapper that
a by-name import bypasses shows up as zero calls), that an untraced run
reports every end-to-end metric, and that the benchmark refuses to run
without the library source.  Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from spec import END_TO_END_UNITS, WORKLOAD_NAMES


def run_bench(root: Path, workload: str, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return done.returncode, result, done.stdout + done.stderr


def main() -> int:
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for workload in WORKLOAD_NAMES:
        code, result, log = run_bench(run.ROOT, workload, 1)
        ok = code == 0 and result is not None and result["correct"]
        expect(ok, f"{workload}: traced run passes its output and home-layer checks")
        if not ok:
            print(log[-3000:])

    code, result, log = run_bench(run.ROOT, "adaptive_n10", 0)
    expect(code == 0 and result is not None
           and set(result["metrics"]) == set(END_TO_END_UNITS)
           and all(m["value"] for m in result["metrics"].values()),
           "untraced run reports every end-to-end metric, none of them 0")

    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = run_bench(bare, "adaptive_n10", 0)
        expect(code != 0 and result is None, "without the library source: nonzero exit, no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
