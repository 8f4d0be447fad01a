"""Store the answer of the sparse workload as its reference.

    python3 perfbench/make_reference.py

The fixed-step laplacian_lqr answer is not converged in time (P still moves
by O(1) between 2 and 4 steps), and N=400 is beyond the dense oracles, so
the sparse workload's rel_error measures how far a commit moves the answer
away from this stored one.  Regenerate it only in a change that is meant to
move that answer, and say so in that change.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    wl = workloads.WORKLOADS["sparse_fixed_n400"]
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
        out = wl.solve(wl.build(0), Path(tmp))
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    workloads.SPARSE_REFERENCE.parent.mkdir(exist_ok=True)
    np.savez_compressed(workloads.SPARSE_REFERENCE, L=out.final.L, D=out.final.D,
                        commit=np.array(commit))
    print(f"wrote {workloads.SPARSE_REFERENCE} (rank {out.final.rank}, commit {commit})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
