"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload adaptive_n10 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The workload is a closed loop with one caller: solves run one at a
time, single-threaded, until the next one would end past ``--seconds``.
With ``--trace 0`` the result holds the end-to-end metrics (medians over the
solves); with ``--trace 1`` the layers are wrapped and the result holds the
per-layer metrics of BENCHMARK.json.  The last line of standard output is
the JSON result; ``--out FILE`` also appends a full record (samples and run
environment) for ``compare.py``.
"""

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

from spec import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOAD_NAMES

# One BLAS thread, fixed before numpy loads, so both commits of a comparison
# run alike; default OpenBLAS threading spread the sparse solve over
# 4.6-6.6 s on a shared 2-core box against 6.4-6.6 s single-threaded.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="append a full JSON record to this file")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--reference-to", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(workload: str, seed: int, reference_to: Path | None) -> None:
    """Time `import dresplit` plus problem construction in a fresh process.

    With reference_to, the workload's reference is computed afterwards,
    outside the timed part, and stored there.
    """
    start = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload]
    inst = wl.build(seed)
    setup = perf_counter() - start
    if reference_to is not None:
        import numpy as np

        ref, desc = wl.reference(inst)
        took = perf_counter() - start - setup
        np.savez(reference_to, p=ref, desc=np.array(f"{desc} ({took:.2f} s, untimed)"))
    print(repr(setup))


def measure_setup(workload: str, seed: int, reference_to: Path) -> list:
    """setup_s samples from fresh processes; the first also stores the reference.

    The reference (at N=200 two exponentials of a 400 x 400 Hamiltonian) is
    made in a child so that its memory stays out of this process's
    peak_rss_mb, which then covers the imports, the problem builds and the
    solves only.
    """
    samples = []
    for probe in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
        if probe == 0:
            cmd += ["--reference-to", str(reference_to)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "dresplit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": f"{platform.machine()} {platform.processor()}".strip(),
        "numba": importlib.util.find_spec("numba") is not None,
    }


def run(args) -> dict:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workdir = Path(tmp)
        ref_file = workdir / "reference.npz"
        setup = measure_setup(args.workload, args.seed, ref_file)
        import numpy as np
        import tracing
        import workloads

        env = environment()
        print("env " + json.dumps(env, sort_keys=True))
        wl = workloads.WORKLOADS[args.workload]
        if not wl.seed_used:
            print(f"note: {wl.name} ignores the seed; every seed runs the same problem")
        with np.load(ref_file, allow_pickle=False) as stored:
            ref = stored["p"]
            print(f"reference: {stored['desc']}")
        # Warm lazy imports and first-call paths on a small instance.
        wl.solve(wl.build(args.seed, small=True), workdir)

        tracer = tracing.Tracer() if args.trace else None
        walls, cpus, errors, ranks, layer_stats = [], [], [], [], []
        attempted = failed = 0
        begin = perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            while True:
                inst = wl.build(args.seed)
                gc.collect()
                if tracer is not None:
                    tracer.reset()
                attempted += 1
                w0, c0 = perf_counter(), process_time()
                try:
                    out = wl.solve(inst, workdir)
                except Exception:  # a solve that raises counts as failed
                    out = None
                    trace_text = traceback.format_exc()
                wall, cpu = perf_counter() - w0, process_time() - c0
                walls.append(wall)
                cpus.append(cpu)
                if out is None:
                    failed += 1
                    print(f"solve {attempted}: FAILED after {wall:.3f} s\n{trace_text}")
                else:
                    ok, err, msg = wl.check(out, ref)
                    failed += not ok
                    errors.append(err)
                    ranks.append(out.final.rank)
                    print(f"solve {attempted}: wall {wall:.3f} s cpu {cpu:.3f} s "
                          f"rel_error {err:.3e} rank {out.final.rank} {msg}")
                    if tracer is not None:
                        layer_stats.append(tracer.stats(wall, out.est_reliability))
                if perf_counter() - begin + statistics.median(walls) > args.seconds:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {
        "solve_s": walls,
        "solve_cpu_s": cpus,
        "setup_s": setup,
        "rel_error": [max(e, wl.floor) for e in errors],
        "final_rank": ranks,
    }
    metrics = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mb
    problems = []
    if args.trace:
        metrics, problems = layer_metrics(args.workload, layer_stats)
        unit_of = PER_LAYER_UNITS
    else:
        unit_of = END_TO_END_UNITS
        for name in END_TO_END_UNITS:
            n = len(samples.get(name, [None]))
            print(f"metric {name} = {metrics[name]!r} {unit_of[name]} (median of n={n})")
        print(f"metric rel_error_raw = {statistics.median(errors) if errors else 'n/a'} "
              f"(floor {wl.floor:g})")
    print(f"fail_frac = {failed}/{attempted}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }
    if args.out is not None:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "env": env, "samples": samples,
                  "rel_error_raw": errors, **result}
        if args.trace:
            record["layer_samples"] = layer_stats
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    return result


def layer_metrics(workload: str, layer_stats: list) -> tuple:
    """Counts of the first solve, self times as medians over the solves."""
    import tracing

    if not layer_stats:
        return {name: 0.0 for name in PER_LAYER_UNITS}, ["no solve completed"]
    first = layer_stats[0]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "s":
            metrics[name] = statistics.median(s[name] for s in layer_stats)
        else:
            metrics[name] = first[name]
    problems = [f"layer {name} recorded no calls on its home workload {workload}"
                for name in tracing.missing_layers(workload, first)]
    for stats in layer_stats[1:]:
        drift = [k for k, u in PER_LAYER_UNITS.items() if u != "s" and stats[k] != first[k]]
        if drift:
            print(f"note: counts differ between solves of one run: {drift}")
            break
    for name, value in metrics.items():
        print(f"layer {name} = {value!r} {PER_LAYER_UNITS[name]}")
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "dresplit" / "__init__.py").is_file():
        print(f"error: no library source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.reference_to)
        return 0
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
