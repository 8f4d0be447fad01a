"""Command-line interface.

Commands: generate, solve, study {order,efficiency,adaptivity}.
Exit codes: 0 success, 2 ingestion error, 3 solver failure.  argparse also
exits with 2 on a usage error (an unknown flag, say); the message on stderr
tells it from an ingestion error.
"""

import argparse
import sys

from .errors import DresplitError, IngestError, InvalidInput
from .problems import export_problem, generate_problem, ingest_problem
from .schemes import SchemeSpec
from .study import _STUDY_SETTINGS, RunConfig, StudySpec, run_solve, run_study

EXIT_OK = 0
EXIT_INGEST = 2
EXIT_SOLVER = 3


def _add_run_flags(parser):
    parser.add_argument("--scheme", choices=["lie", "strang", "asym", "sym"],
                        help="splitting scheme")
    parser.add_argument("--stages", type=int,
                        help="stage count for the additive schemes")
    parser.add_argument("--steps", type=int, default=None,
                        help="fixed number of equal steps")
    parser.add_argument("--tol", type=float, default=None,
                        help="adaptive tolerance")
    parser.add_argument("--h1", type=float, default=None,
                        help="initial adaptive step size")
    parser.add_argument("--epus", action="store_true", default=None,
                        help="compare error per unit step against the tolerance")
    parser.add_argument("--exp-tol", type=float, default=1e-10,
                        help="stopping tolerance of a sparse problem's Galerkin space "
                        "(the rows of the projected answer in the space's newest Krylov "
                        "block hold at most this share of its Frobenius norm); a dense "
                        "problem is solved as it is")
    parser.add_argument("--comp-tol", type=float, default=None,
                        help="column compression tolerance (default N*eps)")
    parser.add_argument("--out", required=True, help="output directory")


def _config_from_args(args) -> RunConfig:
    """The config of the run flags passed.  A flag left out is None, so a
    study can tell it from one passed, and takes RunConfig's default."""
    values = dict(
        scheme=args.scheme, stages=args.stages, n_steps=args.steps,
        tol=args.tol, h1=args.h1, epus=args.epus, exp_tol=args.exp_tol,
        comp_tol=args.comp_tol,
    )
    return RunConfig(**{name: val for name, val in values.items() if val is not None})


def _scheme_entry(token: str) -> SchemeSpec:
    if ":" not in token:
        return SchemeSpec(token)
    kind, stages = token.split(":", 1)
    return SchemeSpec(kind.strip(), int(stages))


def _parse_list(flag: str, text: str, convert) -> tuple:
    """Entries of a comma list flag; a malformed one raises InvalidInput
    naming the flag and the entry."""
    items = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            items.append(convert(token))
        except (ValueError, InvalidInput) as exc:
            raise InvalidInput(f"{flag}: bad entry {token!r} ({exc})") from None
    if not items:
        raise InvalidInput(f"{flag}: no entries in {text!r}")
    return tuple(items)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dresplit",
        description="Low-rank splitting solver for differential Riccati equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a reproducible test problem")
    gen.add_argument("--kind", choices=["random_lowrank", "laplacian_lqr"],
                     default="random_lowrank")
    gen.add_argument("--n", type=int, default=10, help="state dimension")
    gen.add_argument("--rank", type=int, default=4, help="rank of the data factors")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--horizon", type=float, default=None)
    gen.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="integrate a problem directory")
    solve.add_argument("--problem", required=True, help="problem directory or manifest")
    _add_run_flags(solve)

    study = sub.add_parser("study", help="run a study and emit CSV reports")
    study.add_argument("kind", choices=["order", "efficiency", "adaptivity"])
    study.add_argument("--problem", required=True)
    study.add_argument("--schemes", default=None,
                       help="comma list, e.g. 'lie,strang,asym:3,sym:2'")
    study.add_argument("--ladder", default=None,
                       help="comma list of step counts, e.g. '10,20,40'")
    study.add_argument("--tols", default=None,
                       help="comma list of adaptive tolerances")
    study.add_argument("--reference", choices=["oracle", "finest"])
    _add_run_flags(study)
    return parser


def _cmd_generate(args) -> int:
    problem = generate_problem(args.kind, args.n, args.rank, args.seed, args.horizon)
    manifest = export_problem(problem, args.out)
    print(f"wrote {manifest}")
    return EXIT_OK


def _reject_unused(args, command: str, names) -> None:
    """InvalidInput naming each flag of names that was passed, if any."""
    unused = [name for name in names if getattr(args, name) is not None]
    if unused:
        raise InvalidInput("; ".join(f"{command} does not use --{name}" for name in unused))


def _cmd_solve(args) -> int:
    if args.steps is not None:
        _reject_unused(args, "solve --steps", ("h1", "epus"))
    problem = ingest_problem(args.problem)
    config = _config_from_args(args)
    traj = run_solve(problem, config, args.out)
    last = traj.records[-1]
    print(f"{len(traj.records)} steps, final t={last.t:g}, final rank {traj.final.rank}")
    return EXIT_OK


# The RunConfig or StudySpec setting each study flag sets.  A flag whose
# setting its study kind does not read (study._STUDY_SETTINGS) is an error,
# not a no-op.
_FLAG_SETTINGS = {
    "tols": "tolerances", "schemes": "schemes", "ladder": "ladder", "steps": "n_steps",
    "tol": "tol", "h1": "h1", "epus": "epus", "scheme": "scheme", "stages": "stages",
    "reference": "reference", "exp_tol": "exp_tol", "comp_tol": "comp_tol",
}


def _cmd_study(args) -> int:
    _reject_unused(args, f"study {args.kind}",
                   [flag for flag, setting in _FLAG_SETTINGS.items()
                    if setting not in _STUDY_SETTINGS[args.kind]])
    problem = ingest_problem(args.problem)
    if args.kind == "adaptivity":
        args.tol = 1e-2  # placeholder; the --tols list drives the sweep
        if args.h1 is None:
            args.h1 = problem.horizon / 20.0
    else:
        args.steps = 10  # placeholder; the ladder drives fixed-step studies
    config = _config_from_args(args)
    overrides = {}
    if args.schemes:
        overrides["schemes"] = _parse_list("--schemes", args.schemes, _scheme_entry)
    if args.ladder:
        overrides["ladder"] = _parse_list("--ladder", args.ladder, int)
    if args.tols:
        overrides["tolerances"] = _parse_list("--tols", args.tols, float)
    if args.reference:
        overrides["reference"] = args.reference
    study = StudySpec(**overrides)
    report = run_study(problem, study, config, args.kind, args.out)
    for p in report.paths:
        print(f"wrote {p}")
    for name, (slope, npts) in report.slopes.items():
        print(f"slope {name}: {slope:.3f} ({npts} points)")
    if report.failures:
        print(f"{len(report.failures)} run(s) failed; see summary.txt", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "solve": _cmd_solve,
        "study": _cmd_study,
    }
    try:
        return handlers[args.command](args)
    except IngestError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except DresplitError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
