"""Study execution: single solves, order/efficiency ladders, adaptivity sweeps.

The adaptivity sweep measures each accepted step's actual local error
against the same scheme re-run over that step with refine_substeps(spec)
equal substeps, enough to make the reference REFINE_GAIN times more
accurate than the step.

Every emitted number is traceable to a step record or a measured timing;
wall-clock columns are the only nondeterministic ones, and they sit in
dedicated columns so reports can be compared byte-wise without them.
"""

import csv
import json
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .adaptive import ControllerParams, Trajectory, integrate_adaptive, integrate_fixed
from .errors import DresplitError, InvalidInput, InvalidReference, StepSizeCollapse
from .expaction import ExpActionOptions
from .lowrank import CompressionOptions, LDLTFactor, combine, frob_norm, to_dense
from .oracle import dense_reference, relative_error
from .problems import _write_mm, to_dense_problem
from .schemes import SchemeSpec
from .subflows import ProblemData


_NUMBER = (int, float, type(None))
_FIELD_KINDS = (
    ("scheme", str, "a string"),
    ("stages", int, "an integer"),
    ("n_steps", (int, type(None)), "an integer"),
    ("tol", _NUMBER, "a number"),
    ("h1", _NUMBER, "a number"),
    ("epus", bool, "true or false"),
    ("exp_tol", (int, float), "a number"),
    ("comp_tol", _NUMBER, "a number"),
)


@dataclass(frozen=True)
class RunConfig:
    """One solver run: scheme, stepping mode and tolerances.

    Exactly one of n_steps (fixed) and tol (adaptive) must be set; adaptive
    runs also need h1.
    """

    scheme: str = "sym"
    stages: int = 2
    n_steps: int | None = None
    tol: float | None = None
    h1: float | None = None
    epus: bool = False
    exp_tol: float = 1e-10
    comp_tol: float | None = None

    def __post_init__(self):
        for name, kinds, what in _FIELD_KINDS:
            val = getattr(self, name)
            # bool is an int subclass: it passes only as epus.
            if not isinstance(val, kinds) or (isinstance(val, bool) and name != "epus"):
                raise InvalidInput(f"{name} must be {what}, got {val!r}")
        if (self.n_steps is None) == (self.tol is None):
            raise InvalidInput("exactly one of n_steps and tol must be set")
        if self.tol is not None and self.h1 is None:
            raise InvalidInput("adaptive runs need an initial step h1")
        # Written so that NaN fails the checks.
        for name in ("tol", "h1", "exp_tol"):
            val = getattr(self, name)
            if val is not None and not val > 0:
                raise InvalidInput(f"{name} must be positive, got {val}")
        if self.comp_tol is not None and not self.comp_tol >= 0:
            raise InvalidInput(f"comp_tol must be nonnegative, got {self.comp_tol}")

    @property
    def spec(self) -> SchemeSpec:
        return SchemeSpec(self.scheme, self.stages)

    def exp_opts(self) -> ExpActionOptions:
        return ExpActionOptions(rel_tol=self.exp_tol)

    def comp_opts(self) -> CompressionOptions:
        return CompressionOptions(rel_tol=self.comp_tol)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        """The config of a JSON object of field values; InvalidInput on text
        that is not JSON, on any other JSON value, on unknown keys, which it
        names, and on a value of the wrong type."""
        try:
            values = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"a run config is not JSON: {exc}") from None
        if not isinstance(values, dict):
            raise InvalidInput(f"a run config is a JSON object, got {type(values).__name__}")
        unknown = sorted(set(values) - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidInput(f"unknown run config keys: {', '.join(unknown)}")
        return cls(**values)


FIT_WINDOW = (1e-10, 1e-3)
REFINE_GAIN = 1000


def refine_substeps(spec: SchemeSpec) -> int:
    """The smallest m >= 2 with m**order >= REFINE_GAIN.

    m equal substeps of an order-p scheme leave about m**-p of one step's
    local error, so the refined reference is REFINE_GAIN times more accurate
    than the step it checks.  Integer arithmetic: no rounding at m**p.
    """
    m = 2
    while m**spec.order < REFINE_GAIN:
        m += 1
    return m


@dataclass(frozen=True)
class StudySpec:
    """What a study sweeps over and how errors are referenced.

    Order slopes are fitted to the errors inside FIT_WINDOW only; the
    adaptivity study measures each step against refine_substeps(spec)
    substeps of the same scheme.
    """

    schemes: tuple = (
        SchemeSpec("lie"),
        SchemeSpec("strang"),
        SchemeSpec("asym", 3),
        SchemeSpec("sym", 2),
        SchemeSpec("sym", 3),
    )
    ladder: tuple = (10, 20, 40, 80, 160, 320, 640, 1280)
    tolerances: tuple = (1e-1, 1e-2, 1e-3)
    reference: str = "oracle"

    def __post_init__(self):
        if len(self.ladder) < 3:
            raise InvalidInput("the step ladder needs at least 3 rungs for slope fits")
        if any(n < 1 for n in self.ladder):
            raise InvalidInput(f"ladder rungs must be >= 1, got {self.ladder}")
        # Written so that NaN fails the check.
        if not all(0 < tol < np.inf for tol in self.tolerances):
            raise InvalidInput(f"every tol must be positive and finite, got {self.tolerances}")
        if self.reference not in ("oracle", "finest"):
            raise InvalidInput(f"unknown reference policy {self.reference!r}")


@dataclass
class StudyReport:
    kind: str
    rows: list
    slopes: dict
    paths: list
    failures: list


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def _write_csv(path: Path, header, rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def scheme_label(spec: SchemeSpec) -> str:
    if spec.kind in ("lie", "strang"):
        return spec.kind
    return f"{spec.kind}{spec.stages}"


def fit_order(hs, errors, window) -> tuple:
    """Least-squares slope of log(error) vs log(h) inside the error window."""
    hs = np.asarray(hs, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    mask = np.isfinite(errors) & (errors >= window[0]) & (errors <= window[1])
    if mask.sum() < 2:
        return float("nan"), int(mask.sum())
    slope = np.polyfit(np.log(hs[mask]), np.log(errors[mask]), 1)[0]
    return float(slope), int(mask.sum())


def _factored_error(approx: LDLTFactor, ref: LDLTFactor) -> float:
    denom = frob_norm(ref)
    if denom == 0.0:
        raise InvalidReference("finest-run reference norm is zero")
    diff = combine([(1.0, approx), (-1.0, ref)], CompressionOptions(rel_tol=0.0))
    return frob_norm(diff) / denom


def _build_reference(problem: ProblemData, study: StudySpec, config: RunConfig):
    """(dense reference or None, factored reference or None)."""
    if study.reference == "oracle":
        return dense_reference(to_dense_problem(problem)), None
    best = max(study.schemes, key=lambda s: s.order)
    n_ref = 2 * max(study.ladder)
    traj = integrate_fixed(problem, best, n_ref, config.exp_opts(), config.comp_opts(),
                           store_factors=False)
    return None, traj.final


def run_fixed_ladder(problem: ProblemData, study: StudySpec, config: RunConfig):
    """Rows for the order/efficiency studies (one row per scheme per rung)."""
    dense_ref, factored_ref = _build_reference(problem, study, config)
    rows = []
    failures = []
    slopes = {}
    for spec in study.schemes:
        hs, errs = [], []
        for n in study.ladder:
            started = time.perf_counter()
            try:
                traj = integrate_fixed(problem, spec, n, config.exp_opts(),
                                       config.comp_opts(), store_factors=False)
            except DresplitError as exc:
                failures.append((scheme_label(spec), n, str(exc)))
                continue
            elapsed = time.perf_counter() - started
            if dense_ref is not None:
                err = relative_error(to_dense(traj.final), dense_ref)
            else:
                err = _factored_error(traj.final, factored_ref)
            max_rank = max(r.rank for r in traj.records)
            fresh = sum(r.fresh_quad_blocks for r in traj.records)
            h = problem.horizon / n
            rows.append([scheme_label(spec), spec.stages, n, h, err, max_rank,
                         fresh, elapsed])
            hs.append(h)
            errs.append(err)
        slopes[scheme_label(spec)] = fit_order(hs, errs, FIT_WINDOW)
    return rows, slopes, failures


def _refined_step_error(problem: ProblemData, spec: SchemeSpec, config: RunConfig,
                        start: LDLTFactor, h: float, accepted: LDLTFactor) -> float:
    """Local error of one accepted step, measured against a fixed-step
    refinement with refine_substeps(spec) equal substeps from the same start
    factor (the solver's own, so its core may have a round-off negative
    eigenvalue).  The reference is about REFINE_GAIN times more accurate
    than the step; below round-off the two errors cannot be told apart."""
    refined = integrate_fixed(
        problem._restarted(start, h), spec, refine_substeps(spec), config.exp_opts(),
        config.comp_opts(), store_factors=False,
    )
    diff = combine([(1.0, accepted), (-1.0, refined.final)],
                   CompressionOptions(rel_tol=0.0))
    return frob_norm(diff)


def run_adaptive_sweep(problem: ProblemData, study: StudySpec, config: RunConfig):
    """Per-tolerance adaptive runs with per-step actual-error refinement.

    Returns (summary rows, {tol: step rows}, failures).
    """
    spec = config.spec
    summary = []
    per_tol = {}
    failures = []
    for tol in study.tolerances:
        params = ControllerParams(tol=tol, epus=config.epus)
        started = time.perf_counter()
        try:
            traj = integrate_adaptive(
                problem, spec, config.h1, params, config.exp_opts(),
                config.comp_opts(), store_factors=True,
            )
        except DresplitError as exc:
            failures.append((scheme_label(spec), tol, str(exc)))
            continue
        elapsed = time.perf_counter() - started
        step_rows = []
        n_below = 0
        for i, rec in enumerate(traj.records):
            e_actual = _refined_step_error(
                problem, spec, config, traj.factors[i], rec.h, traj.factors[i + 1],
            )
            if config.epus:
                e_actual /= rec.h
            if e_actual <= rec.err_est:
                n_below += 1
            step_rows.append([i + 1, rec.t, rec.h, rec.err_est, e_actual,
                              rec.rank, rec.rejections, rec.fresh_quad_blocks,
                              rec.clamped, rec.min_core_eig])
        per_tol[tol] = step_rows
        n_steps = len(traj.records)
        summary.append([
            scheme_label(spec), tol, n_steps,
            sum(r.rejections for r in traj.records),
            sum(r.fresh_quad_blocks for r in traj.records),
            n_below / n_steps if n_steps else float("nan"),
            elapsed,
        ])
    return summary, per_tol, failures


FIXED_HEADER = ["scheme", "stages", "n_steps", "h", "rel_error", "max_rank",
                "fresh_quad_blocks", "wallclock_s"]
SLOPE_HEADER = ["scheme", "slope", "points_used"]
ADAPTIVE_SUMMARY_HEADER = ["scheme", "tol", "n_steps", "rejections",
                           "fresh_quad_blocks", "frac_actual_below_est",
                           "wallclock_s"]
ADAPTIVE_STEP_HEADER = ["step", "t", "h", "e_est", "e_actual", "rank",
                        "rejections", "fresh_quad_blocks", "clamped", "min_core_eig"]

# The settings each study kind reads, from its RunConfig and StudySpec.
_LADDER_SETTINGS = ("exp_tol", "comp_tol", "schemes", "ladder", "reference")
_STUDY_SETTINGS = {
    "order": _LADDER_SETTINGS,
    "efficiency": _LADDER_SETTINGS,
    "adaptivity": ("scheme", "stages", "h1", "epus", "exp_tol", "comp_tol", "tolerances"),
}


def run_study(problem: ProblemData, study: StudySpec, config: RunConfig,
              kind: str, out_dir) -> StudyReport:
    """Execute a study and emit its CSV report files.

    kind "order" and "efficiency" run the fixed-step ladder (order also fits
    slopes); "adaptivity" sweeps the tolerances with per-step records.
    config.json holds the settings the kind reads, from config and study.
    Per-run failures are logged in the report and do not abort the study.
    An unknown kind, or an adaptivity study of a scheme without an embedded
    estimate, raises InvalidInput before anything is written.
    """
    if kind not in ("order", "efficiency", "adaptivity"):
        raise InvalidInput(f"unknown study kind {kind!r}")
    if kind == "adaptivity" and config.spec.embedded_order is None:
        raise InvalidInput(
            f"an adaptivity study needs an additive scheme with >= 2 stages, "
            f"got {scheme_label(config.spec)}"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    settings = asdict(config) | asdict(study)
    (out / "config.json").write_text(
        json.dumps({name: settings[name] for name in _STUDY_SETTINGS[kind]}, indent=2) + "\n")
    paths = []
    if kind in ("order", "efficiency"):
        rows, slopes, failures = run_fixed_ladder(problem, study, config)
        paths.append(_write_csv(out / f"{kind}.csv", FIXED_HEADER, rows))
        if kind == "order":
            slope_rows = [[name, s, npts] for name, (s, npts) in slopes.items()]
            paths.append(_write_csv(out / "slopes.csv", SLOPE_HEADER, slope_rows))
        report = StudyReport(kind, rows, slopes, paths, failures)
    else:
        summary, per_tol, failures = run_adaptive_sweep(problem, study, config)
        paths.append(_write_csv(out / "adaptive_summary.csv",
                                ADAPTIVE_SUMMARY_HEADER, summary))
        for tol, step_rows in per_tol.items():
            name = f"adaptive_steps_tol{tol:g}.csv"
            paths.append(_write_csv(out / name, ADAPTIVE_STEP_HEADER, step_rows))
        report = StudyReport(kind, summary, {}, paths, failures)

    lines = [f"study: {kind}", f"rows: {len(report.rows)}"]
    for name, (slope, npts) in report.slopes.items():
        lines.append(f"slope {name}: {slope:.3f} ({npts} points)")
    for failure in report.failures:
        lines.append(f"FAILED run: {failure}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    return report


def _write_trajectory(out: Path, records) -> None:
    rows = [[i + 1, r.t, r.h, r.err_est, r.rank, r.rejections,
             r.fresh_quad_blocks, r.clamped, r.min_core_eig] for i, r in enumerate(records)]
    _write_csv(out / "trajectory.csv",
               ["step", "t", "h", "err_est", "rank", "rejections",
                "fresh_quad_blocks", "clamped", "min_core_eig"], rows)


def run_solve(problem: ProblemData, config: RunConfig, out_dir) -> Trajectory:
    """One solver run; writes trajectory.csv, the final factor and a summary.

    On StepSizeCollapse the accepted steps of the partial trajectory go to
    trajectory.csv and the summary gets a ``collapsed:`` line with the
    message; then the exception propagates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(config.to_json())
    started = time.perf_counter()
    try:
        if config.n_steps is not None:
            traj = integrate_fixed(
                problem, config.spec, config.n_steps, config.exp_opts(),
                config.comp_opts(),
            )
        else:
            params = ControllerParams(tol=config.tol, epus=config.epus)
            traj = integrate_adaptive(
                problem, config.spec, config.h1, params, config.exp_opts(),
                config.comp_opts(),
            )
    except StepSizeCollapse as exc:
        records = exc.trajectory.records if exc.trajectory is not None else []
        _write_trajectory(out, records)
        (out / "summary.txt").write_text(
            f"steps: {len(records)}\ncollapsed: {exc}\n"
            f"wallclock_s: {time.perf_counter() - started!r}\n"
        )
        raise
    elapsed = time.perf_counter() - started

    _write_trajectory(out, traj.records)
    _write_mm(out / "final_L.mtx", traj.final.L)
    _write_mm(out / "final_D.mtx", traj.final.D)
    (out / "summary.txt").write_text(
        f"steps: {len(traj.records)}\nfinal rank: {traj.final.rank}\n"
        f"wallclock_s: {elapsed!r}\n"
    )
    return traj
