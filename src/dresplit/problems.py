"""Problem generation, MatrixMarket ingestion, and export.

A problem on disk is a directory with a ``problem.json`` manifest naming
MatrixMarket files.  Two layouts are supported: the control form (A, B, C
with optional Rx / Ru_inv, building Q = C^T Rx C and S = B Ru_inv B^T) and
the factored form (A, Q_L, Q_D and a dense/sparse S).  The initial factor is
optional and defaults to zero.  All writes use 17 significant digits so a
round trip reproduces every stored entry bit for bit.
"""

import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import IngestError, InvalidInput
from .expaction import StiffOperator
from .lowrank import LDLTFactor, to_dense
from .oracle import DenseProblem
from .subflows import ProblemData, QuadraticTerm

MANIFEST_NAME = "problem.json"
_MM_PRECISION = 17  # significant digits; exact float64 round trip


def generate_problem(kind: str, n: int, rank: int = 4, seed: int = 0,
                     horizon: float | None = None) -> ProblemData:
    """Reproducible test problems.

    random_lowrank: dense random operator with rank-``rank`` PSD source,
    quadratic term and initial value (the small-scale order-study setup).
    laplacian_lqr: stiff 1-D finite-difference Laplacian with low-rank input
    and output maps and a zero initial factor.
    """
    if n < 1:
        raise InvalidInput(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    if kind == "random_lowrank":
        horizon = 1.0 if horizon is None else horizon
        a = rng.standard_normal((n, n))
        r = min(rank, n)
        q_l = rng.standard_normal((n, r))
        s_l = rng.standard_normal((n, r))
        p0_l = rng.standard_normal((n, r))
        return ProblemData(
            a=StiffOperator(a),
            q=LDLTFactor(q_l, np.eye(r)),
            s=QuadraticTerm.from_dense(s_l @ s_l.T),
            p0=LDLTFactor(p0_l, np.eye(r)),
            horizon=horizon,
        )
    if kind == "laplacian_lqr":
        horizon = 0.1 if horizon is None else horizon
        dx = 1.0 / (n + 1)
        main = -2.0 * np.ones(n) / dx**2
        off = np.ones(n - 1) / dx**2
        a = sp.diags([off, main, off], [-1, 0, 1], format="csr")
        m = max(1, min(rank, n))
        cols = np.linspace(0, n - 1, m).round().astype(int)
        b = np.zeros((n, m))
        b[cols, np.arange(m)] = 1.0
        c = np.zeros((m, n))
        c[np.arange(m), cols[::-1]] = 1.0
        return ProblemData(
            a=StiffOperator(a),
            q=LDLTFactor(c.T, np.eye(m)),
            s=QuadraticTerm.from_lowrank(b),
            p0=LDLTFactor.zero(n),
            horizon=horizon,
        )
    raise InvalidInput(f"unknown problem kind {kind!r}")


def to_dense_problem(problem: ProblemData) -> DenseProblem:
    """Dense mirror for oracle comparisons (desk scale only)."""
    return DenseProblem(
        a=problem.a.as_dense(),
        q=to_dense(problem.q),
        s=problem.s.as_dense(),
        p0=to_dense(problem.p0),
        horizon=problem.horizon,
    )


def _write_mm(path: Path, matrix) -> None:
    import scipy.io  # loaded on first use: solves never need it
    scipy.io.mmwrite(str(path), matrix if sp.issparse(matrix) else np.asarray(matrix),
                     precision=_MM_PRECISION)


def _read_mm(path: Path):
    if not path.is_file():
        raise IngestError(f"{path}: file not found")
    with open(path) as fh:
        first = fh.readline()
    if not first.startswith("%%MatrixMarket"):
        raise IngestError(
            f"{path}: line 1 is not a MatrixMarket header (got {first.strip()!r})"
        )
    import scipy.io  # loaded on first use: solves never need it
    try:
        matrix = scipy.io.mmread(str(path))
    except Exception as exc:
        raise IngestError(f"{path}: {exc}") from exc
    if not np.isfinite(matrix.data if sp.issparse(matrix) else matrix).all():
        raise IngestError(f"{path}: non-finite entries")
    return matrix


def _read_dense(path: Path) -> np.ndarray:
    m = _read_mm(path)
    return m.toarray() if sp.issparse(m) else np.asarray(m, dtype=np.float64)


def export_problem(problem: ProblemData, out_dir) -> Path:
    """Write a problem directory (factored-form manifest)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {"A": "A.mtx", "Q_L": "Q_L.mtx", "Q_D": "Q_D.mtx", "S": "S.mtx"}
    _write_mm(out / "A.mtx", problem.a.matrix)
    _write_mm(out / "Q_L.mtx", problem.q.L)
    _write_mm(out / "Q_D.mtx", problem.q.D)
    _write_mm(out / "S.mtx", problem.s.as_dense())
    if problem.p0.rank:
        files["P0_L"] = "P0_L.mtx"
        files["P0_D"] = "P0_D.mtx"
        _write_mm(out / "P0_L.mtx", problem.p0.L)
        _write_mm(out / "P0_D.mtx", problem.p0.D)
    manifest = {"form": "factored", "n": problem.n, "horizon": problem.horizon,
                "files": files}
    (out / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")
    return out / MANIFEST_NAME


def ingest_problem(path) -> ProblemData:
    """Read a problem directory (or manifest path) into solver form.

    Errors carry the offending file name, or the manifest and its key;
    dimension mismatches name both sides.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME if path.is_dir() else path
    if not manifest_path.exists():
        raise IngestError(f"{manifest_path}: manifest not found")
    base = manifest_path.parent
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise IngestError(f"{manifest_path}: invalid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise IngestError(f"{manifest_path}: manifest is not a JSON object")
    for key in ("form", "horizon", "files"):
        if key not in manifest:
            raise IngestError(f"{manifest_path}: manifest lacks required key {key!r}")
    files = manifest["files"]
    if not isinstance(files, dict):
        raise IngestError(f"{manifest_path}: 'files' is not a JSON object")
    try:
        horizon = float(manifest["horizon"])
    except (TypeError, ValueError) as exc:
        raise IngestError(
            f"{manifest_path}: 'horizon' is not a number ({manifest['horizon']!r})"
        ) from exc

    def fpath(key):
        if not (isinstance(files.get(key), str) and files[key]):
            raise IngestError(f"{manifest_path}: 'files' has no file name for {key!r}")
        return base / files[key]

    def build(key, make, *args):
        """make(*args), with a rejected argument reported against file key."""
        try:
            return make(*args)
        except InvalidInput as exc:
            raise IngestError(f"{fpath(key)}: {exc}") from exc

    a_raw = _read_mm(fpath("A"))
    a = build("A", StiffOperator,
              a_raw if sp.issparse(a_raw) else np.asarray(a_raw, dtype=np.float64))
    n = a.n

    form = manifest["form"]
    if form == "control":
        b = _read_dense(fpath("B"))
        c = _read_dense(fpath("C"))
        if b.ndim == 1:
            b = b.reshape(-1, 1)
        if c.ndim == 1:
            c = c.reshape(1, -1)
        if b.shape[0] != n:
            raise IngestError(f"{fpath('B')}: {b.shape[0]} rows, operator dimension is {n}")
        if c.shape[1] != n:
            raise IngestError(f"{fpath('C')}: {c.shape[1]} columns, operator dimension is {n}")
        rx = _read_dense(fpath("Rx")) if files.get("Rx") else np.eye(c.shape[0])
        ru_inv = _read_dense(fpath("Ru_inv")) if files.get("Ru_inv") else None
        q = build("Rx" if files.get("Rx") else "C", LDLTFactor, c.T, rx)
        s_op = build("Ru_inv" if files.get("Ru_inv") else "B",
                     QuadraticTerm.from_lowrank, b, ru_inv)
    elif form == "factored":
        q_l = _read_dense(fpath("Q_L"))
        q_d = _read_dense(fpath("Q_D"))
        if q_l.shape[0] != n:
            raise IngestError(f"{fpath('Q_L')}: {q_l.shape[0]} rows, operator dimension is {n}")
        q = build("Q_D", LDLTFactor, q_l, q_d)
        s_raw = _read_mm(fpath("S"))
        s_op = build("S", QuadraticTerm.from_sparse if sp.issparse(s_raw)
                     else QuadraticTerm.from_dense, s_raw)
        if s_op.n != n:
            raise IngestError(f"{fpath('S')}: dimension {s_op.n}, operator dimension is {n}")
    else:
        raise IngestError(f"{manifest_path}: unknown problem form {form!r}")

    if files.get("P0_L"):
        p0_l = _read_dense(fpath("P0_L"))
        p0_d = _read_dense(fpath("P0_D")) if files.get("P0_D") else np.eye(p0_l.shape[1])
        if p0_l.shape[0] != n:
            raise IngestError(f"{fpath('P0_L')}: {p0_l.shape[0]} rows, operator dimension is {n}")
        p0 = build("P0_D" if files.get("P0_D") else "P0_L", LDLTFactor, p0_l, p0_d)
    else:
        p0 = LDLTFactor.zero(n)

    try:
        return ProblemData(a=a, q=q, s=s_op, p0=p0, horizon=horizon)
    except InvalidInput as exc:
        raise IngestError(f"{manifest_path}: {exc}") from exc
