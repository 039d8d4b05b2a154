"""Synthetic generators, CSV ingestion, target encoding, cross-validation."""
from __future__ import annotations

import csv
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .activations import ActivationKind
from .errors import (CsvParseError, InvalidArgumentError, _check_bool, _check_int,
                     _check_real, _check_sequence, _check_text, _check_type)
from .linalg import _PATH, _write_csv, as_array, sse
from .network import NetworkSpec, forward
from .parallel import map_jobs
from .training import TrainConfig, train

__all__ = [
    "Dataset",
    "CvPlan",
    "CvResult",
    "gen_regression",
    "gen_spiral",
    "load_csv",
    "stratified_kfold",
    "accuracy",
    "training_targets",
    "cv_search",
    "write_dataset_csv",
]

_MISSING = {"", "?", "na", "nan"}


@dataclass(frozen=True, eq=False)
class Dataset:
    """Read-only float64 views x and y, and class_labels None or a tuple
    of one str per column of y, validated once at construction. Arrays do
    not compare or hash like values, so Datasets compare by identity."""

    x: np.ndarray
    y: np.ndarray
    class_labels: Optional[Tuple[str, ...]] = None
    kind: str = "regression"

    def __post_init__(self):
        _check_text("kind", self.kind, ("regression", "classification"))
        for name in ("x", "y"):
            view = as_array(getattr(self, name), name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)
        if self.x.shape[0] != self.y.shape[0]:
            raise InvalidArgumentError("x and y must have the same row count")
        if self.class_labels is not None:
            object.__setattr__(self, "class_labels",
                               _check_sequence("class_labels", self.class_labels, "str"))
            for i, label in enumerate(self.class_labels):
                _check_text(f"class_labels[{i}]", label)
            if len(self.class_labels) != self.y.shape[1]:
                raise InvalidArgumentError("class_labels length must equal y's column count")
        if self.kind == "classification":
            ya = self.y
            # each row must name exactly one class: a unique maximal entry
            top = ya.max(axis=1, keepdims=True)
            if not ((ya == top).sum(axis=1) == 1).all():
                raise InvalidArgumentError(
                    "classification targets must have one maximal entry per row"
                )

    @property
    def labels(self) -> np.ndarray:
        """Encoded class index per row (classification only)."""
        if self.kind != "classification":
            raise InvalidArgumentError("labels are defined for classification data")
        return self.y.argmax(axis=1)

    def __reduce__(self):
        # rebuilt through the constructor, so an unpickled copy (as a
        # worker process receives it) is validated and read-only again
        return (Dataset, (self.x, self.y, self.class_labels, self.kind))

    def subset(self, indices) -> "Dataset":
        """The rows at indices, a non-empty 1-D int array or sequence of row
        numbers 0..m-1 (no bools, floats or negative numbers)."""
        try:
            idx = np.asarray(indices)
        except (TypeError, ValueError):  # a ragged nesting, rejected below
            idx = np.asarray(None)
        m = len(self.x)
        if not (idx.ndim == 1 and idx.size and np.issubdtype(idx.dtype, np.integer)
                and idx.min() >= 0 and idx.max() < m):
            raise InvalidArgumentError(f"indices must be a non-empty 1-D sequence of "
                                       f"ints in 0..{m - 1}, got a {type(indices).__name__}")
        return Dataset(self.x[idx], self.y[idx], self.class_labels, self.kind)


@dataclass(frozen=True)
class CvPlan:
    folds: int = 10
    trials: int = 10
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        _check_int("folds", self.folds, 2)
        _check_int("trials", self.trials, 1)
        _check_int("seed", self.seed, 0)
        _check_bool("stratified", self.stratified)


def _sinc2(x: np.ndarray) -> np.ndarray:
    return np.sin(2.0 * x) / (2.0 * x)


def gen_regression(noisy_sets: int = 0, noise_frac: float = 0.0, seed: int = 0):
    """The curve y = sin(2x)/(2x).

    Train sets: the 8 clean points x = 1..8, plus `noisy_sets` copies with
    additive uniform noise of amplitude noise_frac times the clean target
    range. Test set: the 721-point grid x = 0.90, 0.91, ..., 8.10 with
    clean targets. Returns (list of train Datasets, test Dataset).
    """
    _check_int("noisy_sets", noisy_sets, 0)
    _check_int("seed", seed, 0)
    _check_real("noise_frac", noise_frac, 0)
    x = np.arange(1.0, 9.0).reshape(-1, 1)
    y = _sinc2(x)
    amp = noise_frac * float(y.max() - y.min())
    # the draws span [-amp, amp], whose width must be a finite float too
    if not math.isfinite(2.0 * amp):
        raise InvalidArgumentError(f"noise_frac {noise_frac!r} gives an infinite noise span")
    trains = [Dataset(x, y)]
    rng = np.random.default_rng(seed)
    for _ in range(noisy_sets):
        noisy = y + rng.uniform(-amp, amp, y.shape)
        trains.append(Dataset(x, noisy))
    xt = np.linspace(0.90, 8.10, 721).reshape(-1, 1)
    test = Dataset(xt, _sinc2(xt))
    return trains, test


def gen_spiral(arms: int, per_arm: int, noise: float = 0.3, seed: int = 0):
    """Multi-arm planar spiral, one class per arm.

    Sample i of arm a sits at radius i/per_arm and angle
    2*pi*i/per_arm + 2*pi*a/arms + noise*u, u uniform on [0, 1). Within
    each arm, odd sample indices go to train and even ones to test
    (alternating half/half); index 0 of every arm is the origin, so the
    contradictory coincident points all land in the test split.
    Targets are 0/1 one-hot. Returns (train, test).
    """
    _check_int("arms", arms, 1)
    _check_int("per_arm", per_arm, 2)
    if per_arm % 2:
        raise InvalidArgumentError(f"per_arm must be even, got {per_arm}")
    _check_int("seed", seed, 0)
    _check_real("noise", noise)
    rng = np.random.default_rng(seed)
    pts = np.empty((arms * per_arm, 2))
    labels = np.empty(arms * per_arm, dtype=int)
    i = np.arange(per_arm)
    radius = i / per_arm
    for a in range(arms):
        theta = (
            2.0 * np.pi * i / per_arm
            + 2.0 * np.pi * a / arms
            + noise * rng.uniform(size=per_arm)
        )
        rows = slice(a * per_arm, (a + 1) * per_arm)
        pts[rows, 0] = radius * np.cos(theta)
        pts[rows, 1] = radius * np.sin(theta)
        labels[rows] = a
    names = tuple(f"arm{a}" for a in range(arms))
    to_train = np.tile(i % 2 == 1, arms)
    y, _ = _encode_targets(labels.tolist())
    train_ds = Dataset(pts[to_train], y[to_train], names, "classification")
    test_ds = Dataset(pts[~to_train], y[~to_train], names, "classification")
    return train_ds, test_ds


def _read_cell(cell: str):
    """A stripped cell as None if it is a missing token (in any case), else
    as its float, else as its text."""
    if cell.lower() in _MISSING:
        return None
    try:
        return float(cell)
    except ValueError:
        return cell


def _not_utf8(path) -> Optional[CsvParseError]:
    """The CsvParseError for a file that is not UTF-8, naming the file line
    of its first bad byte, or None if the file now decodes. The decoder
    reads in chunks, so the line is counted here from the byte offset;
    lines end at \\r\\n, \\r or \\n, as csv.reader counts them."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(re.findall(rb"\r\n?|\n", raw[:exc.start])) + 1
        return CsvParseError(f"line {line}: byte {raw[exc.start]:#04x} at offset "
                             f"{exc.start} is not UTF-8", line=line)
    return None


def load_csv(path, label_column=-1, header: bool = False,
             missing_policy: str = "drop", kind: str = "classification") -> Dataset:
    """Read a delimited UTF-8 dataset file; a leading byte-order mark is
    skipped, and a byte that is not UTF-8 raises CsvParseError naming its
    file line.

    Each cell is read once, stripped of spaces, as missing (empty, "?",
    "NA" or "NaN", in any case), a float, or text. A column is numeric
    when none of its present cells is text; non-numeric feature columns
    are one-hot expanded over their sorted categories. Rows with missing
    cells are dropped or mean-imputed per missing_policy; imputation
    applies to numeric columns only, and missing categorical or label
    cells always drop the row. A kept number that is not finite ("inf",
    "1e999", "-nan") raises CsvParseError naming its file line and column,
    and so does mean-imputing a numeric column none of whose kept cells is
    present, naming the column (its header name, else its index).
    label_column is an index (negative allowed) or, with header=True, a
    column name. kind "classification" one-hot encodes the labels;
    "regression" parses them as float targets; "auto" picks regression
    when every present label cell parses as a float, over all data rows,
    and classification otherwise.
    """
    _check_type("path", path, _PATH)
    _check_bool("header", header)
    _check_text("missing_policy", missing_policy, ("drop", "mean-impute"))
    _check_text("kind", kind, ("classification", "regression", "auto"))
    rows: List[List[str]] = []  # the stripped cells of each data row
    cells: List[list] = []  # the same cells, each read once by _read_cell
    line_nos: List[int] = []  # the 1-based file line of each data row
    names: Optional[List[str]] = None
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                # the file line the record ends on, also past quoted newlines
                line_no = reader.line_num
                if not row:
                    continue
                row = [c.strip() for c in row]
                if header and names is None:
                    names = row
                    continue
                if rows and len(row) != len(rows[0]):
                    raise CsvParseError(f"line {line_no}: expected {len(rows[0])} fields, "
                                        f"got {len(row)}", line=line_no)
                rows.append(row)
                cells.append([_read_cell(c) for c in row])
                line_nos.append(line_no)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path) or exc from None
    if not rows:
        raise CsvParseError("no data rows", line=1)
    ncols = len(rows[0])
    if names is not None and len(names) != ncols:
        raise CsvParseError("header width does not match data width", line=1)
    if ncols < 2:
        raise CsvParseError(f"line {line_nos[0]}: expected at least 2 fields, got 1",
                            line=line_nos[0])

    if isinstance(label_column, str):
        if names is None:
            raise InvalidArgumentError("label_column by name requires header=True")
        _check_text("label_column", label_column, names)
        label_idx = names.index(label_column)
    else:
        _check_int("label_column", label_column)
        if not -ncols <= label_column < ncols:
            raise InvalidArgumentError(f"label column {label_column} out of range "
                                       f"for {ncols} columns")
        label_idx = int(label_column) % ncols

    feat_idx = [j for j in range(ncols) if j != label_idx]
    numeric = [not any(isinstance(v, str) for v in col) for col in zip(*cells)]
    if kind == "auto":
        kind = "regression" if numeric[label_idx] else "classification"
    # a row needs its label and categorical cells, and under "drop" all cells
    needed = [label_idx] + [j for j in feat_idx
                            if missing_policy == "drop" or not numeric[j]]
    keep = [i for i, r in enumerate(cells) if all(r[j] is not None for j in needed)]
    if not keep:
        raise CsvParseError("every row was dropped", line=1)

    def column(j) -> str:
        return f"column {names[j] if names else j!r}"

    def numbers(j) -> np.ndarray:
        """The kept cells of numeric column j as floats, missing ones imputed."""
        vals = np.array([cells[i][j] for i in keep], dtype=float)  # None reads as nan
        for k in np.flatnonzero(~np.isfinite(vals)):
            i = keep[k]
            if cells[i][j] is not None:
                raise CsvParseError(f"line {line_nos[i]}: non-finite number "
                                    f"{rows[i][j]!r} in {column(j)}", line=line_nos[i])
        gaps = np.isnan(vals)
        if gaps.all():
            raise CsvParseError(f"{column(j)} has no present cell to mean-impute")
        return np.where(gaps, float(np.nanmean(vals)), vals)

    if kind == "regression":
        for i in keep:
            if isinstance(cells[i][label_idx], str):
                raise CsvParseError(f"line {line_nos[i]}: non-numeric regression "
                                    f"target {rows[i][label_idx]!r}", line=line_nos[i])
        y, classes = numbers(label_idx).reshape(-1, 1), None
    else:
        y, classes = _encode_targets([rows[i][label_idx] for i in keep])
    x = np.hstack([numbers(j).reshape(-1, 1) if numeric[j]
                   else _encode_targets([rows[i][j] for i in keep])[0]
                   for j in feat_idx])
    return Dataset(x, y, classes, kind)


def _encode_targets(labels: Sequence) -> Tuple[np.ndarray, tuple]:
    """The 1/0 one-hot matrix of labels over their sorted distinct values,
    and those values as a tuple; the callers never pass zero labels.
    (np.unique would merge texts that differ only in trailing NULs.)"""
    classes = sorted(set(labels))
    index = {c: j for j, c in enumerate(classes)}
    y = np.zeros((len(labels), len(classes)))
    y[np.arange(len(labels)), [index[c] for c in labels]] = 1.0
    return y, tuple(classes)


def stratified_kfold(ds: Dataset, plan: CvPlan):
    """Fold partition as a list of (train_indices, test_indices).

    Stratified classification shuffles within each class and deals samples
    round-robin, staggering the start fold across classes so remainders
    spread out; per-fold class counts stay within one of proportional.
    Classes smaller than the fold count simply miss some folds.
    Unstratified (or regression) data is dealt the same way as one class.
    """
    _check_type("ds", ds, Dataset)
    _check_type("plan", plan, CvPlan)
    m = ds.x.shape[0]
    if plan.folds > m:
        raise InvalidArgumentError(f"folds={plan.folds} exceeds samples={m}")
    rng = np.random.default_rng(plan.seed)
    assign = np.empty(m, dtype=int)
    labels = (ds.labels if plan.stratified and ds.kind == "classification"
              else np.zeros(m, dtype=int))
    pos = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        for j, ix in enumerate(idx):
            assign[ix] = (pos + j) % plan.folds
        pos += idx.size
    return [
        (np.flatnonzero(assign != k), np.flatnonzero(assign == k))
        for k in range(plan.folds)
    ]


def accuracy(pred, truth: Dataset) -> float:
    """Fraction of rows whose argmax matches the encoded class; numpy's
    argmax breaks ties toward the lowest index."""
    p = as_array(pred, "pred")
    _check_type("truth", truth, Dataset)
    if p.shape != truth.y.shape:
        raise InvalidArgumentError(
            f"prediction shape {p.shape} != target shape {truth.y.shape}"
        )
    return float(np.mean(p.argmax(axis=1) == truth.labels))


def _expand_template(template: str, h: int, q: int) -> Tuple[int, ...]:
    """Widths from a template like "h-q", "2h-h-q" or "8h-4h-2h-h-q";
    `cv_search` has checked the template text and h, and q is a column
    count."""
    widths = []
    for tok in template.strip().split("-"):
        t = tok.strip()
        if t == "q":
            widths.append(q)
        elif t == "h":
            widths.append(h)
        elif t.endswith("h") and t[:-1].isdigit():
            widths.append(int(t[:-1]) * h)
        elif t.isdigit():
            widths.append(int(t))
        else:
            raise InvalidArgumentError(f"bad template token {t!r} in {template!r}")
    if not widths or any(w < 1 for w in widths):
        raise InvalidArgumentError(f"template {template!r} expands to {widths}")
    return tuple(widths)


def training_targets(ds: Dataset, linear_output: bool) -> np.ndarray:
    """Targets as the solver needs them: classification labels re-encoded
    to 0.9/0.1 when the output activation must be inverted, raw otherwise.
    The encoding keeps every column of ds.y, so a subset that misses a
    class still has one target column per output unit."""
    _check_type("ds", ds, Dataset)
    _check_bool("linear_output", linear_output)
    if ds.kind == "classification" and not linear_output:
        y = np.full(ds.y.shape, 0.1)
        y[np.arange(len(y)), ds.labels] = 0.9
        return y
    return ds.y


@dataclass(frozen=True)
class CvResult:
    h: int
    template: str
    mean_accuracy: float
    per_trial_accuracies: Tuple[float, ...]
    accuracy_grid: Tuple[Tuple[float, ...], ...]
    selections: Tuple[Tuple[str, int], ...]


def _spec_for(ds: Dataset, template: str, h: int,
              activation: ActivationKind, linear_output: bool) -> NetworkSpec:
    q = ds.y.shape[1]
    widths = _expand_template(template, h, q)
    if widths[-1] != q:
        raise InvalidArgumentError(
            f"template {template!r} must end at the target width {q}"
        )
    return NetworkSpec(ds.x.shape[1], widths, activation, linear_output)


def _split(ds: Dataset, tr_idx, te_idx, linear_output: bool):
    """One fold: (training Dataset, its solver targets, held-out Dataset)."""
    tr = ds.subset(tr_idx)
    return tr, training_targets(tr, linear_output), ds.subset(te_idx)


def _fit_score(fold, spec: NetworkSpec, cfg: TrainConfig) -> float:
    """Higher-is-better score of a fit on a fold's training part against
    its held-out part: accuracy for classification, negative SSE for
    regression."""
    tr, t, held = fold
    report = train(spec, tr.x, t, cfg)
    pred = forward(spec, report.weights, held.x)
    if held.kind == "classification":
        return accuracy(pred, held)
    return -sse(pred, held.y)


def _inner_mean(folds, spec: NetworkSpec, cfg: TrainConfig, top: float,
                best: Optional[Tuple[float, np.ndarray]]
                ) -> Optional[Tuple[float, np.ndarray]]:
    """(mean score, per-fold scores) of one candidate over the inner
    folds, or None as soon as it can no longer exceed the best mean by
    more than 1e-12.

    `best` is None for the first candidate, which is scored in fold
    order, or the best candidate's (mean, per-fold scores). Later
    candidates score the folds hardest first, in ascending order of the
    best's scores (ties in fold order), so a losing candidate shows its
    deficit, and stops, early. Each score goes to its own fold's place
    in a fixed-length array whose unscored places hold the ceiling
    `top`; np.mean sums that array in fold order and rounding is
    monotone, so the bound is at least the mean the remaining folds
    would give, also in floating point: a candidate stopped early could
    not have been selected. A candidate that scores every fold has the
    mean of its scores in fold order, whatever order they were taken in.
    """
    scores = np.full(len(folds), top)
    order = range(len(folds)) if best is None else np.argsort(best[1], kind="stable")
    for i in order:
        scores[i] = _fit_score(folds[i], spec, cfg)
        if best is not None and not float(np.mean(scores)) > best[0] + 1e-12:
            return None
    return float(np.mean(scores)), scores


def _outer_fold(ds: Dataset, candidates, plan: CvPlan, cfg: TrainConfig,
                linear_output: bool, trial: int, f: int, tr_idx, te_idx):
    """One outer (trial, fold) of cv_search: select a candidate by the
    inner k-fold on the training portion, then score it on the held-out
    part. Returns ((template, h), held-out score)."""
    top = 1.0 if ds.kind == "classification" else 0.0
    fold = _split(ds, tr_idx, te_idx, linear_output)
    tr_ds = fold[0]
    inner_folds = min(plan.folds, tr_ds.x.shape[0])
    inner = stratified_kfold(
        tr_ds,
        CvPlan(inner_folds, 1, plan.seed + 7919 * trial + 104729 * f,
               plan.stratified),
    )
    folds = [_split(tr_ds, i_tr, i_te, linear_output) for i_tr, i_te in inner]
    best = None
    for tmpl, h, spec in candidates:
        scored = _inner_mean(folds, spec, cfg, top, None if best is None else best[0])
        if scored is not None:
            best = (scored, tmpl, h, spec)
    _, tmpl, h, spec = best
    return (tmpl, h), _fit_score(fold, spec, cfg)


def cv_search(ds: Dataset, templates: Sequence[str], h_grid: Sequence[int],
              plan: CvPlan, cfg: TrainConfig, activation: ActivationKind,
              linear_output: bool = False) -> CvResult:
    """Nested cross-validated width selection.

    For every outer (trial, fold), an inner k-fold on the training portion
    scores each distinct (template, h) candidate; the candidate with the
    highest inner mean score (ties toward smaller h, then earlier
    template) trains on the full training portion and is scored on the
    held-out fold. The reported h/template is the most frequent selection.
    Scores are accuracies for classification data and negative SSE for
    regression.

    Candidates are scored fold by fold, and a candidate stops as soon as
    its mean could not exceed the best so far even if every remaining
    inner fold scored the ceiling (accuracy 1, or SSE 0). After the first
    candidate, the hardest inner folds go first: those where the best
    candidate so far scored lowest, so a losing candidate stops after
    few fits. The result is that of scoring every fold; only fits that
    cannot change the selection are skipped, so an error a skipped fit
    would raise (for example a domain violation with clamp_margin=0) is
    not raised.

    h_grid is a non-empty sequence of ints >= 1 and templates a non-empty
    sequence of str, a 1-D array of either included.

    The outer (trial, fold) jobs are independent and fully seeded, so
    they run in worker processes with one BLAS thread each, one per usable
    core (see parallel.map_jobs); with a single usable core they run in
    this process. The workers start on the first call that needs them and
    serve the later calls of this process. The result equals that of an
    in-process run under a one-thread BLAS, whatever the worker count, and
    an error is the one the in-process loop raises.
    """
    _check_type("ds", ds, Dataset)
    _check_type("plan", plan, CvPlan)
    _check_type("cfg", cfg, TrainConfig)
    _check_type("activation", activation, ActivationKind)
    h_grid = _check_sequence("h_grid", h_grid, "ints")
    templates = _check_sequence("templates", templates, "templates")
    for tmpl in templates:
        _check_text("template", tmpl)
    templates = list(dict.fromkeys(map(str, templates)))
    for h in h_grid:
        _check_int("h", h, 1)
    # candidate order doubles as the tie-break: smaller h, earlier template
    candidates = [
        (tmpl, h, _spec_for(ds, tmpl, h, activation, linear_output))
        for h in sorted({int(h) for h in h_grid}) for tmpl in templates
    ]
    jobs = []
    for trial in range(plan.trials):
        outer = stratified_kfold(
            ds, CvPlan(plan.folds, 1, plan.seed + trial, plan.stratified)
        )
        jobs += [(ds, candidates, plan, cfg, linear_output, trial, f, tr_idx, te_idx)
                 for f, (tr_idx, te_idx) in enumerate(outer)]
    done = map_jobs(_outer_fold, jobs)
    selections = [selection for selection, _ in done]
    grid = np.array([score for _, score in done]).reshape(plan.trials, plan.folds)
    counts = Counter(selections)
    best_tmpl, best_h = min(
        counts, key=lambda cand: (-counts[cand], cand[1], templates.index(cand[0]))
    )
    return CvResult(
        h=best_h,
        template=best_tmpl,
        mean_accuracy=float(grid.mean()),
        per_trial_accuracies=tuple(float(v) for v in grid.mean(axis=1)),
        accuracy_grid=tuple(tuple(float(v) for v in row) for row in grid),
        selections=tuple(selections),
    )


def _csv_field(text: str) -> str:
    """text as one CSV field: quoted, with its quotes doubled, when it holds
    a comma, a quote or a line break, and as is otherwise."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_dataset_csv(ds: Dataset, path) -> None:
    """Features at full precision plus a trailing label column (class name
    for classification, numeric target otherwise). No header."""
    _check_type("ds", ds, Dataset)
    if ds.kind == "regression":
        _write_csv(path, np.hstack([ds.x, ds.y]))
    else:
        names = [_csv_field(name) for name in
                 ds.class_labels or tuple(str(j) for j in range(ds.y.shape[1]))]
        _write_csv(path, ds.x, [names[k] for k in ds.labels])
