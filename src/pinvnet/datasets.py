"""Synthetic generators, CSV ingestion, target encoding, cross-validation."""
from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .activations import ActivationKind
from .errors import CsvParseError, InvalidArgumentError, InvalidConfigurationError
from .linalg import as_array, sse
from .network import NetworkSpec, build_spec, forward
from .parallel import map_jobs
from .training import TrainConfig, train

__all__ = [
    "Dataset",
    "CvPlan",
    "CvResult",
    "gen_regression",
    "gen_spiral",
    "load_csv",
    "encode_targets",
    "stratified_kfold",
    "accuracy",
    "expand_template",
    "training_targets",
    "cv_search",
    "write_dataset_csv",
]

_MISSING = {"", "?", "na", "nan"}


@dataclass(frozen=True, eq=False)
class Dataset:
    """Features x and targets y as read-only float64 views, validated
    once at construction. Array fields do not compare or hash like
    values, so Datasets compare by identity."""

    x: np.ndarray
    y: np.ndarray
    class_labels: Optional[Tuple[str, ...]] = None
    kind: str = "regression"

    def __post_init__(self):
        if self.kind not in ("regression", "classification"):
            raise InvalidArgumentError(f"unknown dataset kind {self.kind!r}")
        for name in ("x", "y"):
            view = as_array(getattr(self, name), name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)
        if self.x.shape[0] != self.y.shape[0]:
            raise InvalidArgumentError("x and y must have the same row count")
        if self.kind == "classification":
            ya = self.y
            # each row must name exactly one class: a unique maximal entry
            top = ya.max(axis=1, keepdims=True)
            if not ((ya == top).sum(axis=1) == 1).all():
                raise InvalidArgumentError(
                    "classification targets must have one maximal entry per row"
                )
            if self.class_labels is not None and len(self.class_labels) != ya.shape[1]:
                raise InvalidArgumentError("class_labels length must equal y's column count")

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
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.x[idx], self.y[idx], self.class_labels, self.kind)


@dataclass(frozen=True)
class CvPlan:
    folds: int = 10
    trials: int = 10
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if self.folds < 2:
            raise InvalidArgumentError("folds must be >= 2")
        if self.trials < 1:
            raise InvalidArgumentError("trials must be >= 1")


def _sinc2(x: np.ndarray) -> np.ndarray:
    return np.sin(2.0 * x) / (2.0 * x)


def gen_regression(noisy_sets: int = 0, noise_frac: float = 0.0, seed: int = 0):
    """The curve y = sin(2x)/(2x).

    Train sets: the 8 clean points x = 1..8, plus `noisy_sets` copies with
    additive uniform noise of amplitude noise_frac times the clean target
    range. Test set: the 721-point grid x = 0.90, 0.91, ..., 8.10 with
    clean targets. Returns (list of train Datasets, test Dataset).
    """
    if noise_frac < 0:
        raise InvalidArgumentError("noise_frac must be >= 0")
    if noisy_sets < 0:
        raise InvalidArgumentError("noisy_sets must be >= 0")
    x = np.arange(1.0, 9.0).reshape(-1, 1)
    y = _sinc2(x)
    trains = [Dataset(x, y)]
    rng = np.random.default_rng(seed)
    amp = noise_frac * float(y.max() - y.min())
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
    if arms < 1:
        raise InvalidArgumentError("arms must be >= 1")
    if per_arm < 2 or per_arm % 2:
        raise InvalidArgumentError("per_arm must be even and >= 2")
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
    y = encode_targets([int(v) for v in labels], "onehot01")
    train_ds = Dataset(pts[to_train], y[to_train], names, "classification")
    test_ds = Dataset(pts[~to_train], y[~to_train], names, "classification")
    return train_ds, test_ds


def _is_missing(cell: str) -> bool:
    return cell.strip().lower() in _MISSING


def _parse_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def load_csv(path, label_column=-1, header: bool = False,
             missing_policy: str = "drop", kind: str = "classification") -> Dataset:
    """Read a delimited dataset file.

    Numeric feature columns are parsed as floats; non-numeric ones are
    one-hot expanded over their sorted categories. Rows with missing cells
    (empty, "?", "NA", "NaN") are dropped or mean-imputed per
    missing_policy; imputation applies to numeric columns only, missing
    categorical or label cells always drop the row. label_column is an
    index (negative allowed) or, with header=True, a column name.
    kind "classification" one-hot encodes the labels; "regression" parses
    them as float targets; "auto" picks regression when every present
    label cell parses as a float, over all data rows, and classification
    otherwise.
    """
    if missing_policy not in ("drop", "mean-impute"):
        raise InvalidConfigurationError(f"unknown missing_policy {missing_policy!r}")
    if kind not in ("classification", "regression", "auto"):
        raise InvalidConfigurationError(f"unknown dataset kind {kind!r}")
    rows: List[List[str]] = []
    line_nos: List[int] = []  # the 1-based file line of each data row
    names: Optional[List[str]] = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            # the file line the record ends on, also past quoted newlines
            line_no = reader.line_num
            if not row:
                continue
            if header and names is None:
                names = [c.strip() for c in row]
                continue
            rows.append([c.strip() for c in row])
            line_nos.append(line_no)
            if len(rows[0]) != len(row):
                raise CsvParseError(
                    f"line {line_no}: expected {len(rows[0])} fields, got {len(row)}",
                    line=line_no,
                )
    if not rows:
        raise CsvParseError("no data rows", line=1)
    ncols = len(rows[0])
    if names is not None and len(names) != ncols:
        raise CsvParseError("header width does not match data width", line=1)

    if isinstance(label_column, str):
        if names is None:
            raise InvalidConfigurationError(
                "label_column by name requires header=True"
            )
        if label_column not in names:
            raise InvalidConfigurationError(
                f"unknown label column {label_column!r}; have {names}"
            )
        label_idx = names.index(label_column)
    else:
        label_idx = int(label_column)
        if not -ncols <= label_idx < ncols:
            raise InvalidConfigurationError(
                f"label column {label_column} out of range for {ncols} columns"
            )
        label_idx %= ncols

    feat_idx = [j for j in range(ncols) if j != label_idx]

    # a column is numeric iff every present cell parses as float
    numeric = [
        all(_is_missing(r[j]) or _parse_float(r[j]) is not None for r in rows)
        for j in range(ncols)
    ]
    if kind == "auto":
        kind = "regression" if numeric[label_idx] else "classification"

    kept: List[List[str]] = []
    kept_lines: List[int] = []
    for r, line_no in zip(rows, line_nos):
        hard_missing = _is_missing(r[label_idx]) or any(
            _is_missing(r[j]) and not numeric[j] for j in feat_idx
        )
        if hard_missing:
            continue
        if missing_policy == "drop" and any(_is_missing(r[j]) for j in feat_idx):
            continue
        kept.append(r)
        kept_lines.append(line_no)
    if not kept:
        raise CsvParseError("every row was dropped", line=1)

    cols: List[np.ndarray] = []
    for j in feat_idx:
        cells = [r[j] for r in kept]
        if numeric[j]:
            vals = np.array(
                [math.nan if _is_missing(c) else float(c) for c in cells]
            )
            if np.isnan(vals).any():
                fill = float(np.nanmean(vals))
                vals = np.where(np.isnan(vals), fill, vals)
            cols.append(vals.reshape(-1, 1))
        else:
            cats = sorted(set(cells))
            block = np.zeros((len(cells), len(cats)))
            lookup = {c: k for k, c in enumerate(cats)}
            for i, c in enumerate(cells):
                block[i, lookup[c]] = 1.0
            cols.append(block)
    x = np.hstack(cols)

    label_cells = [r[label_idx] for r in kept]
    if kind == "regression":
        vals = []
        for c, line_no in zip(label_cells, kept_lines):
            v = _parse_float(c)
            if v is None:
                raise CsvParseError(
                    f"line {line_no}: non-numeric regression target {c!r}",
                    line=line_no,
                )
            vals.append(v)
        return Dataset(x, np.array(vals).reshape(-1, 1), None, "regression")
    y = encode_targets(label_cells, "onehot01")
    return Dataset(x, y, tuple(sorted(set(label_cells))), "classification")


def encode_targets(labels: Sequence, scheme: str = "onehot01",
                   on: float = 0.9, off: float = 0.1) -> np.ndarray:
    """One-hot encode labels over their sorted distinct values.

    scheme "onehot01" uses 1/0; "onehot_soft" uses the given on/off values
    (defaults 0.9/0.1, chosen to sit inside the inverse domain of the
    bounded activations).
    """
    if scheme not in ("onehot01", "onehot_soft"):
        raise InvalidArgumentError(f"unknown encoding scheme {scheme!r}")
    if len(labels) == 0:
        raise InvalidArgumentError("no labels to encode")
    if scheme == "onehot01":
        on, off = 1.0, 0.0
    classes = sorted(set(labels))
    lookup = {c: j for j, c in enumerate(classes)}
    y = np.full((len(labels), len(classes)), off)
    for i, lab in enumerate(labels):
        y[i, lookup[lab]] = on
    return y


def stratified_kfold(ds: Dataset, plan: CvPlan):
    """Fold partition as a list of (train_indices, test_indices).

    Stratified classification shuffles within each class and deals samples
    round-robin, staggering the start fold across classes so remainders
    spread out; per-fold class counts stay within one of proportional.
    Classes smaller than the fold count simply miss some folds.
    Unstratified (or regression) data is dealt the same way ignoring class.
    """
    m = ds.x.shape[0]
    if plan.folds > m:
        raise InvalidArgumentError(f"folds={plan.folds} exceeds samples={m}")
    rng = np.random.default_rng(plan.seed)
    assign = np.empty(m, dtype=int)
    if plan.stratified and ds.kind == "classification":
        labels = ds.labels
        pos = 0
        for cls in np.unique(labels):
            idx = np.flatnonzero(labels == cls)
            rng.shuffle(idx)
            for j, ix in enumerate(idx):
                assign[ix] = (pos + j) % plan.folds
            pos += idx.size
    else:
        idx = np.arange(m)
        rng.shuffle(idx)
        for j, ix in enumerate(idx):
            assign[ix] = j % plan.folds
    return [
        (np.flatnonzero(assign != k), np.flatnonzero(assign == k))
        for k in range(plan.folds)
    ]


def accuracy(pred, truth: Dataset) -> float:
    """Fraction of rows whose argmax matches the encoded class; numpy's
    argmax breaks ties toward the lowest index."""
    p = as_array(pred, "pred")
    if p.shape != truth.y.shape:
        raise InvalidArgumentError(
            f"prediction shape {p.shape} != target shape {truth.y.shape}"
        )
    return float(np.mean(p.argmax(axis=1) == truth.labels))


def expand_template(template: str, h: int, q: int) -> Tuple[int, ...]:
    """Widths from a template like "h-q", "2h-h-q" or "8h-4h-2h-h-q"."""
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
    widths = expand_template(template, h, q)
    if widths[-1] != q:
        raise InvalidConfigurationError(
            f"template {template!r} must end at the target width {q}"
        )
    structure = "-".join(str(w) for w in widths)
    return build_spec(structure, ds.x.shape[1], activation, linear_output)


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
                best: Optional[float]) -> Optional[float]:
    """Mean score of one candidate over the inner folds, or None as soon
    as it can no longer exceed best + 1e-12.

    The bound puts every fold not yet scored at the score ceiling `top`.
    np.mean sums a fixed-length array in a fixed order and rounding is
    monotone, so the bound is at least the mean the remaining folds
    would give, also in floating point: a candidate stopped early could
    not have been selected.
    """
    scores: List[float] = []
    for fold in folds:
        scores.append(_fit_score(fold, spec, cfg))
        bound = float(np.mean(scores + [top] * (len(folds) - len(scores))))
        if best is not None and not bound > best + 1e-12:
            return None
    return bound


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
        score = _inner_mean(folds, spec, cfg, top,
                            None if best is None else best[0])
        if score is not None:
            best = (score, tmpl, h, spec)
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
    inner fold scored the ceiling (accuracy 1, or SSE 0). The result is
    that of scoring every fold; only fits that cannot change the
    selection are skipped, so an error a skipped fit would raise (for
    example a domain violation with clamp_margin=None) is not raised.

    The outer (trial, fold) jobs are independent and fully seeded, so
    they run in worker processes with one BLAS thread each, one per usable
    core (see parallel.map_jobs); with a single usable core they run in
    this process. The result equals that of an in-process run under a
    one-thread BLAS, whatever the worker count, and an error is the one
    the in-process loop raises.
    """
    if not h_grid:
        raise InvalidArgumentError("empty h grid")
    if not templates:
        raise InvalidArgumentError("no templates")
    templates = list(dict.fromkeys(templates))
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


def write_dataset_csv(ds: Dataset, path) -> None:
    """Features at full precision plus a trailing label column (class name
    for classification, numeric target otherwise). No header."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if ds.kind == "classification":
            names = ds.class_labels or tuple(
                str(j) for j in range(ds.y.shape[1])
            )
            for row, lab in zip(ds.x, ds.labels):
                fh.write(",".join("%.17g" % v for v in row))
                fh.write(f",{names[lab]}\n")
        else:
            for row, targ in zip(ds.x, ds.y):
                fh.write(",".join("%.17g" % v for v in row))
                fh.write(",")
                fh.write(",".join("%.17g" % v for v in targ))
                fh.write("\n")
