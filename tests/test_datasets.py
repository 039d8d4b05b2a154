from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import pinvnet.datasets as datasets_module
from pinvnet import parallel
from pinvnet.activations import ActivationKind
from pinvnet.cli import DEFAULT_GRID
from pinvnet.datasets import (
    CvPlan,
    CvResult,
    Dataset,
    _encode_targets,
    _expand_template,
    accuracy,
    cv_search,
    gen_regression,
    gen_spiral,
    load_csv,
    stratified_kfold,
    training_targets,
    write_dataset_csv,
)
from pinvnet.errors import CsvParseError, InvalidArgumentError
from pinvnet.linalg import sse
from pinvnet.network import build_spec, forward
from pinvnet.training import InitScheme, TrainConfig, train

SP = ActivationKind.softplus08()
IRIS = Path(__file__).parent / "data" / "iris_like.csv"


def test_gen_regression_clean_points_and_test_grid():
    trains, test = gen_regression()
    assert len(trains) == 1
    x = trains[0].x
    y = trains[0].y
    assert np.array_equal(x.ravel(), np.arange(1.0, 9.0))
    assert np.allclose(y, np.sin(2 * x) / (2 * x), atol=1e-15)
    assert test.x.shape[0] == 721
    assert test.x[0, 0] == pytest.approx(0.90)
    assert test.x[-1, 0] == pytest.approx(8.10)


def test_gen_regression_noise_amplitude_is_bounded():
    trains, _ = gen_regression(noisy_sets=5, noise_frac=0.1, seed=3)
    assert len(trains) == 6
    clean = trains[0].y
    amp = 0.1 * (clean.max() - clean.min())
    for noisy in trains[1:]:
        assert np.abs(noisy.y - clean).max() <= amp
    # distinct draws per set
    assert not np.array_equal(trains[1].y, trains[2].y)


def test_gen_spiral_splits_alternate_samples_evenly():
    train, test = gen_spiral(6, 100, noise=0.3, seed=0)
    assert train.x.shape == (300, 2)
    assert test.x.shape == (300, 2)
    assert train.y.shape == (300, 6)
    counts = np.bincount(train.labels, minlength=6)
    assert (counts == 50).all()
    assert sorted(set(train.y.ravel())) == [0.0, 1.0]
    # the coincident origin points sit in the test split
    radii_train = np.linalg.norm(train.x, axis=1)
    assert radii_train.min() > 0.0
    radii_test = np.linalg.norm(test.x, axis=1)
    assert (radii_test < 1e-12).sum() == 6


def test_gen_spiral_is_deterministic_and_validates_arguments():
    a, _ = gen_spiral(3, 10, seed=4)
    b, _ = gen_spiral(3, 10, seed=4)
    assert np.array_equal(a.x, b.x)
    with pytest.raises(InvalidArgumentError):
        gen_spiral(0, 10)
    with pytest.raises(InvalidArgumentError):
        gen_spiral(3, 7)  # odd per-arm cannot split in half
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError, match="noise"):
            gen_spiral(3, 10, noise=bad)
        with pytest.raises(InvalidArgumentError, match="noise_frac"):
            gen_regression(1, noise_frac=bad)


def test_load_csv_classification_with_trailing_label(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0,red\n3.0,4.0,blue\n5.0,6.0,red\n")
    ds = load_csv(p, kind="classification")
    assert ds.x.shape == (3, 2)
    assert ds.class_labels == ("blue", "red")
    assert list(ds.labels) == [1, 0, 1]
    assert sorted(set(ds.y.ravel())) == [0.0, 1.0]


def test_load_csv_header_and_named_label_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,species\n1.0,2.0,x\n3.0,4.0,y\n")
    ds = load_csv(p, label_column="species", header=True, kind="classification")
    assert ds.x.shape == (2, 2)
    assert ds.class_labels == ("x", "y")
    with pytest.raises(InvalidArgumentError):
        load_csv(p, label_column="missing", header=True, kind="classification")


def test_load_csv_negative_label_index_counts_from_the_end(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,1.0,2.0\ny,3.0,4.0\n")
    ds = load_csv(p, label_column=-3, kind="classification")
    assert ds.class_labels == ("x", "y")
    assert np.array_equal(ds.x, [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("label_column", [3, 5, -4, -9])
def test_load_csv_out_of_range_label_index_is_rejected(tmp_path, label_column):
    p = tmp_path / "d.csv"
    p.write_text("x,1.0,2.0\ny,3.0,4.0\n")
    with pytest.raises(InvalidArgumentError):
        load_csv(p, label_column=label_column, kind="classification")


def test_load_csv_auto_kind_detects_regression_and_classification(tmp_path):
    num = tmp_path / "num.csv"
    num.write_text("1.0,10.5\n2.0,?\n3.0,11.5\n")
    ds = load_csv(num, kind="auto")
    assert ds.kind == "regression"
    assert np.array_equal(ds.y, [[10.5], [11.5]])
    txt = tmp_path / "txt.csv"
    txt.write_text("1.0,10.5\n2.0,b\n3.0,11.5\n")
    ds = load_csv(txt, kind="auto")
    assert ds.kind == "classification"
    assert ds.class_labels == ("10.5", "11.5", "b")

def test_load_csv_field_count_mismatch_names_the_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0,a\n3.0,b\n")
    with pytest.raises(CsvParseError) as err:
        load_csv(p, kind="classification")
    assert err.value.line == 2


def test_load_csv_skips_blank_lines_and_keeps_file_line_numbers(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2,a\n\n3,4,b\n\n")
    ds = load_csv(p, kind="classification")
    assert np.array_equal(ds.x, [[1.0, 2.0], [3.0, 4.0]])
    # the blank line 2 still counts: the short row is file line 3
    p.write_text("1,2,a\n\n3,4\n")
    with pytest.raises(CsvParseError) as err:
        load_csv(p, kind="classification")
    assert err.value.line == 3


def test_load_csv_non_numeric_target_names_its_file_line(tmp_path):
    # the header, a dropped row and a quoted newline sit before the bad
    # cell: "zz" is on file line 5, though it is the second row kept
    p = tmp_path / "d.csv"
    p.write_text('a,b,y\n1,2,3\n?,5,"6\n"\n7,8,zz\n')
    with pytest.raises(CsvParseError) as err:
        load_csv(p, header=True, kind="regression")
    assert err.value.line == 5
    assert "line 5" in str(err.value)


def test_load_csv_missing_cells_drop_policy(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0,a\n?,4.0,b\n5.0,NA,a\n7.0,8.0,b\n")
    ds = load_csv(p, missing_policy="drop", kind="classification")
    assert ds.x.shape == (2, 2)
    assert np.array_equal(ds.x, [[1.0, 2.0], [7.0, 8.0]])


def test_load_csv_missing_cells_mean_impute_policy(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0,a\n,4.0,b\n3.0,nan,a\n")
    ds = load_csv(p, missing_policy="mean-impute", kind="classification")
    assert ds.x.shape == (3, 2)
    assert ds.x[1, 0] == pytest.approx(2.0)  # mean of 1 and 3
    assert ds.x[2, 1] == pytest.approx(3.0)  # mean of 2 and 4


def test_load_csv_missing_label_always_drops_the_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0,a\n3.0,4.0,?\n5.0,6.0,b\n")
    ds = load_csv(p, missing_policy="mean-impute", kind="classification")
    assert ds.x.shape[0] == 2


def test_load_csv_one_hot_encodes_categorical_features(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,small,a\n2.0,large,b\n3.0,small,a\n")
    ds = load_csv(p, kind="classification")
    # numeric column plus one indicator per sorted category
    assert ds.x.shape == (3, 3)
    assert np.array_equal(ds.x[:, 1:], [[0, 1], [1, 0], [0, 1]])


def test_load_csv_regression_targets_parse_as_floats(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,10.5\n2.0,11.5\n")
    ds = load_csv(p, kind="regression")
    assert ds.kind == "regression"
    assert np.array_equal(ds.y, [[10.5], [11.5]])
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,abc\n")
    with pytest.raises(CsvParseError):
        load_csv(bad, kind="regression")


def test_load_csv_matches_loadtxt_and_the_file_on_iris():
    ds = load_csv(IRIS)
    assert ds.x.tobytes() == np.loadtxt(IRIS, delimiter=",", usecols=range(4)).tobytes()
    names = [line.rsplit(",", 1)[1] for line in IRIS.read_text().splitlines()]
    assert ds.class_labels == tuple(sorted(set(names)))
    assert [ds.class_labels[k] for k in ds.labels] == names


def test_load_csv_skips_a_utf8_byte_order_mark(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbf" + IRIS.read_bytes())
    ds, plain = load_csv(p), load_csv(IRIS)
    assert ds.x.tobytes() == plain.x.tobytes() and ds.y.tobytes() == plain.y.tobytes()
    assert ds.class_labels == plain.class_labels
    # a byte-order mark used to make column 0 text, so one-hot encoded
    p.write_text("\ufeff5.1,3.5,a\n4.9,3.0,b\n4.7,3.2,a\n", encoding="utf-8")
    assert np.array_equal(load_csv(p).x, [[5.1, 3.5], [4.9, 3.0], [4.7, 3.2]])


@pytest.mark.parametrize("text, kwargs, where", [
    ("1,2,a\n3,inf,b\n", {}, "line 2: non-finite number 'inf' in column 1"),
    ("1,2,a\n1e999,4,b\n", {}, "line 2: non-finite number '1e999' in column 0"),
    ("x,y,c\n1,2,a\n3,-nan,b\n", dict(header=True),
     "line 3: non-finite number '-nan' in column 'y'"),
    ("1,2,3\n4,5,-inf\n", dict(kind="regression"),
     "line 2: non-finite number '-inf' in column 2"),
    ("1,2,3\n4,5,+NAN\n", dict(kind="auto"),
     "line 2: non-finite number '\\+NAN' in column 2"),
], ids=["inf-feature", "overflow-feature", "minus-nan-feature",
        "inf-regression-label", "nan-auto-label"])
def test_load_csv_non_finite_number_names_its_line_and_column(tmp_path, text,
                                                             kwargs, where):
    p = tmp_path / "d.csv"
    p.write_text(text)
    with pytest.raises(CsvParseError, match=f"^{where}$") as err:
        load_csv(p, **kwargs)
    assert err.value.line == int(where.split()[1][:-1])


def test_load_csv_non_finite_text_stays_a_category(tmp_path):
    # "inf" in a column that also holds text is a category, not a number
    p = tmp_path / "d.csv"
    p.write_text("1,inf,a\n2,big,b\n3,inf,a\n")
    assert np.array_equal(load_csv(p).x, [[1, 0, 1], [2, 1, 0], [3, 0, 1]])


@pytest.mark.parametrize("text, header, column", [
    ("1,?,a\n2,,b\n", False, "column 1"),
    ("p,q,c\n1,NA,a\n2,nan,b\n", True, "column 'q'"),
], ids=["by-index", "by-name"])
def test_load_csv_mean_impute_of_an_all_missing_column_names_it(tmp_path, text,
                                                               header, column):
    p = tmp_path / "d.csv"
    p.write_text(text)
    # the suite fails on any warning, so this also shows that no numpy
    # "Mean of empty slice" warning comes before the error
    with pytest.raises(CsvParseError, match=f"^{column} has no present cell"):
        load_csv(p, header=header, missing_policy="mean-impute")
    with pytest.raises(CsvParseError, match="every row was dropped"):
        load_csv(p, header=header)


def test_load_csv_one_column_file_is_a_parse_error(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("\n5\n6\n")
    with pytest.raises(CsvParseError, match="^line 2: expected at least 2 fields") as err:
        load_csv(p)
    assert err.value.line == 2


def test_load_csv_that_is_not_utf8_names_the_line_of_its_first_bad_byte(tmp_path):
    p = tmp_path / "d.csv"
    # past the decoder's first chunk, after \r\n, \r and \n line ends
    p.write_bytes(b"1,2,a\r\n" * 3000 + b"3,4,b\r5,6,b\n7,8,caf\xe9\n")
    with pytest.raises(CsvParseError, match="^line 3003: byte 0xe9 at offset 21019 "
                                            "is not UTF-8$") as err:
        load_csv(p)
    assert err.value.line == 3003


def test_encode_targets_sorted_classes_and_soft_scheme():
    hard, classes = _encode_targets(["b", "a", "b"])
    assert np.array_equal(hard, [[0, 1], [1, 0], [0, 1]])
    assert classes == ("a", "b")
    # texts that differ only in a trailing NUL stay two classes
    assert _encode_targets(["a\x00", "a"])[1] == ("a", "a\x00")


def test_stratified_kfold_staggers_small_classes_across_folds():
    # classes of size 5, 3 and 2 in 5 folds: the size-5 class lands once
    # per fold, the smaller classes spread over consecutive folds
    y, _ = _encode_targets([0] * 5 + [1] * 3 + [2] * 2)
    x = np.arange(20.0).reshape(10, 2)
    ds = Dataset(x, y, ("c0", "c1", "c2"), "classification")
    folds = stratified_kfold(ds, CvPlan(folds=5, trials=1, seed=0))
    assert len(folds) == 5
    labels = ds.labels
    test_sets = [set(te.tolist()) for _, te in folds]
    # disjoint cover
    assert sorted(i for s in test_sets for i in s) == list(range(10))
    for tr, te in folds:
        assert sorted(np.concatenate([tr, te]).tolist()) == list(range(10))
        per_class = np.bincount(labels[te], minlength=3)
        assert per_class[0] == 1
        assert per_class[1] <= 1
        assert per_class[2] <= 1
    # each small class appears in exactly its size's worth of folds
    hits1 = sum(1 for _, te in folds if (labels[te] == 1).any())
    hits2 = sum(1 for _, te in folds if (labels[te] == 2).any())
    assert hits1 == 3 and hits2 == 2


def test_stratified_kfold_rejects_more_folds_than_samples():
    y, _ = _encode_targets([0, 1])
    ds = Dataset(np.eye(2), y, ("a", "b"), "classification")
    with pytest.raises(InvalidArgumentError):
        stratified_kfold(ds, CvPlan(folds=3, trials=1))


@pytest.mark.parametrize("bad", [-1, 1.5, True, np.int64(-3)])
def test_cv_plan_rejects_a_seed_that_is_not_an_int_ge_0(bad):
    with pytest.raises(InvalidArgumentError, match="seed"):
        CvPlan(2, 1, bad)


def test_unstratified_fold_sizes_differ_by_at_most_one():
    x = np.arange(22.0).reshape(11, 2)
    ds = Dataset(x, np.zeros((11, 1)))
    folds = stratified_kfold(ds, CvPlan(folds=4, trials=1, seed=2,
                                        stratified=False))
    sizes = sorted(len(te) for _, te in folds)
    assert sizes == [2, 3, 3, 3]
    # the dealer this one replaced: one shuffle of all rows, dealt in turn
    idx = np.arange(11)
    np.random.default_rng(2).shuffle(idx)
    assert [te.tolist() for _, te in folds] == [
        sorted(idx[k::4].tolist()) for k in range(4)]


@pytest.mark.parametrize("template,h,q,widths", [
    ("h-q", 10, 3, (10, 3)),
    ("2h-h-q", 4, 2, (8, 4, 2)),
    ("8h-4h-2h-h-q", 1, 5, (8, 4, 2, 1, 5)),
    ("30-50-q", 7, 6, (30, 50, 6)),
])
def test_expand_template(template, h, q, widths):
    assert _expand_template(template, h, q) == widths


def test_expand_template_rejects_junk():
    with pytest.raises(InvalidArgumentError):
        _expand_template("h-qq", 2, 3)
    with pytest.raises(InvalidArgumentError):
        _expand_template("", 2, 3)


def test_training_targets_soften_labels_for_invertible_outputs():
    y, _ = _encode_targets([0, 1])
    ds = Dataset(np.eye(2), y, ("a", "b"), "classification")
    soft = training_targets(ds, linear_output=False)
    assert np.array_equal(soft, [[0.9, 0.1], [0.1, 0.9]])
    raw = training_targets(ds, linear_output=True)
    assert np.array_equal(raw, y)
    # a subset without class "a" keeps both columns
    part = Dataset(np.eye(3), _encode_targets([0, 1, 2])[0], None,
                   "classification").subset([1, 2])
    assert np.array_equal(training_targets(part, linear_output=False),
                          [[0.1, 0.9, 0.1], [0.1, 0.1, 0.9]])


@pytest.mark.parametrize("indices", [
    [0.5, 1.7], [True, False, True], [5], {0, 1}, object(), [-1], [], [[0, 1]],
], ids=["floats", "bools", "past-the-end", "set", "object", "negative", "empty",
        "2-d"])
def test_subset_takes_only_row_numbers(indices):
    ds = Dataset(np.eye(3), _encode_targets([0, 1, 2])[0], None, "classification")
    with pytest.raises(InvalidArgumentError, match="indices"):
        ds.subset(indices)
    picked = ds.subset(np.array([2, 0]))
    assert np.array_equal(picked.x, [[0, 0, 1], [1, 0, 0]])


def test_cv_search_runs_when_a_training_portion_misses_a_class(monkeypatch):
    # the one sample of class 2 is in the test part of one outer fold, so
    # that fold's training portion has no class 2
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 1)
    rng = np.random.default_rng(0)
    ds = Dataset(rng.standard_normal((13, 2)),
                 _encode_targets([0] * 6 + [1] * 6 + [2])[0], None,
                 "classification")
    plan = CvPlan(folds=3, trials=1, seed=0, stratified=True)
    result = cv_search(ds, ["h-q"], [2], plan,
                       TrainConfig(InitScheme.random(0)), SP)
    assert result.h == 2
    assert 0.0 <= result.mean_accuracy <= 1.0


def test_accuracy_counts_argmax_matches():
    y, _ = _encode_targets([0, 1, 1])
    ds = Dataset(np.eye(3)[:, :2] * 1.0, y, ("a", "b"),
                 "classification")
    pred = np.array([[0.8, 0.2], [0.6, 0.4], [0.1, 0.9]])
    assert accuracy(pred, ds) == pytest.approx(2 / 3)


def test_cv_search_selects_from_the_grid_deterministically():
    train_ds, _ = gen_spiral(3, 40, noise=0.2, seed=2)
    plan = CvPlan(folds=3, trials=2, seed=0)
    cfg = TrainConfig(InitScheme.random(0, 0.5))
    r1 = cv_search(train_ds, ["h-q"], [2, 6], plan, cfg, SP)
    r2 = cv_search(train_ds, ["h-q"], [6, 2], plan, cfg, SP)
    assert r1.h in (2, 6)
    assert r1.template == "h-q"
    assert len(r1.per_trial_accuracies) == 2
    assert all(0.0 <= a <= 1.0 for a in r1.per_trial_accuracies)
    # grid order must not matter
    assert r1.h == r2.h
    assert r1.mean_accuracy == r2.mean_accuracy


def test_cv_search_scores_regression_by_error():
    trains, _ = gen_regression()
    ds = trains[0]
    plan = CvPlan(folds=4, trials=1, seed=0, stratified=False)
    cfg = TrainConfig(InitScheme.random(0, 1.0))
    result = cv_search(ds, ["h-q"], [2, 4], plan, cfg, SP)
    assert result.h in (2, 4)
    # regression scores are negative errors, not accuracies
    assert all(a <= 0.0 for a in result.per_trial_accuracies)


def _reference_cv_search(ds, templates, h_grid, plan, cfg, activation,
                         linear_output=False):
    """Nested CV that scores every inner fold of every distinct candidate,
    rebuilding each split per candidate: the search without its early
    exit, in the candidate order smaller h, then earlier template."""
    templates = list(dict.fromkeys(templates))
    q = ds.y.shape[1]

    def fit_score(tr, te, tmpl, h):
        widths = _expand_template(tmpl, h, q)
        spec = build_spec("-".join(map(str, widths)), ds.x.shape[1], activation,
                          linear_output)
        report = train(spec, tr.x, training_targets(tr, linear_output), cfg)
        pred = forward(spec, report.weights, te.x)
        if te.kind == "classification":
            return accuracy(pred, te)
        return -sse(pred, te.y)

    grid = np.zeros((plan.trials, plan.folds))
    selections = []
    for trial in range(plan.trials):
        outer = stratified_kfold(
            ds, CvPlan(plan.folds, 1, plan.seed + trial, plan.stratified))
        for f, (tr_idx, te_idx) in enumerate(outer):
            tr_ds, te_ds = ds.subset(tr_idx), ds.subset(te_idx)
            inner = stratified_kfold(tr_ds, CvPlan(
                min(plan.folds, tr_ds.x.shape[0]), 1,
                plan.seed + 7919 * trial + 104729 * f, plan.stratified))
            best = None
            for h in sorted({int(v) for v in h_grid}):
                for tmpl in templates:
                    score = float(np.mean([
                        fit_score(tr_ds.subset(i_tr), tr_ds.subset(i_te), tmpl, h)
                        for i_tr, i_te in inner
                    ]))
                    if best is None or score > best[0] + 1e-12:
                        best = (score, tmpl, h)
            selections.append(best[1:])
            grid[trial, f] = fit_score(tr_ds, te_ds, *best[1:])
    counts = Counter(selections)
    tmpl, h = min(counts, key=lambda c: (-counts[c], c[1], templates.index(c[0])))
    return CvResult(h, tmpl, float(grid.mean()),
                    tuple(float(v) for v in grid.mean(axis=1)),
                    tuple(tuple(float(v) for v in row) for row in grid),
                    tuple(selections))


def _in_process(monkeypatch):
    """One usable core, so cv_search runs every fold in this process, where
    a monkeypatch sees it, rather than in worker processes."""
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 1)


def _count_fits(monkeypatch):
    """Record the first width of every network cv_search trains."""
    _in_process(monkeypatch)
    widths = []

    def counting_train(spec, x, y, cfg):
        widths.append(spec.widths[0])
        return train(spec, x, y, cfg)

    monkeypatch.setattr(datasets_module, "train", counting_train)
    return widths


@pytest.mark.parametrize(
    "case",
    ["iris", "spiral", "spiral_two_templates", "regression", "regression_linear"],
)
def test_cv_search_early_exit_matches_the_exhaustive_search(case, monkeypatch):
    grid, templates, linear = [1, 2, 3, 5, 10, 20, 50], ["h-q"], False
    cfg = TrainConfig(InitScheme.random(0, 0.5))
    if case == "iris":
        ds = load_csv(IRIS)
        grid = list(DEFAULT_GRID)
        plan = CvPlan(folds=5, trials=2, seed=0)
    elif case.startswith("spiral"):
        ds, _ = gen_spiral(3, 40, noise=0.2, seed=2)
        plan = CvPlan(folds=3, trials=2, seed=1)
        if case == "spiral_two_templates":
            templates = ["h-q", "2h-h-q"]
    else:
        trains, _ = gen_regression(noisy_sets=1, noise_frac=0.1, seed=3)
        ds = trains[1]
        grid = [1, 2, 3, 5, 8]
        plan = CvPlan(folds=4, trials=2, seed=0, stratified=False)
        linear = case == "regression_linear"
    want = _reference_cv_search(ds, templates, grid, plan, cfg, SP, linear)
    fits = _count_fits(monkeypatch)
    got = cv_search(ds, templates, grid, plan, cfg, SP, linear)
    assert got == want
    every = plan.trials * plan.folds * (len(templates) * len(grid) * plan.folds + 1)
    assert 0 < len(fits) < every


def test_cv_search_single_candidate_fits_every_fold(monkeypatch):
    train_ds, _ = gen_spiral(3, 40, noise=0.2, seed=2)
    plan = CvPlan(folds=4, trials=2, seed=0)
    fits = _count_fits(monkeypatch)
    cv_search(train_ds, ["h-q"], [6], plan, TrainConfig(InitScheme.random(0)), SP)
    assert len(fits) == plan.trials * plan.folds * (plan.folds + 1)


def test_cv_search_ties_go_to_smaller_h_before_earlier_template(monkeypatch):
    # (h-q, h=2) and (2h-h-q, h=1) both start with a width-2 layer and tie
    # exactly at the top score; every other candidate scores lower
    scored = []

    def fake_fit_score(fold, spec, cfg):
        scored.append(spec.widths[0])
        return 1.0 if spec.widths[0] == 2 else 0.5

    monkeypatch.setattr(datasets_module, "_fit_score", fake_fit_score)
    _in_process(monkeypatch)
    train_ds, _ = gen_spiral(3, 10, seed=0)
    result = cv_search(train_ds, ["h-q", "2h-h-q"], [1, 2], CvPlan(3, 1, 0),
                       TrainConfig(InitScheme.random(0)), SP)
    assert len(scored) > 0
    assert (result.template, result.h) == ("2h-h-q", 1)
    assert set(result.selections) == {("2h-h-q", 1)}


# per-fold scores of each width on every 4-fold inner split, as accuracies;
# a regression search scores them shifted by -1 (negative SSE, ceiling 0)
_INNER_SCORES = {
    1: [0.9, 0.5, 0.7, 0.6],  # first: every fold in index order, mean 0.675
    2: [0.8, 0.2, 0.6, 0.5],  # loses: folds 1, 3 put its bound at 0.675
    3: [1.0, 0.9, 0.8, 0.9],  # wins with mean 0.9, scored hardest first
    5: [0.0, 1.0, 0.8, 1.0],  # loses at its last fold; h=3's 0.9s tie
}
_VISITS = [(1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 3),
           (3, 1), (3, 3), (3, 2), (3, 0), (5, 2), (5, 1), (5, 3), (5, 0),
           (3, None)]  # None: the selected width's fit on the outer fold


@pytest.mark.parametrize("kind, top", [("classification", 1.0), ("regression", 0.0)])
def test_cv_search_scores_the_best_candidates_hardest_folds_first(kind, top,
                                                                  monkeypatch):
    _in_process(monkeypatch)
    splits, visits = [], []
    real_split = datasets_module._split

    def recording_split(*args):
        splits.append(real_split(*args))
        return splits[-1]

    def fake_fit_score(fold, spec, cfg):
        # an outer fold splits once for itself, then once per inner fold
        at = [s is fold for s in splits[-5:]].index(True)
        h = spec.widths[0]
        visits.append((h, at - 1 if at else None))
        return _INNER_SCORES[h][at - 1] - 1.0 + top if at else top

    monkeypatch.setattr(datasets_module, "_split", recording_split)
    monkeypatch.setattr(datasets_module, "_fit_score", fake_fit_score)
    if kind == "classification":
        ds, _ = gen_spiral(2, 40, seed=0)
    else:
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((40, 2)), rng.standard_normal((40, 1)))
    plan = CvPlan(folds=4, trials=1, seed=0, stratified=False)
    result = cv_search(ds, ["h-q"], [5, 3, 2, 1], plan,
                       TrainConfig(InitScheme.random(0)), SP)
    assert visits == _VISITS * plan.folds
    assert result.selections == (("h-q", 3),) * plan.folds

    # h=2 stops after the 2 fits its bound needs; in index order (the
    # order a best with equal scores gives) it takes 3
    folds = splits[-4:]
    h1, h2 = (datasets_module._spec_for(ds, "h-q", h, SP, False) for h in (1, 2))
    best = datasets_module._inner_mean(folds, h1, None, top, None)
    for best_scores, fits in ((best[1], 2), (np.zeros(4), 3)):
        visits.clear()
        assert datasets_module._inner_mean(folds, h2, None, top,
                                           (best[0], best_scores)) is None
        assert len(visits) == fits


def test_cv_search_fits_duplicate_grid_values_once(monkeypatch):
    train_ds, _ = gen_spiral(3, 40, noise=0.2, seed=2)
    plan = CvPlan(folds=3, trials=1, seed=0)
    cfg = TrainConfig(InitScheme.random(0, 0.5))
    fits = _count_fits(monkeypatch)
    unique = cv_search(train_ds, ["h-q"], [2, 5], plan, cfg, SP)
    unique_fits = Counter(fits)
    fits.clear()
    twice = cv_search(train_ds, ["h-q", "h-q"], [5, 5, 2], plan, cfg, SP)
    assert twice == unique
    assert Counter(fits) == unique_fits
    assert unique_fits[5] > 0


def test_write_dataset_csv_round_trips_through_load(tmp_path):
    train_ds, _ = gen_spiral(3, 10, seed=1)
    p = tmp_path / "s.csv"
    write_dataset_csv(train_ds, p)
    back = load_csv(p, kind="classification")
    assert np.array_equal(back.x, train_ds.x)
    assert np.array_equal(back.labels, train_ds.labels)
    assert back.class_labels == train_ds.class_labels


def test_write_dataset_csv_quotes_class_names_that_need_it(tmp_path):
    src = tmp_path / "in.csv"
    src.write_text('1,2,"a,b"\n3,4,c\n5,6,"say ""hi"""\n7,8,"two\nlines"\n')
    ds = load_csv(src)
    assert ds.class_labels == ("a,b", "c", 'say "hi"', "two\nlines")
    out = tmp_path / "out.csv"
    write_dataset_csv(ds, out)
    assert out.read_text().splitlines()[:2] == ['1,2,"a,b"', "3,4,c"]
    back = load_csv(out)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.labels, ds.labels)
    assert back.class_labels == ds.class_labels


def test_dataset_validates_classification_targets():
    with pytest.raises(InvalidArgumentError):
        Dataset(np.eye(2), np.ones((2, 2)), ("a", "b"),
                "classification")
