"""Every setting that enters the library is checked by one rule per kind,
else InvalidArgumentError names the field: a count or seed must be an int
at or above its floor, a real setting a finite number at or above (or, for
a strict floor, above) its floor, a switch a bool, and a text setting a
str, one of its choices where it has them. A bool is not a number, and a
string is neither. The last tables reach every other rejection once."""
import math
import re
from pathlib import Path

import numpy as np
import pytest

from pinvnet.activations import ActivationKind, invert, invert_with_count, parse_kind
from pinvnet.analysis import VarianceConfig, solution_count
from pinvnet.datasets import (CvPlan, Dataset, accuracy, cv_search, encode_targets,
                              expand_template, gen_regression, gen_spiral, load_csv,
                              training_targets)
from pinvnet.errors import CsvParseError, DomainViolationError, InvalidArgumentError
from pinvnet.linalg import PinvOptions
from pinvnet.network import (NetworkSpec, WeightSet, forward, parse_structure,
                             receptive_mask)
from pinvnet.training import (InitScheme, TrainConfig, back_target, solve_masked_layer,
                              train)

SP = ActivationKind.softplus08()


def _cv_search(h, templates=("h-q",)):
    ds = Dataset(np.arange(12.0).reshape(6, 2), np.ones((6, 1)))
    cv_search(ds, templates, [h], CvPlan(2, 1, 0),
              TrainConfig(InitScheme.random(0)), SP)


# (field as the message names it, its floor, a call that passes value there)
ENTRIES = {
    "VarianceConfig.m": ("m", 1, lambda v: VarianceConfig(m=v)),
    "VarianceConfig.d": ("d", 1, lambda v: VarianceConfig(d=v)),
    "VarianceConfig.trials": ("trials", 1, lambda v: VarianceConfig(trials=v)),
    "VarianceConfig.max_depth": ("max_depth", 1, lambda v: VarianceConfig(max_depth=v)),
    "VarianceConfig.seed": ("seed", 0, lambda v: VarianceConfig(seed=v)),
    "CvPlan.folds": ("folds", 2, lambda v: CvPlan(v, 1, 0)),
    "CvPlan.trials": ("trials", 1, lambda v: CvPlan(2, v, 0)),
    "CvPlan.seed": ("seed", 0, lambda v: CvPlan(2, 1, v)),
    "InitScheme.seed": ("seed", 0, lambda v: InitScheme.random(v)),
    "NetworkSpec.input_dim": ("input_dim", 1, lambda v: NetworkSpec(v, (3,), SP)),
    "NetworkSpec.widths": ("layer 2 width", 1, lambda v: NetworkSpec(2, (3, v), SP)),
    "NetworkSpec.receptive_fields": (
        "receptive field", 1,
        lambda v: NetworkSpec(2, (3,), SP, receptive_fields=(v,))),
    "receptive_mask.r": ("receptive field", 1, lambda v: receptive_mask(5, 3, v, False)),
    "receptive_mask.in_dim": ("in_dim", 1, lambda v: receptive_mask(v, 3, 3, False)),
    "receptive_mask.width": ("width", 1, lambda v: receptive_mask(5, v, 3, False)),
    "gen_spiral.arms": ("arms", 1, lambda v: gen_spiral(v, 4)),
    "gen_spiral.per_arm": ("per_arm", 2, lambda v: gen_spiral(2, v)),
    "gen_spiral.seed": ("seed", 0, lambda v: gen_spiral(2, 4, seed=v)),
    "gen_regression.noisy_sets": ("noisy_sets", 0, lambda v: gen_regression(v)),
    "gen_regression.seed": ("seed", 0, lambda v: gen_regression(1, seed=v)),
    "cv_search.h": ("h", 1, _cv_search),
    "solution_count.n": ("n", 2, solution_count),
}


@pytest.mark.parametrize("kind", ["fraction", "bool", "below_floor"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_count_that_is_not_an_int_at_its_floor_is_rejected_by_name(entry, kind):
    field, low, call = ENTRIES[entry]
    bad = {"fraction": 2.5, "bool": True, "below_floor": low - 1}[kind]
    with pytest.raises(InvalidArgumentError,
                       match=rf"^{re.escape(field)} must be an int >= {low}, got "):
        call(bad)


def test_numpy_integers_pass_the_check():
    assert CvPlan(np.int64(3), np.int32(2), np.int64(1)).folds == 3
    assert NetworkSpec(np.int64(2), (np.int64(3),), SP).input_dim == 2
    assert solution_count(np.int64(3)) == (2, 3)


Y = np.array([[0.5, 1.0]])
W = np.eye(2)
CSV = Path(__file__).parent / "data" / "iris_like.csv"

# (field as the message names it, its floor or None, strict, a call that
# passes value there)
REALS = {
    "PinvOptions.tolerance": ("tolerance", 0, False, PinvOptions),
    "PinvOptions.explicit": ("tolerance", 0, False, PinvOptions.explicit),
    "PinvOptions.ridge": ("ridge", 0, False, lambda v: PinvOptions(None, v)),
    "InitScheme.scale_c": ("scale_c", 0, True, lambda v: InitScheme.random(0, v)),
    "TrainConfig.clamp_margin": (
        "clamp_margin", 0, False,
        lambda v: TrainConfig(InitScheme.random(0), clamp_margin=v)),
    "ActivationKind.alpha": ("alpha", 0, True, ActivationKind.exp_scaled),
    "VarianceConfig.noise_scale": (
        "noise_scale", 0, True, lambda v: VarianceConfig(noise_scale=v)),
    "VarianceConfig.input_range.lo": (
        "input_range[0]", None, False, lambda v: VarianceConfig(input_range=(v, 5.0))),
    "VarianceConfig.input_range.hi": (
        "input_range[1]", None, False, lambda v: VarianceConfig(input_range=(-5.0, v))),
    "gen_regression.noise_frac": ("noise_frac", 0, False, lambda v: gen_regression(1, v)),
    "gen_spiral.noise": ("noise", None, False, lambda v: gen_spiral(2, 4, v)),
    "invert.clamp_margin": ("clamp_margin", 0, False, lambda v: invert(SP, Y, v)),
    "invert_with_count.clamp_margin": (
        "clamp_margin", 0, False, lambda v: invert_with_count(SP, Y, v)),
    "back_target.clamp_margin": (
        "clamp_margin", 0, False, lambda v: back_target(Y, [W], SP, True, v)),
}
BAD_REALS = {"bool": True, "string": "0.5", "nan": math.nan, "inf": math.inf,
             "minus_inf": -math.inf, "huge_int": 10 ** 400}


def _bad_reals(entry):
    """The bad values for a real entry: each of BAD_REALS, a value below its
    floor (the floor itself when strict), and None where None is no
    setting."""
    _, low, strict, _ = REALS[entry]
    bad = dict(BAD_REALS)
    if low is not None:
        bad["below_floor"] = low if strict else low - 1
    if entry != "PinvOptions.tolerance":  # there None is the automatic cutoff
        bad["none"] = None
    return bad


@pytest.mark.parametrize("entry, kind", [
    (entry, kind) for entry in REALS for kind in _bad_reals(entry)])
def test_a_real_that_is_not_a_finite_number_at_its_floor_is_rejected_by_name(
        entry, kind):
    field, low, strict, call = REALS[entry]
    floor = "" if low is None else f" {'>' if strict else '>='} {low}"
    with pytest.raises(InvalidArgumentError,
                       match=rf"^{re.escape(field)} must be a finite number{floor}, got "):
        call(_bad_reals(entry)[kind])


@pytest.mark.parametrize("entry", REALS)
def test_numpy_and_python_numbers_pass_the_real_check(entry):
    _, low, strict, call = REALS[entry]
    for good in (np.float64(0.5), 1, np.int64(2), np.float32(0.25)):
        call(good)
    if low is not None and not strict:
        call(low)


@pytest.mark.parametrize("margin", [0, 0.0, np.float64(0.0)])
def test_a_zero_margin_turns_clamping_off(margin):
    below = np.array([[-0.5, 0.1, 1.0]])
    with pytest.raises(DomainViolationError):
        invert(SP, below, margin)
    with pytest.raises(DomainViolationError):
        back_target(below, [np.eye(3)], SP, False, margin)
    assert TrainConfig(InitScheme.random(0), clamp_margin=margin).clamp_margin == 0


CLASSES = Dataset(np.zeros((2, 1)), np.eye(2), ("a", "b"), "classification")

SWITCHES = {
    "CvPlan.stratified": ("stratified", lambda v: CvPlan(2, 1, 0, v)),
    "NetworkSpec.linear_output": ("linear_output", lambda v: NetworkSpec(2, (3,), SP, v)),
    "load_csv.header": ("header", lambda v: load_csv(CSV, header=v)),
    "training_targets.linear_output": (
        "linear_output", lambda v: training_targets(CLASSES, v)),
    "back_target.linear_output": ("linear_output", lambda v: back_target(Y, [W], SP, v)),
    "receptive_mask.biased_input": ("biased_input", lambda v: receptive_mask(5, 3, 3, v)),
}


@pytest.mark.parametrize("bad", ["no", 1, 0, None, 1.0])
@pytest.mark.parametrize("entry", SWITCHES)
def test_a_switch_that_is_not_a_bool_is_rejected_by_name(entry, bad):
    field, call = SWITCHES[entry]
    with pytest.raises(InvalidArgumentError,
                       match=rf"^{field} must be true or false, got "):
        call(bad)


@pytest.mark.parametrize("entry", SWITCHES)
def test_python_and_numpy_bools_pass_the_switch_check(entry):
    for good in (True, False, np.True_, np.False_):
        SWITCHES[entry][1](good)


@pytest.mark.parametrize("bad", [1.7, True, 1.0, np.float64(1.0)])
def test_load_csv_rejects_a_label_index_that_is_not_an_int(tmp_path, bad):
    path = tmp_path / "d.csv"
    path.write_text("x,1.0,2.0\ny,3.0,4.0\n")
    with pytest.raises(InvalidArgumentError, match=r"^label_column must be an int, got "):
        load_csv(path, label_column=bad)
    assert load_csv(path, label_column=np.int64(0)).class_labels == ("x", "y")


# (field as the message names it, its choices or None for any text, a call
# that passes value there)
TEXTS = {
    "ActivationKind.variant": (
        "variant", ("identity", "softplus", "softplus08", "exp_scaled"), ActivationKind),
    "InitScheme.kind": ("kind", ("random", "data_matrix"), InitScheme),
    "Dataset.kind": ("kind", ("regression", "classification"),
                     lambda v: Dataset(np.zeros((2, 1)), np.eye(2), None, v)),
    "load_csv.missing_policy": (
        "missing_policy", ("drop", "mean-impute"),
        lambda v: load_csv(CSV, missing_policy=v)),
    "load_csv.kind": ("kind", ("classification", "regression", "auto"),
                      lambda v: load_csv(CSV, kind=v)),
    "parse_structure": ("structure", None, parse_structure),
    "expand_template": ("template", None, lambda v: expand_template(v, 2, 2)),
    "parse_kind": ("activation", None, parse_kind),
}


def _bad_texts(entry):
    """Values that are not str, and for a choice a str that is none of them."""
    bad = {"int": 5, "list": ["identity"], "none": None, "bytes": b"identity"}
    if TEXTS[entry][1] is not None:
        bad["unknown"] = "foo"
    return bad


@pytest.mark.parametrize("entry, kind", [
    (entry, kind) for entry in TEXTS for kind in _bad_texts(entry)])
def test_text_that_is_not_a_str_or_not_a_choice_is_rejected_by_name(entry, kind):
    field, choices, call = TEXTS[entry]
    what = "text" if choices is None else "one of " + ", ".join(choices)
    with pytest.raises(InvalidArgumentError,
                       match=rf"^{re.escape(field)} must be {what}, got "):
        call(_bad_texts(entry)[kind])


def test_a_named_label_column_must_be_a_header_name(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f,label\n1.0,x\n2.0,y\n")
    assert load_csv(path, "label", header=True).class_labels == ("x", "y")
    with pytest.raises(InvalidArgumentError,
                       match=r"^label_column must be one of f, label, got 'g'$"):
        load_csv(path, "g", header=True)


@pytest.mark.parametrize("bad", ["h-q", "", [], ()])
def test_cv_search_templates_must_be_a_non_empty_sequence(bad):
    with pytest.raises(InvalidArgumentError,
                       match=r"^templates must be a non-empty sequence of templates"):
        _cv_search(2, bad)


def _cv_search_grid(grid):
    ds = Dataset(np.arange(12.0).reshape(6, 2), np.ones((6, 1)))
    return cv_search(ds, ["h-q"], grid, CvPlan(2, 1, 0),
                     TrainConfig(InitScheme.random(0)), SP)


@pytest.mark.parametrize("bad", [5, "24", b"24", None, [], (), {2, 4},
                                 np.array([], dtype=int), np.array(2),
                                 np.array([[2, 4]])])
def test_cv_search_h_grid_must_be_a_non_empty_sequence(bad):
    with pytest.raises(InvalidArgumentError,
                       match=r"^h_grid must be a non-empty sequence of ints, got "):
        _cv_search_grid(bad)


@pytest.mark.parametrize("grid", [np.array([2, 4]), np.array([4, 2], dtype=np.int32),
                                  range(2, 5, 2)])
def test_cv_search_h_grid_may_be_any_sequence_of_ints(grid):
    assert _cv_search_grid(grid) == _cv_search_grid([2, 4])


@pytest.mark.parametrize("bad", [["h-q"], 5, None])
def test_each_cv_search_template_must_be_text(bad):
    with pytest.raises(InvalidArgumentError, match=r"^template must be text, got "):
        _cv_search(2, ["h-q", bad])


@pytest.mark.parametrize("bad", [(1.0, 2.0, 3.0), (1.0,), 5, None])
def test_an_input_range_that_is_not_a_pair_is_rejected_by_name(bad):
    with pytest.raises(InvalidArgumentError,
                       match=r"^input_range must be a pair lo, hi, got "):
        VarianceConfig(input_range=bad)
    assert VarianceConfig(input_range=np.array([-1.0, 1.0])).input_range[1] == 1.0


def _csv(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text)
    return path


SPEC = NetworkSpec(2, (3, 2), SP)
FULL = WeightSet([np.ones((3, 3)), np.ones((3, 2))])

# (exception, message pattern, a call that must raise it): each rejection
# of a value's shape or content that no other test reaches
REJECTIONS = {
    "Dataset.rows": (InvalidArgumentError, "x and y must have the same row count",
                     lambda tmp: Dataset(np.zeros((3, 1)), np.zeros((2, 1)))),
    "Dataset.class_labels": (
        InvalidArgumentError, "class_labels length must equal",
        lambda tmp: Dataset(np.zeros((2, 1)), np.eye(2), ("a",), "classification")),
    "Dataset.labels": (InvalidArgumentError, "labels are defined for classification",
                       lambda tmp: Dataset(np.zeros((2, 1)), np.ones((2, 1))).labels),
    "load_csv.no_rows": (CsvParseError, "no data rows",
                         lambda tmp: load_csv(_csv(tmp, "a,b\n"), header=True)),
    "load_csv.header_width": (
        CsvParseError, "header width does not match",
        lambda tmp: load_csv(_csv(tmp, "a,b\n1,2,x\n"), header=True)),
    "load_csv.all_dropped": (CsvParseError, "every row was dropped",
                             lambda tmp: load_csv(_csv(tmp, "1,?\n2,?\n"))),
    "encode_targets.empty": (InvalidArgumentError, "no labels to encode",
                             lambda tmp: encode_targets([])),
    "accuracy.shape": (InvalidArgumentError, r"prediction shape \(2, 3\)",
                       lambda tmp: accuracy(np.ones((2, 3)), CLASSES)),
    "expand_template.width": (InvalidArgumentError, r"template '0-q' expands to \[0, 2\]",
                              lambda tmp: expand_template("0-q", 2, 2)),
    "cv_search.template_end": (InvalidArgumentError, "must end at the target width 1",
                               lambda tmp: _cv_search(2, ["h-3"])),
    "forward.x_columns": (InvalidArgumentError, "x_raw has 3 columns, spec.input_dim is 2",
                          lambda tmp: forward(SPEC, FULL, np.ones((4, 3)))),
    "forward.layer_count": (
        InvalidArgumentError, "weight set has 1 layers, spec has 2",
        lambda tmp: forward(SPEC, WeightSet([np.ones((3, 3))]), np.ones((4, 2)))),
    "receptive_mask.no_inputs": (InvalidArgumentError, "no unbiased inputs",
                                 lambda tmp: receptive_mask(1, 3, 1, True)),
    "solve_masked_layer.rows": (
        InvalidArgumentError, "a and t must have the same row count",
        lambda tmp: solve_masked_layer(np.ones((3, 2)), np.ones((2, 1)),
                                       np.ones((2, 1), bool))),
    "solve_masked_layer.mask": (
        InvalidArgumentError, r"mask shape \(3, 1\) != \(2, 1\)",
        lambda tmp: solve_masked_layer(np.ones((3, 2)), np.ones((3, 1)),
                                       np.ones((3, 1), bool))),
    "train.rows": (InvalidArgumentError, "x and y must have the same row count",
                   lambda tmp: train(SPEC, np.ones((4, 2)), np.ones((3, 2)),
                                     TrainConfig(InitScheme.random(0)))),
}


@pytest.mark.parametrize("entry", REJECTIONS)
def test_every_other_rejection_raises_its_error(tmp_path, entry):
    error, message, call = REJECTIONS[entry]
    with pytest.raises(error, match=message):
        call(tmp_path)
