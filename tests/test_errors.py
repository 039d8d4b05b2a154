"""Every setting that enters the library is checked by one rule per kind,
else InvalidArgumentError names the field: a count or seed must be an int
at or above its floor, a real setting a finite number at or above (or, for
a strict floor, above) its floor, a switch a bool, a text setting a str,
one of its choices where it has them, a library-object setting an
instance of its class, a container setting a non-empty sequence and a path
a str, bytes or PathLike. A bool is not a number, and a string is neither.
The last tables reach every other rejection once, and a sweep gives every
public parameter a stand-in of each kind."""
import contextlib
import inspect
import math
import os
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import pinvnet
from pinvnet import parallel
from pinvnet.activations import ActivationKind, apply, format_kind, invert, parse_kind
from pinvnet.analysis import (VarianceConfig, VarianceReport, mc_output_variance,
                              solution_count, write_variance_csv)
from pinvnet.datasets import (CvPlan, Dataset, accuracy, cv_search, gen_regression,
                              gen_spiral, load_csv, stratified_kfold, training_targets,
                              write_dataset_csv)
from pinvnet.errors import CsvParseError, DomainViolationError, InvalidArgumentError, PinvnetError
from pinvnet.linalg import PinvOptions, penrose_residual, pinv, sse, write_matrix_csv
from pinvnet.network import (NetworkSpec, WeightSet, build_spec, forward, hidden_activation,
                             parse_structure)
from pinvnet.training import InitScheme, TrainConfig, solve_masked_layer, train

SP = ActivationKind.softplus08()


def _cv_search(h, templates=("h-q",)):
    ds = Dataset(np.arange(12.0).reshape(6, 2), np.ones((6, 1)))
    return cv_search(ds, templates, [h], CvPlan(2, 1, 0),
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
    "build_spec.input_dim": ("input_dim", 1, lambda v: build_spec("3^r3-1", v, SP)),
    "hidden_activation.upto_layer": (
        "upto_layer", 0, lambda v: hidden_activation(SPEC, FULL, np.ones((4, 2)), v)),
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
        train(NetworkSpec(1, (3, 3), SP), np.ones((1, 1)), below,
              TrainConfig(InitScheme.random(0), clamp_margin=margin))
    assert TrainConfig(InitScheme.random(0), clamp_margin=margin).clamp_margin == 0


CLASSES = Dataset(np.zeros((2, 1)), np.eye(2), ("a", "b"), "classification")

SWITCHES = {
    "CvPlan.stratified": ("stratified", lambda v: CvPlan(2, 1, 0, v)),
    "NetworkSpec.linear_output": ("linear_output", lambda v: NetworkSpec(2, (3,), SP, v)),
    "build_spec.linear_output": ("linear_output", lambda v: build_spec("3^r3-1", 2, SP, v)),
    "load_csv.header": ("header", lambda v: load_csv(CSV, header=v)),
    "training_targets.linear_output": (
        "linear_output", lambda v: training_targets(CLASSES, v)),
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
    "build_spec.structure": ("structure", None, lambda v: build_spec(v, 2, SP)),
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


SPEC = NetworkSpec(2, (3, 2), SP)
FULL = WeightSet([np.ones((3, 3)), np.ones((3, 2))])
DS = Dataset(np.arange(12.0).reshape(6, 2), np.ones((6, 1)))
CFG = TrainConfig(InitScheme.random(0))
X = np.ones((4, 2))


def _ordered(v):
    return InitScheme.random(solve_order=v)


def _labelled(v):
    return Dataset(np.zeros((2, 1)), np.eye(2), v, "classification")


def _typed(field, cls, call, look_alike):
    """A TYPES row for a setting that must be a `cls`: None, and a look-alike
    of another type, are rejected."""
    return field, f"a {cls.__name__}", call, (None, look_alike)


REPORT = VarianceReport((1.0,), (0.0,), (2,))
# an int path is taken as a file descriptor; this one is far past any this
# process holds open, so a writer that took it could write nowhere
FD = 2 ** 30
PATH = "a str or bytes or PathLike"


def _no_sequence(field, what, call, *bad):
    """A TYPES row for a container setting given a value that is no
    non-empty sequence: a set, whose order is arbitrary, an empty one, a
    generator, an array of the wrong rank or a number."""
    return field, f"a non-empty sequence of {what}", call, bad


# (field as the message names it, what it must be, a call that passes value
# there, the bad values): each library-object setting is called with None
# and with its variant's string, a dict of its fields or a list of its
# weight arrays; then the values a data_matrix scheme does not read, solve
# orders that are not ints, class labels that are not a sequence of str,
# containers that are no sequence and paths that are no path
TYPES = {
    "NetworkSpec.activation": _typed("activation", ActivationKind,
                                     lambda v: NetworkSpec(2, (3,), v), "softplus08"),
    "VarianceConfig.activation": _typed("activation", ActivationKind,
                                        lambda v: VarianceConfig(activation=v), "exp_scaled"),
    "TrainConfig.init": _typed("init", InitScheme, TrainConfig,
                               asdict(InitScheme.random(0))),
    "TrainConfig.pinv_opts": _typed("pinv_opts", PinvOptions,
                                    lambda v: TrainConfig(InitScheme.random(0), v),
                                    asdict(PinvOptions())),
    "train.spec": _typed("spec", NetworkSpec, lambda v: train(v, X, X, CFG), asdict(SPEC)),
    "train.cfg": _typed("cfg", TrainConfig, lambda v: train(SPEC, X, X, v), asdict(CFG)),
    "hidden_activation.spec": _typed("spec", NetworkSpec,
                                     lambda v: hidden_activation(v, FULL, X, 1), asdict(SPEC)),
    "hidden_activation.w": _typed("w", WeightSet, lambda v: hidden_activation(SPEC, v, X, 1),
                                  [w.array for w in FULL.weights]),
    "forward.spec": _typed("spec", NetworkSpec, lambda v: forward(v, FULL, X), asdict(SPEC)),
    "forward.w": _typed("w", WeightSet, lambda v: forward(SPEC, v, X),
                        [w.array for w in FULL.weights]),
    "cv_search.ds": _typed("ds", Dataset,
                           lambda v: cv_search(v, ["h-q"], [2], CvPlan(2, 1, 0), CFG, SP),
                           {"x": DS.x, "y": DS.y}),
    "cv_search.plan": _typed("plan", CvPlan,
                             lambda v: cv_search(DS, ["h-q"], [2], v, CFG, SP),
                             asdict(CvPlan(2, 1, 0))),
    "cv_search.cfg": _typed("cfg", TrainConfig,
                            lambda v: cv_search(DS, ["h-q"], [2], CvPlan(2, 1, 0), v, SP),
                            asdict(CFG)),
    "cv_search.activation": _typed(
        "activation", ActivationKind,
        lambda v: cv_search(DS, ["h-q"], [2], CvPlan(2, 1, 0), CFG, v), "softplus08"),
    "stratified_kfold.ds": _typed("ds", Dataset,
                                  lambda v: stratified_kfold(v, CvPlan(2, 1, 0)),
                                  {"x": DS.x, "y": DS.y}),
    "stratified_kfold.plan": _typed("plan", CvPlan, lambda v: stratified_kfold(DS, v),
                                    asdict(CvPlan(2, 1, 0))),
    "mc_output_variance.cfg": _typed("cfg", VarianceConfig, mc_output_variance,
                                     asdict(VarianceConfig(trials=2))),
    "pinv.opts": _typed("opts", PinvOptions, lambda v: pinv(np.eye(2), v),
                        asdict(PinvOptions())),
    "apply.kind": _typed("kind", ActivationKind, lambda v: apply(v, Y), "softplus08"),
    "invert.kind": _typed("kind", ActivationKind, lambda v: invert(v, Y), "softplus08"),
    "format_kind.kind": _typed("kind", ActivationKind, format_kind, "softplus08"),
    "InitScheme.data_matrix_seed": ("seed", "0 under data_matrix init",
                                    lambda v: InitScheme("data_matrix", seed=v), (5,)),
    "InitScheme.data_matrix_scale_c": ("scale_c", "1.0 under data_matrix init",
                                       lambda v: InitScheme("data_matrix", scale_c=v),
                                       (3.0,)),
    "InitScheme.solve_order_bool_first": ("solve_order[0]", "an int >= 1", _ordered,
                                          ((True, 2),)),
    "InitScheme.solve_order_bool_second": ("solve_order[1]", "an int >= 1", _ordered,
                                           ((2, True),)),
    "InitScheme.solve_order_floats": ("solve_order[0]", "an int >= 1", _ordered,
                                      ((1.0, 2.0),)),
    "InitScheme.solve_order_text": ("solve_order[0]", "an int >= 1", _ordered,
                                    (("2", "1"),)),
    "Dataset.class_labels_text": ("class_labels", "a non-empty sequence of str", _labelled,
                                  ("ab",)),
    "Dataset.class_labels_ints": ("class_labels[0]", "text", _labelled, ((1, 2),)),
    "training_targets.ds": _typed("ds", Dataset, lambda v: training_targets(v, False),
                                  {"x": DS.x, "y": DS.y}),
    "accuracy.truth": _typed("truth", Dataset, lambda v: accuracy(np.eye(2), v),
                             {"x": DS.x, "y": DS.y}),
    "write_dataset_csv.ds": _typed("ds", Dataset, lambda v: write_dataset_csv(v, os.devnull),
                                   {"x": DS.x, "y": DS.y}),
    "write_variance_csv.report": _typed("report", VarianceReport,
                                        lambda v: write_variance_csv(v, os.devnull),
                                        asdict(REPORT)),
    "NetworkSpec.widths": _no_sequence("widths", "ints", lambda v: NetworkSpec(2, v, SP),
                                       {30, 4}),
    "NetworkSpec.receptive_fields": _no_sequence(
        "receptive_fields", "odd ints or None",
        lambda v: NetworkSpec(2, (3, 5), SP, receptive_fields=v), {None, 3}),
    "InitScheme.solve_order": _no_sequence("solve_order", "ints", _ordered, {3, 1, 2}, (), 5),
    "VarianceConfig.input_range": _no_sequence(
        "input_range", "two numbers", lambda v: VarianceConfig(input_range=v), {-5.0, 5.0}),
    "WeightSet.weights": _no_sequence("weights", "arrays", WeightSet,
                                      (np.ones((3, 3)) for _ in range(2)),
                                      np.ones((2, 3, 3))),
    "load_csv.path": ("path", PATH, load_csv, (None, FD)),
    "write_matrix_csv.path": ("path", PATH, lambda v: write_matrix_csv(np.ones((1, 2)), v),
                              (None, FD)),
    "write_dataset_csv.path": ("path", PATH, lambda v: write_dataset_csv(DS, v), (None, FD)),
    "write_variance_csv.path": ("path", PATH, lambda v: write_variance_csv(REPORT, v),
                                (None, FD)),
}


@pytest.mark.parametrize("entry, bad", [
    pytest.param(entry, bad, id=f"{entry}-{type(bad).__name__}")
    for entry in TYPES for bad in TYPES[entry][3]])
def test_a_setting_of_the_wrong_type_or_unread_is_rejected_by_name(entry, bad):
    field, what, call, _ = TYPES[entry]
    with pytest.raises(InvalidArgumentError,
                       match=rf"^{re.escape(field)} must be {re.escape(what)}, got "):
        call(bad)


def test_what_each_scheme_reads_passes_and_class_labels_become_a_tuple():
    assert InitScheme("data_matrix", np.int64(0), 1).scale_c == 1
    assert InitScheme.random(solve_order=[np.int64(2), 1]).solve_order == (2, 1)
    labels = Dataset(np.zeros((2, 1)), np.eye(2), ["a", np.str_("b")],
                     "classification").class_labels
    assert labels == ("a", "b") and type(labels) is tuple


@pytest.mark.parametrize("seq", [range(5, 1, -2), np.array([5, 3]), [5, 3]],
                         ids=["range", "array", "list"])
def test_every_container_setting_takes_a_sequence_and_keeps_a_tuple(seq):
    spec = NetworkSpec(2, seq, SP, receptive_fields=seq)
    assert spec.widths == spec.receptive_fields == (5, 3)
    assert InitScheme.random(solve_order=seq).solve_order == (5, 3)
    assert VarianceConfig(input_range=seq[::-1]).input_range == (3, 5)
    assert all(type(v) is tuple for v in (spec.widths, spec.receptive_fields))


# a set or dict would let the tie-break read hash order
@pytest.mark.parametrize("bad", ["h-q", "", [], (), pytest.param(b"h-q", id="bytes"),
                                 None, {"h-q"}, frozenset({"h-q"}), {"h-q": 1},
                                 np.array([], dtype=str), np.array("h-q"),
                                 np.array([["h-q"]])])
def test_cv_search_templates_must_be_a_non_empty_sequence(bad):
    with pytest.raises(InvalidArgumentError,
                       match=r"^templates must be a non-empty sequence of templates, got "):
        _cv_search(2, bad)


@pytest.mark.parametrize("templates", [np.array(["h-q", "2h-h-q"]), ("h-q", "2h-h-q")])
def test_cv_search_templates_may_be_any_sequence_of_str(templates):
    got = _cv_search(2, templates)
    assert got == _cv_search(2, ["h-q", "2h-h-q"])
    assert type(got.template) is str


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


@pytest.mark.parametrize("bad", [["h-q"], 5, None, pytest.param(b"h-q", id="bytes")])
def test_each_cv_search_template_must_be_text(bad):
    with pytest.raises(InvalidArgumentError, match=r"^template must be text, got "):
        _cv_search(2, ["h-q", bad])


# a sequence of another length is no pair; anything else is no sequence
@pytest.mark.parametrize("bad, what", [
    pytest.param((1.0, 2.0, 3.0), "a pair lo, hi", id="bad0"),
    pytest.param((1.0,), "a pair lo, hi", id="bad1"),
    pytest.param(5, "a non-empty sequence of two numbers", id="5"),
    pytest.param(None, "a non-empty sequence of two numbers", id="None")])
def test_an_input_range_that_is_not_a_pair_is_rejected_by_name(bad, what):
    with pytest.raises(InvalidArgumentError, match=rf"^input_range must be {what}, got "):
        VarianceConfig(input_range=bad)
    assert VarianceConfig(input_range=np.array([-1.0, 1.0])).input_range[1] == 1.0


def _csv(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text)
    return path


# (exception, message pattern, a call that must raise it): each rejection
# of a value's shape or content, by the message no other test pins
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
    "accuracy.shape": (InvalidArgumentError, r"prediction shape \(2, 3\)",
                       lambda tmp: accuracy(np.ones((2, 3)), CLASSES)),
    "cv_search.template_width": (InvalidArgumentError, r"template '0-q' expands to \[0, 1\]",
                                 lambda tmp: _cv_search(2, ["0-q"])),
    "cv_search.template_end": (InvalidArgumentError, "must end at the target width 1",
                               lambda tmp: _cv_search(2, ["h-3"])),
    "forward.x_columns": (InvalidArgumentError, "x_raw has 3 columns, spec.input_dim is 2",
                          lambda tmp: forward(SPEC, FULL, np.ones((4, 3)))),
    "forward.layer_count": (
        InvalidArgumentError, "weight set has 1 layers, spec has 2",
        lambda tmp: forward(SPEC, WeightSet([np.ones((3, 3))]), np.ones((4, 2)))),
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
    "train.y_columns": (InvalidArgumentError, "y has 1 columns, output width is 2",
                        lambda tmp: train(SPEC, np.ones((4, 2)), np.ones((4, 1)),
                                          TrainConfig(InitScheme.random(0)))),
    "train.solve_order": (
        InvalidArgumentError, r"solve_order must be a permutation of 1\.\.1, got \[2\]",
        lambda tmp: train(SPEC, np.ones((4, 2)), np.ones((4, 2)),
                          TrainConfig(InitScheme.random(0, solve_order=(2,))))),
    "train.data_matrix_widths": (
        InvalidArgumentError, "every hidden width equal to the sample count 4, got 3",
        lambda tmp: train(SPEC, np.ones((4, 2)), np.ones((4, 2)),
                          TrainConfig(InitScheme.data_matrix()))),
    "train.data_matrix_bands": (
        InvalidArgumentError, "banded layers cannot hold pseudoinverse-valued weights",
        lambda tmp: train(build_spec("4^r1-2", 2, SP), np.ones((4, 2)), np.ones((4, 2)),
                          TrainConfig(InitScheme.data_matrix()))),
    "InitScheme.data_matrix_order": (
        InvalidArgumentError, "data_matrix init is inherently sequential; no custom order",
        lambda tmp: InitScheme("data_matrix", solve_order=(1,))),
    # NetworkSpec is the one check of what the band masks are built from
    "NetworkSpec.even_band": (InvalidArgumentError, "^receptive field must be odd, got 2$",
                              lambda tmp: build_spec("5^r2-1", 2, SP)),
    "NetworkSpec.no_layers": (InvalidArgumentError,
                              r"^widths must be a non-empty sequence of ints, got \(\)$",
                              lambda tmp: NetworkSpec(2, (), SP)),
    "NetworkSpec.band_count": (
        InvalidArgumentError, "^1 receptive fields for 2 layers$",
        lambda tmp: NetworkSpec(2, (3, 1), SP, receptive_fields=(3,))),
    "parse_structure.token": (InvalidArgumentError, "^bad structure token '' in '4--2'$",
                              lambda tmp: parse_structure("4--2")),
    "hidden_activation.upto_layer_range": (
        InvalidArgumentError, r"^upto_layer must be in \[0, 1\], got 2$",
        lambda tmp: hidden_activation(SPEC, FULL, np.ones((4, 2)), 2)),
    "forward.weight_shape": (
        InvalidArgumentError, r"^layer 1 weight is \(4, 3\), expected \(3, 3\)$",
        lambda tmp: forward(SPEC, WeightSet([np.ones((4, 3)), np.ones((3, 2))]),
                            np.ones((4, 2)))),
    "cv_search.template_token": (InvalidArgumentError, "^bad template token 'qq' in 'h-qq'$",
                                 lambda tmp: _cv_search(2, ["h-qq"])),
    "stratified_kfold.folds": (
        InvalidArgumentError, "^folds=3 exceeds samples=2$",
        lambda tmp: stratified_kfold(Dataset(np.eye(2), np.ones((2, 1))),
                                     CvPlan(3, 1, 0))),
    "ActivationKind.unused_alpha": (InvalidArgumentError, "^softplus takes no alpha, got 0.5$",
                                    lambda tmp: ActivationKind("softplus", 0.5)),
    "parse_kind.unknown": (InvalidArgumentError, "^unknown activation string 'relu'$",
                           lambda tmp: parse_kind("relu")),
    "parse_kind.alpha": (InvalidArgumentError, "^bad exp_scaled alpha in 'exp:abc'$",
                         lambda tmp: parse_kind("exp:abc")),
    "gen_spiral.odd_per_arm": (InvalidArgumentError, "^per_arm must be even, got 7$",
                               lambda tmp: gen_spiral(3, 7)),
    "gen_regression.noise_span": (
        InvalidArgumentError, "^noise_frac 1.7e.308 gives an infinite noise span$",
        lambda tmp: gen_regression(1, 1.7e308)),
    "VarianceConfig.input_range_order": (
        InvalidArgumentError, r"^input_range must have lo < hi and a finite span, got ",
        lambda tmp: VarianceConfig(input_range=(5.0, -5.0))),
    "Dataset.one_hot": (
        InvalidArgumentError, "^classification targets must have one maximal entry per row$",
        lambda tmp: Dataset(np.eye(2), np.ones((2, 2)), ("a", "b"), "classification")),
    "load_csv.label_name": (
        InvalidArgumentError, "^label_column by name requires header=True$",
        lambda tmp: load_csv(CSV, "label")),
    "load_csv.label_range": (
        InvalidArgumentError, "^label column 9 out of range for 3 columns$",
        lambda tmp: load_csv(_csv(tmp, "1,2,a\n3,4,b\n"), label_column=9)),
    "load_csv.fields": (CsvParseError, "^line 2: expected 3 fields, got 2",
                        lambda tmp: load_csv(_csv(tmp, "1.0,2.0,a\n3.0,b\n"))),
    "load_csv.regression_target": (
        CsvParseError, "^line 1: non-numeric regression target 'abc'",
        lambda tmp: load_csv(_csv(tmp, "1.0,abc\n"), kind="regression")),
    "as_array.ndim": (InvalidArgumentError, "^y must be 2-D, got ndim=1$",
                      lambda tmp: sse(np.ones((1, 2)), [1.0, 2.0])),
    "as_array.empty": (InvalidArgumentError, r"^g shape \(0, 3\) has a zero dimension$",
                       lambda tmp: sse(np.empty((0, 3)), np.ones((1, 3)))),
    "as_array.finite": (InvalidArgumentError, "^x_raw entries must be finite$",
                        lambda tmp: forward(SPEC, FULL, [[1.0, np.nan]])),
    # a value numpy cannot convert is named by its type, not its repr
    "as_array.set": (InvalidArgumentError, "^g must be an array of numbers, got a set$",
                     lambda tmp: sse({1, 2}, np.ones((1, 2)))),
    "as_array.text": (InvalidArgumentError, "^pred must be an array of numbers, got a str$",
                      lambda tmp: accuracy("ab", CLASSES)),
    "as_array.ragged": (InvalidArgumentError, "^weight must be an array of numbers, got a list$",
                        lambda tmp: WeightSet([[[1.0], [1.0, 2.0]]])),
    "sse.shape": (InvalidArgumentError, r"^shape mismatch: \(2, 2\) vs \(2, 3\)$",
                  lambda tmp: sse(np.ones((2, 2)), np.ones((2, 3)))),
    "penrose_residual.shape": (
        InvalidArgumentError, r"^shape mismatch: a is \(3, 2\), a_dag is \(3, 2\)$",
        lambda tmp: penrose_residual(np.ones((3, 2)), np.ones((3, 2)))),
}


@pytest.mark.parametrize("entry", REJECTIONS)
def test_every_other_rejection_raises_its_error(tmp_path, entry):
    error, message, call = REJECTIONS[entry]
    with pytest.raises(error, match=message):
        call(tmp_path)


# one valid call of each public function and settings class, every
# parameter given by keyword; a writer's relative path lands in the test's
# working directory
VALID = {
    "ActivationKind": dict(variant="exp_scaled", alpha=0.5),
    "apply": dict(kind=SP, a=Y),
    "format_kind": dict(kind=SP),
    "invert": dict(kind=SP, y=Y, clamp_margin=1e-9),
    "parse_kind": dict(text="softplus08"),
    "VarianceConfig": dict(m=4, d=2, input_range=(-5.0, 5.0), noise_scale=1.0, trials=2,
                           max_depth=2, activation=SP, seed=0),
    "mc_output_variance": dict(cfg=VarianceConfig(m=4, d=2, trials=2, max_depth=2)),
    "solution_count": dict(n=3),
    "write_variance_csv": dict(report=REPORT, path="variance.csv"),
    "Dataset": dict(x=np.zeros((2, 1)), y=np.eye(2), class_labels=("a", "b"),
                    kind="classification"),
    "CvPlan": dict(folds=2, trials=1, seed=0, stratified=True),
    "gen_regression": dict(noisy_sets=1, noise_frac=0.1, seed=0),
    "gen_spiral": dict(arms=2, per_arm=4, noise=0.3, seed=0),
    "load_csv": dict(path=CSV, label_column=-1, header=False, missing_policy="drop",
                     kind="classification"),
    "stratified_kfold": dict(ds=DS, plan=CvPlan(2, 1, 0)),
    "accuracy": dict(pred=np.eye(2), truth=CLASSES),
    "training_targets": dict(ds=CLASSES, linear_output=False),
    "cv_search": dict(ds=DS, templates=["h-q"], h_grid=[2], plan=CvPlan(2, 1, 0), cfg=CFG,
                      activation=SP, linear_output=False),
    "write_dataset_csv": dict(ds=CLASSES, path="data.csv"),
    "PinvOptions": dict(tolerance=None, ridge=0.0),
    "pinv": dict(a=np.eye(2), opts=PinvOptions()),
    "penrose_residual": dict(a=np.eye(2), a_dag=np.eye(2)),
    "sse": dict(g=Y, y=Y),
    "write_matrix_csv": dict(a=Y, path="matrix.csv"),
    "NetworkSpec": dict(input_dim=2, widths=(3, 2), activation=SP, linear_output=False,
                        receptive_fields=(None, 3)),
    "WeightSet": dict(weights=FULL.weights),
    "forward": dict(spec=SPEC, w=FULL, x_raw=X),
    "hidden_activation": dict(spec=SPEC, w=FULL, x_raw=X, upto_layer=1),
    "parse_structure": dict(text="3^r3-1"),
    "build_spec": dict(structure="3^r3-1", input_dim=2, activation=SP, linear_output=False),
    "InitScheme": dict(kind="random", seed=0, scale_c=1.0, solve_order=(1,)),
    "TrainConfig": dict(init=InitScheme.random(0), pinv_opts=PinvOptions(),
                        clamp_margin=1e-9),
    "train": dict(spec=SPEC, x_raw=X, y=X, cfg=CFG),
}
# the exception classes, the result records, and Matrix, which is to go
NOT_SWEPT = {"PinvnetError", "InvalidArgumentError", "DomainViolationError",
             "CsvParseError", "CvResult", "VarianceReport", "TrainReport", "Matrix",
             "__version__"}
# stand-ins for a parameter: the first must raise a PinvnetError, the rest
# may also return
MUST_RAISE = {"set": lambda: {1, 2}, "object": object}
MAY_RETURN = {"None": lambda: None, "int": lambda: 5, "text": lambda: "ab",
              "float": lambda: 2.5, "nested list": lambda: [[1]]}


def _leak(call, kwargs, param, stand_in):
    """None if the call raises a PinvnetError, "returned" if it returns,
    else the name of the error that leaked; a text path that does not
    exist may raise FileNotFoundError."""
    try:
        call(**kwargs)
    except PinvnetError:
        return None
    except FileNotFoundError:
        return None if param == "path" and isinstance(stand_in, str) else "FileNotFoundError"
    except Exception as exc:  # noqa: BLE001 - the leak is the finding
        return type(exc).__name__
    return "returned"


def test_every_public_callable_has_one_valid_call_giving_each_parameter():
    swept = {name for name in pinvnet.__all__ if name not in NOT_SWEPT}
    assert swept == set(VALID)
    for name, kwargs in VALID.items():
        assert list(kwargs) == list(inspect.signature(getattr(pinvnet, name)).parameters), name


def test_no_public_parameter_leaks_a_non_library_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 1)
    leaks = []
    for name, kwargs in VALID.items():
        call = getattr(pinvnet, name)
        call(**kwargs)
        for param in kwargs:
            for kind, make in {**MUST_RAISE, **MAY_RETURN}.items():
                # an int path is a descriptor: hand over one this test owns
                fds = os.pipe() if param == "path" and kind == "int" else ()
                stand_in = fds[1] if fds else make()
                try:
                    got = _leak(call, {**kwargs, param: stand_in}, param, stand_in)
                finally:
                    for fd in fds:  # an end the call closed is already gone
                        with contextlib.suppress(OSError):
                            os.close(fd)
                if got is not None and not (got == "returned" and kind in MAY_RETURN):
                    leaks.append(f"{name}({param}={kind}): {got}")
    assert not leaks, "\n".join(leaks)
