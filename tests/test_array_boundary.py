"""The library's array boundary: functions take and return plain ndarrays,
Datasets hold read-only ones, and only the weights and forward's output
are Matrix, the type the benchmark reads `.array` on."""
import numpy as np
import pytest

from pinvnet.activations import ActivationKind, apply, invert, invert_with_count
from pinvnet.datasets import (
    Dataset,
    encode_targets,
    gen_regression,
    gen_spiral,
    load_csv,
    training_targets,
)
from pinvnet.linalg import Matrix, pinv
from pinvnet.network import WeightSet, augment, build_spec, forward, hidden_activation
from pinvnet.training import (
    InitScheme,
    TrainConfig,
    back_target,
    solve_masked_layer,
    train,
)

SP = ActivationKind.softplus08()
A = np.random.default_rng(0).uniform(-1, 1, (6, 3))
Y = np.random.default_rng(1).uniform(0.2, 1.5, (6, 2))
SPEC = build_spec("5-4^r3-2", 2, SP)
CLASSES = Dataset(A[:, :2], encode_targets([0, 1, 0, 1, 1, 0]), ("a", "b"),
                  "classification")


def _weights():
    return WeightSet([np.ones((3, 5)), np.ones((5, 4)), np.ones((4, 2))])


def _intermediates(tmp_path):
    cfg = TrainConfig(InitScheme.random(0), record_intermediates=True)
    report = train(SPEC, A[:, :2], Y, cfg)
    return [r[key] for r in report.intermediates for key in ("design", "target")]


def _load_csv(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2,a\n3,4,b\n5,6,a\n")
    return [load_csv(p), load_csv(p, label_column=0, kind="regression")]


CASES = {
    "pinv": lambda tmp_path: [pinv(Matrix(A))],
    "apply": lambda tmp_path: [apply(SP, Matrix(A))],
    "invert": lambda tmp_path: [invert(SP, Matrix(Y))],
    "invert_with_count": lambda tmp_path: [invert_with_count(SP, Matrix(Y))[0]],
    "augment": lambda tmp_path: [augment(Matrix(A))],
    "hidden_activation": lambda tmp_path: [
        hidden_activation(SPEC, _weights(), A[:, :2], k) for k in (0, 2)],
    "back_target": lambda tmp_path: [
        back_target(Matrix(Y), [Matrix(np.eye(2))], [SP], False)],
    "solve_masked_layer": lambda tmp_path: [
        solve_masked_layer(Matrix(A), Y, np.eye(3, 2, dtype=bool))],
    "TrainReport.intermediates": _intermediates,
    "encode_targets": lambda tmp_path: [encode_targets(["x", "y", "x"])],
    "training_targets": lambda tmp_path: [
        training_targets(CLASSES, False), training_targets(CLASSES, True)],
    "Dataset": lambda tmp_path: [Dataset(Matrix(A), Y.tolist())],
    "Dataset.subset": lambda tmp_path: [CLASSES.subset([0, 2, 3])],
    "gen_regression": lambda tmp_path: [*gen_regression(1, 0.1)[0],
                                        gen_regression()[1]],
    "gen_spiral": lambda tmp_path: list(gen_spiral(3, 4)),
    "load_csv": _load_csv,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_library_returns_plain_arrays_and_read_only_datasets(name, tmp_path):
    values = CASES[name](tmp_path)
    assert values
    for value in values:
        if isinstance(value, Dataset):
            for field in (value.x, value.y):
                assert type(field) is np.ndarray
                assert not field.flags.writeable
        else:
            assert type(value) is np.ndarray


def test_weights_and_forward_output_stay_matrix():
    # the benchmark reads .array on exactly these two results
    report = train(SPEC, A[:, :2], Y, TrainConfig(InitScheme.random(0)))
    assert len(report.weights.weights) == 3
    out = forward(SPEC, report.weights, A[:, :2])
    for m in (*report.weights.weights, out):
        assert type(m) is Matrix
        assert type(m.array) is np.ndarray
        assert not m.array.flags.writeable
