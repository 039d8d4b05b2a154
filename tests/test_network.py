import numpy as np
import pytest

from pinvnet.activations import ActivationKind
from pinvnet.errors import InvalidArgumentError
from pinvnet.network import (
    LayerSpec,
    NetworkSpec,
    WeightSet,
    augment,
    build_spec,
    default_masks,
    format_structure,
    forward,
    hidden_activation,
    parse_structure,
    receptive_mask,
)

SP = ActivationKind.softplus08()
ID = ActivationKind.identity()


def _spec(widths, input_dim, activation=ID, linear_output=True, fields=None):
    fields = fields or [None] * len(widths)
    layers = tuple(LayerSpec(w, r, activation) for w, r in zip(widths, fields))
    return NetworkSpec(input_dim, layers, linear_output)


def test_augment_prepends_a_ones_column():
    a = augment(np.array([[2.0, 3.0], [4.0, 5.0]]))
    assert np.array_equal(a, [[1.0, 2.0, 3.0], [1.0, 4.0, 5.0]])


def test_receptive_mask_worked_example():
    # 4 data inputs + bias, 4 outputs, window 3: centers walk the data rows
    # and the window includes the bias row when it reaches the top
    m = receptive_mask(5, 4, 3, biased_input=True)
    cols = [set(np.flatnonzero(m[:, j]) + 1) for j in range(4)]
    assert cols == [{1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {3, 4, 5}]


def test_receptive_mask_window_never_shrinks_at_edges():
    for in_dim in (4, 5, 9):
        for width in (1, 2, 3, 7):
            for r in (1, 3):
                m = receptive_mask(in_dim, width, r, biased_input=False)
                assert m.shape == (in_dim, width)
                assert (m.sum(axis=0) == min(r, in_dim)).all()


def test_receptive_mask_wider_than_input_connects_everything():
    m = receptive_mask(4, 3, 9, biased_input=True)
    assert m.all()


def test_receptive_mask_rejects_even_or_nonpositive_window():
    with pytest.raises(InvalidArgumentError):
        receptive_mask(5, 4, 2, biased_input=True)
    with pytest.raises(InvalidArgumentError):
        receptive_mask(5, 4, 0, biased_input=True)


def test_parse_structure_with_receptive_annotations():
    assert parse_structure("30-50^r3-250-6") == [
        (30, None), (50, 3), (250, None), (6, None),
    ]


@pytest.mark.parametrize("bad", ["", "4--2", "a-b", "3^r"])
def test_parse_structure_rejects_malformed_tokens(bad):
    with pytest.raises(InvalidArgumentError):
        parse_structure(bad)


@pytest.mark.parametrize("bad", ["0-4", "5^r2-1", "3^r4-1"])
def test_build_spec_rejects_semantically_invalid_structures(bad):
    # zero widths and even or oversized-looking bands parse but fail layer
    # validation
    with pytest.raises(InvalidArgumentError):
        build_spec(bad, input_dim=2, activation=SP, linear_output=False)


def test_build_spec_and_format_round_trip():
    spec = build_spec("8^r3-4-1", input_dim=2, activation=SP,
                      linear_output=True)
    assert format_structure(spec) == "8^r3-4-1"
    assert spec.n_layers == 3
    assert spec.widths == (8, 4, 1)
    assert spec.in_dims == (3, 8, 4)
    assert spec.linear_output


def test_default_masks_only_first_layer_sees_bias():
    spec = build_spec("4^r3-4^r3-2", input_dim=4, activation=SP,
                      linear_output=False)
    masks = default_masks(spec)
    assert masks[2] is None
    assert masks[0].shape == (5, 4)  # bias + 4 inputs
    assert masks[1].shape == (4, 4)  # hidden activations come unaugmented


def test_weight_set_zeroes_cells_outside_the_mask():
    mask = np.array([[True, False], [False, True]])
    ws = WeightSet([np.ones((2, 2))], [mask])
    assert np.array_equal(ws.weights[0].array, [[1.0, 0.0], [0.0, 1.0]])
    assert not ws.masks[0].flags.writeable


def test_weight_set_leaves_the_callers_mask_writable():
    mask = np.array([[True, False], [False, True]])
    WeightSet([np.ones((2, 2))], [mask])
    assert mask.flags.writeable


def test_forward_is_plain_affine_chain_for_identity_linear_net():
    spec = _spec([3, 2], input_dim=2)
    rng = np.random.default_rng(0)
    w1, w2 = rng.standard_normal((3, 3)), rng.standard_normal((3, 2))
    x = rng.standard_normal((5, 2))
    out = forward(spec, WeightSet([w1, w2], [None, None]), x)
    assert np.allclose(out.array, augment(x) @ w1 @ w2, atol=1e-14)


def test_forward_applies_output_activation_unless_linear():
    x = np.array([[1.0]])
    w = WeightSet([np.array([[0.0], [0.0]])], [None])
    curved = _spec([1], 1, activation=SP, linear_output=False)
    flat = _spec([1], 1, activation=SP, linear_output=True)
    assert forward(curved, w, x).array[0, 0] == pytest.approx(np.log(1.8))
    assert forward(flat, w, x).array[0, 0] == 0.0


def test_hidden_activation_stage_zero_is_the_augmented_input():
    spec = _spec([2, 1], 2, activation=SP, linear_output=False)
    rng = np.random.default_rng(1)
    w = WeightSet([rng.standard_normal((3, 2)), rng.standard_normal((2, 1))],
                  [None, None])
    x = rng.standard_normal((4, 2))
    a0 = hidden_activation(spec, w, x, 0)
    assert np.array_equal(a0, augment(x))
    a1 = hidden_activation(spec, w, x, 1)
    assert a1.shape == (4, 2)


def test_forward_rejects_mismatched_weight_shapes():
    spec = _spec([3, 2], 2)
    bad = WeightSet([np.ones((4, 3)), np.ones((3, 2))], [None, None])
    with pytest.raises(InvalidArgumentError):
        forward(spec, bad, np.ones((5, 2)))


def test_network_spec_validates_dimensions():
    with pytest.raises(InvalidArgumentError):
        NetworkSpec(0, (LayerSpec(3),))
    with pytest.raises(InvalidArgumentError):
        NetworkSpec(2, ())
    with pytest.raises(InvalidArgumentError):
        LayerSpec(0)
