import numpy as np
import pytest

from pinvnet.activations import ActivationKind
from pinvnet.errors import InvalidArgumentError
from pinvnet.network import (
    NetworkSpec,
    WeightSet,
    _default_masks,
    _input_design,
    _receptive_mask,
    build_spec,
    forward,
    hidden_activation,
    parse_structure,
)

SP = ActivationKind.softplus08()
ID = ActivationKind.identity()


def _spec(widths, input_dim, activation=ID, linear_output=True):
    return NetworkSpec(input_dim, widths, activation, linear_output)


def _augment(x):
    return np.hstack([np.ones((len(x), 1)), x])


def test_augment_prepends_a_ones_column():
    a = _input_design(_spec([1], 2), np.array([[2.0, 3.0], [4.0, 5.0]]))
    assert np.array_equal(a, [[1.0, 2.0, 3.0], [1.0, 4.0, 5.0]])


def test_receptive_mask_worked_example():
    # 4 data inputs + bias, 4 outputs, window 3: centers walk the data rows
    # and the window includes the bias row when it reaches the top
    m = _receptive_mask(5, 4, 3, biased_input=True)
    cols = [set(np.flatnonzero(m[:, j]) + 1) for j in range(4)]
    assert cols == [{1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {3, 4, 5}]


def test_receptive_mask_window_never_shrinks_at_edges():
    for in_dim in (4, 5, 9):
        for width in (1, 2, 3, 7):
            for r in (1, 3):
                m = _receptive_mask(in_dim, width, r, biased_input=False)
                assert m.shape == (in_dim, width)
                assert (m.sum(axis=0) == min(r, in_dim)).all()


def test_receptive_mask_wider_than_input_connects_everything():
    m = _receptive_mask(4, 3, 9, biased_input=True)
    assert m.all()


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
    assert spec.receptive_fields == (3, None, None)
    assert spec.activation == SP
    assert spec.input_dim == 2
    assert spec.n_layers == 3
    assert spec.widths == (8, 4, 1)
    assert spec.in_dims == (3, 8, 4)
    assert spec.linear_output


def test_default_masks_only_first_layer_sees_bias():
    spec = build_spec("4^r3-4^r3-2", input_dim=4, activation=SP,
                      linear_output=False)
    masks = _default_masks(spec)
    assert masks[2] is None
    assert masks[0].shape == (5, 4)  # bias + 4 inputs
    assert masks[1].shape == (4, 4)  # hidden activations come unaugmented


def test_forward_is_plain_affine_chain_for_identity_linear_net():
    spec = _spec([3, 2], input_dim=2)
    rng = np.random.default_rng(0)
    w1, w2 = rng.standard_normal((3, 3)), rng.standard_normal((3, 2))
    x = rng.standard_normal((5, 2))
    out = forward(spec, WeightSet([w1, w2]), x)
    assert np.allclose(out.array, _augment(x) @ w1 @ w2, atol=1e-14)


def test_forward_applies_output_activation_unless_linear():
    x = np.array([[1.0]])
    w = WeightSet([np.array([[0.0], [0.0]])])
    curved = _spec([1], 1, activation=SP, linear_output=False)
    flat = _spec([1], 1, activation=SP, linear_output=True)
    assert forward(curved, w, x).array[0, 0] == pytest.approx(np.log(1.8))
    assert forward(flat, w, x).array[0, 0] == 0.0


@pytest.mark.parametrize("widths, upto_layer, linear_output",
                         [([2, 1], None, False), ([2, 1], 1, False), ([1], None, False),
                          ([1], None, True)],
                         ids=["forward", "hidden_activation", "output_layer",
                              "linear_output_layer"])
def test_a_product_that_overflows_is_rejected(widths, upto_layer, linear_output):
    # 1e200 inputs times 1e200 weights overflow layer 1's pre-activation,
    # which `train` rejects with the same message
    spec = _spec(widths, 2, activation=SP, linear_output=linear_output)
    w = WeightSet([np.full(shape, 1e200) for shape in zip(spec.in_dims, spec.widths)])
    x = np.full((4, 2), 1e200)
    with np.errstate(over="ignore"), pytest.raises(
            InvalidArgumentError, match="^pre-activation of layer 1 must be finite$"):
        if upto_layer is None:
            forward(spec, w, x)
        else:
            hidden_activation(spec, w, x, upto_layer)


def test_hidden_activation_stage_zero_is_the_augmented_input():
    spec = _spec([2, 1], 2, activation=SP, linear_output=False)
    rng = np.random.default_rng(1)
    w = WeightSet([rng.standard_normal((3, 2)), rng.standard_normal((2, 1))])
    x = rng.standard_normal((4, 2))
    a0 = hidden_activation(spec, w, x, 0)
    assert np.array_equal(a0, _augment(x))
    a1 = hidden_activation(spec, w, x, 1)
    assert a1.shape == (4, 2)


@pytest.mark.parametrize("upto_layer", [0.5, 1.0, True, -1, 2])
def test_hidden_activation_rejects_a_bad_layer_index(upto_layer):
    spec = _spec([2, 1], 2)
    w = WeightSet([np.ones((3, 2)), np.ones((2, 1))])
    with pytest.raises(InvalidArgumentError, match="upto_layer"):
        hidden_activation(spec, w, np.ones((4, 2)), upto_layer)


def test_forward_rejects_mismatched_weight_shapes():
    spec = _spec([3, 2], 2)
    bad = WeightSet([np.ones((4, 3)), np.ones((3, 2))])
    with pytest.raises(InvalidArgumentError):
        forward(spec, bad, np.ones((5, 2)))


def test_network_spec_validates_dimensions():
    with pytest.raises(InvalidArgumentError):
        NetworkSpec(0, (3,), SP)
    with pytest.raises(InvalidArgumentError):
        NetworkSpec(2, (), SP)
    with pytest.raises(InvalidArgumentError):
        NetworkSpec(2, (3, 0), SP)
    for bands in ((2, None), (-1, None), (3,)):
        with pytest.raises(InvalidArgumentError):
            NetworkSpec(2, (3, 1), SP, receptive_fields=bands)


def test_network_spec_defaults_to_full_layers_and_stores_tuples():
    spec = NetworkSpec(2, [3, 1], SP)
    assert spec.widths == (3, 1)
    assert spec.receptive_fields == (None, None)
    assert spec == NetworkSpec(2, (3, 1), SP, False, [None, None])
    assert _default_masks(spec) == [None, None]
