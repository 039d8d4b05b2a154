import numpy as np
import pytest

from pinvnet.activations import (
    ActivationKind,
    _apply,
    _invert_with_count,
    apply,
    format_kind,
    invert,
    parse_kind,
)
from pinvnet.errors import DomainViolationError, InvalidArgumentError


def test_softplus08_at_zero_is_log_1_8():
    out = apply(ActivationKind.softplus08(), np.array([[0.0]]))
    assert out[0, 0] == pytest.approx(np.log(1.8), abs=1e-15)


def test_softplus_inverse_at_log2_is_zero():
    # f(0) = log(1 + e^0) = log 2, so g(log 2) = 0
    out = invert(ActivationKind.softplus(), np.array([[np.log(2.0)]]))
    assert abs(out[0, 0]) < 1e-15


@pytest.mark.parametrize("kind", [
    ActivationKind.softplus(),
    ActivationKind.softplus08(),
    ActivationKind.exp_scaled(1e-4),
    ActivationKind.exp_scaled(0.3),
])
def test_round_trip_over_wide_range(kind):
    x = np.linspace(-10.0, 10.0, 2001).reshape(1, -1)
    back = invert(kind, apply(kind, x))
    assert np.max(np.abs(back - x)) <= 1e-10


def test_identity_round_trips_and_copies():
    kind = ActivationKind.identity()
    x = np.array([[1.0, -5.0]])
    y = apply(kind, x)
    assert np.array_equal(y, x) and y is not x
    assert np.array_equal(invert(kind, y), x)


def test_no_overflow_at_extreme_arguments():
    sp = ActivationKind.softplus08()
    big = apply(sp, np.array([[750.0]]))
    assert big[0, 0] == 750.0  # log(0.8 + e^750) == 750 in float64
    assert np.isfinite(invert(sp, np.array([[1000.0]])))[0]
    ex = ActivationKind.exp_scaled(1.0)
    assert np.isfinite(apply(ex, np.array([[1e6]])))[0]


def test_large_y_inverse_branches_agree_with_reference_formula():
    # the inverse is computed by two rewritings of log(e^y - 0.8); points
    # just either side of the switch must match the same reference
    sp = ActivationKind.softplus08()
    y = np.array([[np.log(0.8) + 30.0 - 1e-6, np.log(0.8) + 30.0 + 1e-6]])
    g = invert(sp, y)
    ref = y + np.log1p(-0.8 * np.exp(-y))
    assert np.max(np.abs(g - ref)) < 1e-12


def test_clamp_counts_entries_below_floor():
    sp = ActivationKind.softplus08()
    y = np.array([[np.log(0.8) - 0.5, 1.0, np.log(0.8) + 1e-12]])
    out, count = _invert_with_count(sp, y, clamp_margin=1e-9)
    assert count == 2
    floor = np.log(0.8) + 1e-9
    expected = invert(sp, np.array([[floor]]))[0, 0]
    assert out[0, 0] == expected and out[0, 2] == expected
    assert np.isfinite(out).all()


def test_clamp_disabled_raises_with_offender_position():
    sp = ActivationKind.softplus08()
    y = np.array([[1.0, np.log(0.8) - 0.2]])
    with pytest.raises(DomainViolationError) as err:
        invert(sp, y, clamp_margin=0)
    assert err.value.position == (0, 1)
    with pytest.raises(DomainViolationError):
        invert(sp, y, clamp_margin=0.0)


KINDS = {"identity": ActivationKind.identity(), "softplus": ActivationKind.softplus(),
         "softplus08": ActivationKind.softplus08(),
         "exp_scaled": ActivationKind.exp_scaled(0.3)}


@pytest.mark.parametrize("name", KINDS)
def test_apply_is_its_kernel_on_the_checked_array(name):
    # train calls the kernel, forward the public function: train_sse equals
    # the SSE of forward bit for bit only while the two agree
    x = np.random.default_rng(3).uniform(-40.0, 40.0, (5, 4))
    assert np.array_equal(apply(KINDS[name], x.tolist()), _apply(KINDS[name], x))


@pytest.mark.parametrize("name", KINDS)
def test_invert_is_its_kernel_on_the_checked_array(name):
    # entries below every variant's clamp floor, at it and far above it
    y = np.array([[-1.0, np.log(0.8), 0.0, 1e-12, 0.5, 45.0]])
    out, _ = _invert_with_count(KINDS[name], y, 1e-6)
    assert np.array_equal(invert(KINDS[name], y.tolist(), 1e-6), out)


def test_exp_scaled_clamps_at_zero_boundary():
    ex = ActivationKind.exp_scaled(1e-2)
    out, count = _invert_with_count(ex, np.array([[0.0]]), clamp_margin=1e-9)
    assert count == 1
    assert out[0, 0] == pytest.approx(np.log(1e-9) / 1e-2)


def test_identity_never_clamps():
    out, count = _invert_with_count(
        ActivationKind.identity(), np.array([[-1e300]]), clamp_margin=1e-9
    )
    assert count == 0 and out[0, 0] == -1e300


def test_lower_bounds_per_variant():
    assert ActivationKind.identity().lower_bound == -np.inf
    assert ActivationKind.softplus().lower_bound == 0.0
    assert ActivationKind.softplus08().lower_bound == pytest.approx(np.log(0.8))
    assert ActivationKind.exp_scaled().lower_bound == 0.0


def test_parse_and_format_round_trip():
    for text in ["identity", "softplus", "softplus08", "exp:0.0001", "exp:0.3"]:
        kind = parse_kind(text)
        assert parse_kind(format_kind(kind)) == kind
    assert parse_kind("exp:1e-4").alpha == 1e-4


@pytest.mark.parametrize("kind", [
    ActivationKind.identity(),
    ActivationKind.softplus(),
    ActivationKind.softplus08(),
    *(ActivationKind.exp_scaled(alpha) for alpha in (
        1e-4, 0.5, 0.123456789, 1 / 3, 2.0 ** -40, 5e-324, 1e308,
        np.nextafter(0.5, 1.0))),
])
def test_every_kind_formats_to_text_that_parses_back_to_it(kind):
    text = format_kind(kind)
    assert parse_kind(text) == kind
    assert format_kind(parse_kind(text)) == text


def test_short_alpha_text_keeps_its_bytes():
    assert format_kind(ActivationKind.exp_scaled(0.5)) == "exp:0.5"
    assert format_kind(ActivationKind.exp_scaled(1e-4)) == "exp:0.0001"
    assert format_kind(ActivationKind.exp_scaled(0.123456789)) == "exp:0.123456789"


@pytest.mark.parametrize("variant", ["identity", "softplus", "softplus08"])
def test_an_alpha_on_a_variant_that_ignores_it_is_rejected(variant):
    with pytest.raises(InvalidArgumentError, match="alpha"):
        ActivationKind(variant, 5.0)
    assert ActivationKind(variant, 1e-4) == ActivationKind(variant)


def test_parse_rejects_unknown_and_bad_alpha():
    with pytest.raises(InvalidArgumentError):
        parse_kind("relu")
    with pytest.raises(InvalidArgumentError):
        parse_kind("exp:0")
    with pytest.raises(InvalidArgumentError):
        parse_kind("exp:abc")
