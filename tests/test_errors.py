"""Every count and seed that enters the library is checked by one rule: an
int (not a bool) at or above its floor, else InvalidArgumentError naming
the field."""
import re

import numpy as np
import pytest

from pinvnet.activations import ActivationKind
from pinvnet.analysis import VarianceConfig, solution_count
from pinvnet.datasets import CvPlan, Dataset, cv_search, gen_regression, gen_spiral
from pinvnet.errors import InvalidArgumentError
from pinvnet.network import NetworkSpec, receptive_mask
from pinvnet.training import InitScheme, TrainConfig

SP = ActivationKind.softplus08()


def _cv_search(h):
    ds = Dataset(np.arange(12.0).reshape(6, 2), np.ones((6, 1)))
    cv_search(ds, ["h-q"], [h], CvPlan(2, 1, 0),
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
