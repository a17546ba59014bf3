"""The integer rule: an integer argument is a Python or numpy integer, never a bool."""

import numpy as np
import pytest

from citerank import CartelSpec, PageRankConfig, SynthConfig, pca
from citerank.errors import InputError

# each integer field, set to a value by the call that checks it
FIELDS = {
    "max_iterations": lambda value: PageRankConfig(max_iterations=value),
    "n_nodes": lambda value: SynthConfig(n_nodes=value),
    "seed": lambda value: SynthConfig(10, seed=value),
    "member_count": lambda value: CartelSpec(value, 1),
    "internal_weight_boost": lambda value: CartelSpec(2, value),
    "retain": lambda value: pca(np.eye(2), retain=value),
}


@pytest.mark.parametrize("value", [1.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("field", FIELDS)
def test_non_integer_argument_raises_input_error_naming_its_field(field, value):
    with pytest.raises(InputError, match=rf"^{field} must be an integer"):
        FIELDS[field](value)


def test_numpy_integers_are_integers():
    assert PageRankConfig(max_iterations=np.int32(5)).max_iterations == 5
    cfg = SynthConfig(np.int64(10), cartel=CartelSpec(np.int64(2), np.uint8(3)), seed=np.int64(1))
    assert (cfg.n_nodes, cfg.cartel.member_count, cfg.seed) == (10, 2, 1)
    assert pca(np.eye(2), retain=np.int64(1)).retained == 1
