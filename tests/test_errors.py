"""The integer and real rules: an integer or real argument is a Python or numpy number, never a bool."""

import math
from fractions import Fraction

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


# calls that pass an argument of the wrong type, each with the start of its message
WRONG_TYPES = {
    "damping-str": (lambda: PageRankConfig(damping="0.5"), "damping must be a real number"),
    "damping-bool": (lambda: PageRankConfig(damping=False), "damping must be a real number"),
    "tolerance-none": (lambda: PageRankConfig(tolerance=None), "tolerance must be a real number"),
    "tolerance-bool": (lambda: PageRankConfig(tolerance=True), "tolerance must be a real number"),
    "mean_out_citations-str": (
        lambda: SynthConfig(10, mean_out_citations="5"), "mean_out_citations must be a real number"
    ),
    "mean_out_citations-bool": (
        lambda: SynthConfig(10, mean_out_citations=True), "mean_out_citations must be a real number"
    ),
    "attachment_exponent-none": (
        lambda: SynthConfig(10, attachment_exponent=None), "attachment_exponent must be a real number"
    ),
    "attachment_exponent-bool": (
        lambda: SynthConfig(10, attachment_exponent=False), "attachment_exponent must be a real number"
    ),
    "cartel-tuple": (lambda: SynthConfig(10, cartel=(2, 1)), "cartel must be a CartelSpec or None"),
    "variables-int": (lambda: pca(np.eye(2), 1, variables=5), "variables must be an iterable of names"),
    "variables-str": (lambda: pca(np.eye(2), 1, variables="ab"), "variables must be an iterable of names"),
    "variables-ints": (lambda: pca(np.eye(2), 1, variables=[1, 2]), "variables must be an iterable of names"),
}


@pytest.mark.parametrize("case", WRONG_TYPES)
def test_argument_of_the_wrong_type_raises_input_error_naming_it(case):
    call, message = WRONG_TYPES[case]
    with pytest.raises(InputError, match=f"^{message}"):
        call()


def test_numpy_reals_are_reals():
    cfg = PageRankConfig(damping=np.float32(0.5), tolerance=np.float64(1e-9))
    assert (cfg.damping, cfg.tolerance) == (0.5, 1e-9)
    cfg = SynthConfig(10, mean_out_citations=np.int64(3), attachment_exponent=np.float16(1.5))
    assert (cfg.mean_out_citations, cfg.attachment_exponent) == (3, 1.5)
    assert pca(np.eye(2), 1, variables=np.array(["a", "b"])).variables == ("a", "b")


# calls that pass a real beyond the float range, a NaN or an infinity, each with the name its message gives
NOT_FINITE = {
    "damping-huge-int": (lambda: PageRankConfig(damping=10**400), "damping"),
    "tolerance-huge-int": (lambda: PageRankConfig(tolerance=10**400), "tolerance"),
    "mean_out_citations-huge-int": (lambda: SynthConfig(10, mean_out_citations=10**400), "mean_out_citations"),
    "attachment_exponent-huge-int": (lambda: SynthConfig(10, attachment_exponent=10**400), "attachment_exponent"),
    "damping-nan": (lambda: PageRankConfig(damping=math.nan), "damping"),
    "tolerance-inf": (lambda: PageRankConfig(tolerance=math.inf), "tolerance"),
    "attachment_exponent-minus-inf": (lambda: SynthConfig(10, attachment_exponent=-math.inf), "attachment_exponent"),
}


@pytest.mark.parametrize("case", NOT_FINITE)
def test_real_argument_that_is_not_finite_raises_input_error_naming_it(case):
    call, name = NOT_FINITE[case]
    with pytest.raises(InputError, match=f"^{name} must be finite, got "):
        call()


def test_reals_are_stored_as_floats():
    cfg = PageRankConfig(damping=Fraction(1, 2), tolerance=np.int64(1))
    assert (type(cfg.damping), type(cfg.tolerance)) == (float, float)
    cfg = SynthConfig(10, mean_out_citations=3, attachment_exponent=np.float32(0.5))
    assert (type(cfg.mean_out_citations), type(cfg.attachment_exponent)) == (float, float)
