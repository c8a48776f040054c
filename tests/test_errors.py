import numpy as np
import pytest

from mbmtrack.errors import InputError, finite_array, is_int, real_array


@pytest.mark.parametrize("value", [0, -3, 10**30, np.int64(4), np.uint8(2)])
def test_integers_accepted(value):
    assert is_int(value)


@pytest.mark.parametrize("value", [True, False, np.bool_(True), 2.0, np.float64(1.0), "3", None])
def test_bools_and_non_integers_rejected(value):
    assert not is_int(value)


@pytest.mark.parametrize(
    "values, shape, message",
    [
        ([1.0, 2.0j], None, "malformed probe: complex"),
        (np.ones(2, dtype=complex), None, "malformed probe: complex"),
        ([1.0, np.complex128(2.0)], None, "malformed probe: complex"),
        ("x", None, "malformed probe"),
        ([1.0, {}], None, "malformed probe"),
        ([[1.0], [2.0, 3.0]], None, "malformed probe"),
        ([1.0, np.nan], None, "probe must be finite"),
        ([1.0, -np.inf], None, "probe must be finite"),
        ([1.0, 2.0], (3,), r"probe must have shape \(3,\), got \(2,\)"),
    ],
)
def test_finite_array_names_what_is_wrong(values, shape, message):
    with pytest.raises(InputError, match=message):
        finite_array(values, "probe", shape)


def test_real_array_keeps_non_finite_values():
    assert real_array([np.inf, 1], "probe").tolist() == [np.inf, 1.0]
