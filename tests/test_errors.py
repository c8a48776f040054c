import numpy as np
import pytest

from mbmtrack.errors import is_int


@pytest.mark.parametrize("value", [0, -3, 10**30, np.int64(4), np.uint8(2)])
def test_integers_accepted(value):
    assert is_int(value)


@pytest.mark.parametrize("value", [True, False, np.bool_(True), 2.0, np.float64(1.0), "3", None])
def test_bools_and_non_integers_rejected(value):
    assert not is_int(value)
