"""The value rules every module checks its inputs with."""

import sys
from fractions import Fraction

import numpy as np
import pytest

from docgraph.errors import is_count, is_finite_real, is_int


@pytest.mark.parametrize("value, integer, count, finite_real", [
    (1, True, True, True),
    (np.int64(3), True, True, True),
    (sys.maxsize, True, True, True),
    (0, True, False, True),
    (-2, True, False, True),
    (sys.maxsize + 1, True, False, True),
    (10**400, True, False, False),  # past the float range, but no OverflowError
    (True, False, False, False),
    (np.bool_(True), False, False, False),
    (3.0, False, False, True),
    (Fraction(1, 2), False, False, True),
    (-sys.float_info.max, False, False, True),
    (float("inf"), False, False, False),
    (float("nan"), False, False, False),
    ("3", False, False, False),
    (None, False, False, False),
])
def test_rules(value, integer, count, finite_real):
    assert (is_int(value), is_count(value), is_finite_real(value)) == (
        integer, count, finite_real)
