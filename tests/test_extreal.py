import math

import pytest

from optstab.extreal import (INF, NEG_INF, check_extended_real, inf_of,
                             is_extended_real, scale, sup_of)


def test_infinities_are_extended_reals():
    assert is_extended_real(INF)
    assert is_extended_real(NEG_INF)
    assert is_extended_real(0.0)
    assert is_extended_real(-1.5)


def test_nan_and_non_numbers_rejected():
    assert not is_extended_real(float("nan"))
    assert not is_extended_real("abc")
    assert not is_extended_real(None)
    with pytest.raises(ValueError):
        check_extended_real(float("nan"))


def test_total_order():
    assert NEG_INF < -1e300 < 0.0 < 1e300 < INF


def test_empty_sup_and_inf_conventions():
    assert sup_of([]) == NEG_INF
    assert inf_of([]) == INF


def test_sup_inf_of_values():
    vals = [3.0, -1.0, INF, 2.0]
    assert sup_of(vals) == INF
    assert inf_of(vals) == -1.0
    assert sup_of([NEG_INF]) == NEG_INF


def test_scale_zero_times_infinity_is_zero():
    assert scale(0.0, INF) == 0.0
    assert scale(0.0, NEG_INF) == 0.0
    assert scale(2.0, INF) == INF
    assert scale(2.0, 3.0) == 6.0
    with pytest.raises(ValueError):
        scale(-1.0, 2.0)


def test_scale_infinity_times_zero_is_zero():
    assert scale(INF, 0.0) == 0.0
    assert scale(INF, 2.0) == INF
    with pytest.raises(ValueError):
        scale(1.0, float("nan"))


def test_sup_of_rejects_nan():
    with pytest.raises(ValueError):
        sup_of([1.0, float("nan")])
