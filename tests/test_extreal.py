import pytest

from optstab.extreal import INF, NEG_INF, check_extended_real, scale


def test_infinities_are_extended_reals():
    assert check_extended_real(INF) == INF
    assert check_extended_real(NEG_INF) == NEG_INF
    assert check_extended_real(0.0) == 0.0
    assert check_extended_real(-1.5) == -1.5


def test_nan_and_non_numbers_rejected():
    with pytest.raises(ValueError):
        check_extended_real(float("nan"))
    with pytest.raises(ValueError):
        check_extended_real("abc")
    with pytest.raises(TypeError):
        check_extended_real(None)


def test_total_order():
    assert NEG_INF < -1e300 < 0.0 < 1e300 < INF


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
