import numpy as np
import pytest

from tlxs.base import dequantize_deadzone, quantize_deadzone
from tlxs.errors import CodecError


def test_step_one_is_identity():
    values = np.arange(-50, 51)
    assert np.array_equal(quantize_deadzone(values, 1), values)


def test_signs_mirror():
    assert quantize_deadzone(-7, 4) == -1
    assert quantize_deadzone(7, 4) == 1


def test_dequantize_examples():
    assert dequantize_deadzone(0, 5) == 0
    assert dequantize_deadzone(1, 4) == 6
    assert dequantize_deadzone(-1, 4) == -6


def test_step_zero_rejected():
    with pytest.raises(CodecError):
        quantize_deadzone(1, 0)
    with pytest.raises(CodecError):
        dequantize_deadzone(1, 0)


def test_step_past_int32_rejected():
    # numpy cannot combine an int32 array with a Python int past 2**31 - 1
    with pytest.raises(CodecError):
        quantize_deadzone(1, 2**31)
    with pytest.raises(CodecError):
        dequantize_deadzone(1, 2**31)


def test_error_bound_exhaustive():
    coeffs = np.arange(-1024, 1025, dtype=np.int64)
    for step in range(1, 17):
        recon = dequantize_deadzone(quantize_deadzone(coeffs, step), step)
        assert int(np.abs(recon - coeffs).max()) < step, step


def test_step_one_reconstruction_exact():
    coeffs = np.arange(-1024, 1025, dtype=np.int64)
    recon = dequantize_deadzone(quantize_deadzone(coeffs, 1), 1)
    assert np.array_equal(recon, coeffs)


def test_quantize_leaves_its_argument_unchanged():
    values = np.arange(-300, 301, dtype=np.int32)
    frozen_plane = values.reshape(1, -1).copy()
    frozen_plane.flags.writeable = False
    for arg in (values, frozen_plane):
        before = arg.copy()
        quantize_deadzone(arg, 7)
        assert np.array_equal(arg, before)


@pytest.mark.parametrize("step", [1, 7, 65535])
def test_quantize_matches_the_dead_zone_rule_at_the_int32_ends(step):
    top = 2**31 - 1
    c = np.array([-top, -top + 1, -65536, -65535, -8, -7, -1, 0, 1, 7, 8, 65535, top - 1, top])
    got = quantize_deadzone(c, step)
    assert got.dtype == np.int32
    assert np.array_equal(got, np.sign(c) * (np.abs(c) // step))
