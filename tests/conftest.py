import numpy as np
import pytest

from bincues import gen_pink_noise, signals


@pytest.fixture(scope="session")
def pink_5s():
    return gen_pink_noise(5.0, seed=11)


@pytest.fixture(scope="session")
def pink_2s():
    return gen_pink_noise(2.0, seed=3)


@pytest.fixture(scope="session")
def convolve():
    """convolve(a, b, start=0, count=None): samples start..start+count, by default to the end,
    of the full linear convolution of two non-empty real arrays, run by the overlap-add loop
    that every FIR runs on, the longer operand read a step at a time and float32 widened."""
    def convolve(a, b, start=0, count=None):
        x, kernel = sorted((a, b), key=len, reverse=True)
        count = x.size + kernel.size - 1 - start if count is None else count
        return signals._filled(signals._overlap_add([signals._reader(x)], x.size,
                               kernel.astype(np.float64, copy=False)[None], start, count), count)
    return convolve
