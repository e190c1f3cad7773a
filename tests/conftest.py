import numpy as np
import pytest
from hypothesis import settings

from spikecodec import EncoderConfig

# Many more examples for the tests that leave max_examples to the
# profile, such as the float cell exactness test; CI runs them so with
# --hypothesis-profile=deep.
settings.register_profile("deep", max_examples=20_000, deadline=None)


# The reference channel: tau 3 ms, 100 mV threshold, 1-5 V range,
# 3 kHz sampling with 100 reader bins per window. Hypothesis tests use
# the constant, because Hypothesis does not reset function-scoped
# fixtures between examples.
CFG3K = EncoderConfig(
    tau=3e-3,
    u_th=0.1,
    u_min=1.0,
    u_max=5.0,
    sample_period=1.0 / 3000.0,
    reader_period=1.0 / 300000.0,
)


@pytest.fixture
def cfg3k() -> EncoderConfig:
    """The reference channel, CFG3K."""
    return CFG3K


def affine_times(y, p):
    """Spike times of values y under the affine code of decoder p, the
    inverse of decode_linear: the largest value fires first."""
    return p.t_lin_min + p.slope * (p.y_max - np.asarray(y, dtype=float))


def naive_dft(y):
    """O(K^2) reference DFT, written out as cosine/sine sums so it
    shares nothing with np.fft or the transform under test."""
    y = np.asarray(y, dtype=float)
    k_n = np.outer(np.arange(y.size), np.arange(y.size))
    ang = 2.0 * np.pi * k_n / y.size
    return (np.cos(ang) @ y) - 1j * (np.sin(ang) @ y)
