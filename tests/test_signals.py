
import numpy as np
import pytest

from spikecodec import SineSpec, constant, ideal_adc_fft, sine
from spikecodec.sft import _bin_frequencies
from conftest import naive_dft


class TestSine:
    def test_known_points(self):
        sig = sine(SineSpec(2.0, 500.0, 3.0), duration=0.01)
        assert sig(0.0) == pytest.approx(3.0)
        assert sig(0.0005) == pytest.approx(5.0)   # quarter period
        assert sig(0.0015) == pytest.approx(1.0)   # three quarters
        assert sig(0.002) == pytest.approx(3.0, abs=1e-9)

    def test_stays_within_band(self):
        sig = sine(SineSpec(1.5, 250.0, 3.5), duration=0.1)
        t = np.linspace(0, 0.1, 5000)
        u = sig(t)
        assert np.abs(u - 3.5).max() <= 1.5 + 1e-12
        assert u.min() >= 2.0 - 1e-12

    def test_rejects_negative_going_signal(self):
        with pytest.raises(ValueError, match="offset"):
            SineSpec(2.0, 500.0, 1.0)

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            SineSpec(1.0, 0.0, 2.0)

    @pytest.mark.parametrize("field, value", [
        ("amplitude", float("inf")), ("amplitude", float("nan")),
        ("frequency", float("inf")), ("frequency", float("nan")),
        ("offset", float("inf")), ("offset", float("nan")),
    ])
    def test_rejects_non_finite_fields(self, field, value):
        # an infinite frequency passed and made every sample NaN
        kw = {"amplitude": 1.0, "frequency": 500.0, "offset": 2.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
            SineSpec(**kw)


class TestConstant:
    def test_level_everywhere(self):
        sig = constant(3.0, duration=0.05)
        assert np.all(sig(np.linspace(0, 0.05, 100)) == 3.0)

    def test_rejects_negative_level_and_duration(self):
        with pytest.raises(ValueError):
            constant(-1.0, 0.1)
        with pytest.raises(ValueError):
            constant(1.0, 0.0)


class TestIdealAdcFft:
    def test_matches_reference_dft(self):
        sig = sine(SineSpec(2.0, 500.0, 3.0), duration=64 / 3000.0)
        spec = ideal_adc_fft(sig, 1.0 / 3000.0, 64)
        t = np.arange(64) / 3000.0
        ref = naive_dft(sig(t))
        assert np.abs(spec.coefficients - ref).max() < 1e-9 * np.abs(ref).max()

    def test_on_bin_tone_concentrates(self):
        # 500 Hz at 3 kHz with K=120 is exactly bin 20
        sig = sine(SineSpec(2.0, 500.0, 3.0), duration=120 / 3000.0)
        spec = ideal_adc_fft(sig, 1.0 / 3000.0, 120)
        mags = spec.magnitude()
        assert mags[20] == pytest.approx(120.0, rel=1e-9)   # A*K/2
        assert mags[0] == pytest.approx(360.0, rel=1e-9)    # B*K
        others = np.delete(mags, [0, 20, 100])
        assert others.max() < 1e-8

    def test_off_bin_tone_leaks(self):
        sig = sine(SineSpec(2.0, 500.0, 3.0), duration=128 / 3000.0)
        mags = ideal_adc_fft(sig, 1.0 / 3000.0, 128).magnitude()
        assert np.sort(mags[1:64])[-5:].min() > 1.0  # energy spread off the peak

    def test_frame_must_fit(self):
        sig = sine(SineSpec(2.0, 500.0, 3.0), duration=0.001)
        with pytest.raises(ValueError, match="fit"):
            ideal_adc_fft(sig, 1.0 / 3000.0, 64)

    @pytest.mark.parametrize("sample_period, frame_size, message", [
        (1.0 / 3000.0, 1, "frame_size must be at least 2"),
        (0.0, 64, "sample_period must be positive"),
    ])
    def test_rejects_a_short_frame_or_a_period_of_zero(self, sample_period, frame_size, message):
        sig = sine(SineSpec(2.0, 500.0, 3.0), duration=0.1)
        with pytest.raises(ValueError, match=message):
            ideal_adc_fft(sig, sample_period, frame_size)

    def test_bin_frequencies_label(self):
        sig = sine(SineSpec(2.0, 500.0, 3.0), duration=120 / 3000.0)
        spec = ideal_adc_fft(sig, 1.0 / 3000.0, 120)
        assert _bin_frequencies(len(spec), spec.sample_period)[20] == pytest.approx(500.0, rel=1e-12)
