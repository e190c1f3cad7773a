import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CFG3K, affine_times
from spikecodec import (
    EncoderConfig,
    LinearDecoderParams,
    SpikeTime,
    crossing_time,
    decode_ideal,
    decode_linear,
    encode_time,
    timing_summary,
)


class TestEncodeTime:
    def test_corner_values(self, cfg3k):
        # -3e-3*ln(9/10) and -3e-3*ln(19/20), worked out by hand
        assert encode_time(1.0, cfg3k).time == pytest.approx(3.1608154697347884e-4, rel=1e-12)
        assert encode_time(2.0, cfg3k).time == pytest.approx(1.5387988316265173e-4, rel=1e-12)
        assert encode_time(5.0, cfg3k).time == pytest.approx(6.0608121952558396e-5, rel=1e-12)

    def test_subthreshold_is_no_spike(self, cfg3k):
        assert encode_time(0.05, cfg3k) == SpikeTime(math.inf, fired=False)
        assert not encode_time(0.1, cfg3k).fired  # exactly at threshold
        assert not encode_time(-1.0, cfg3k).fired
        assert encode_time(0.05, cfg3k).time == math.inf

    def test_just_above_threshold_fires_late(self, cfg3k):
        s = encode_time(0.1000001, cfg3k)
        assert s.fired
        assert s.time > 10 * cfg3k.sample_period  # way beyond the window

    def test_monotone_decreasing_in_u(self, cfg3k):
        rng = np.random.default_rng(11)
        u = np.sort(rng.uniform(0.2, 10.0, 500))
        t = np.array([encode_time(v, cfg3k).time for v in u])
        assert np.all(np.diff(t) < 0)

    def test_scales_linearly_with_tau(self, cfg3k):
        t1 = encode_time(2.5, cfg3k).time
        cfg10 = EncoderConfig(
            tau=10e-3, u_th=0.1, u_min=1.0, u_max=5.0,
            sample_period=1.0 / 900.0, reader_period=1.0 / 90000.0,
        )
        assert encode_time(2.5, cfg10).time == pytest.approx(t1 * 10 / 3, rel=1e-12)


class TestCrossingTime:
    @settings(max_examples=200, deadline=None)
    @given(u=st.lists(st.floats(-10.0, 1e6, allow_subnormal=False), min_size=1, max_size=40),
           threshold=st.floats(1e-3, 10.0), tau=st.floats(1e-6, 1.0))
    def test_array_equals_scalar_calls_bit_for_bit(self, u, threshold, tau):
        t = crossing_time(np.array(u), threshold, tau)
        scalar = [crossing_time(v, threshold, tau) for v in u]
        assert all(type(v) is float for v in scalar)
        assert t.tobytes() == np.array(scalar).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(u=st.lists(st.floats(-10.0, 1e6, allow_subnormal=False), min_size=1, max_size=40))
    def test_encode_time_is_crossing_time(self, u):
        # encode_time's scalar log and simulate_window's array log once
        # disagreed by 1 ulp on 2,880 of 100,001 voltages in 1..5 V
        t = crossing_time(np.array(u), CFG3K.u_th, CFG3K.tau)
        encoded = np.array([encode_time(v, CFG3K).time for v in u])
        assert encoded.tobytes() == t.tobytes()

    def test_dense_working_range_matches_simulated_bins(self, cfg3k):
        u = np.linspace(cfg3k.u_min, cfg3k.u_max, 10001)
        t = np.array([encode_time(float(v), cfg3k).time for v in u])
        assert t.tobytes() == crossing_time(u, cfg3k.u_th, cfg3k.tau).tobytes()

    @pytest.mark.parametrize("u, threshold", [
        (0.1, 0.1), (0.05, 0.1), (0.0, 0.1), (-1.0, 0.1), (-math.inf, 0.1),
        (math.nan, 0.1), (1.0, 1.5), (0.0, 2.0), (-3.0, 1.0),
    ])
    def test_no_crossing_is_inf_without_a_warning(self, u, threshold):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert crossing_time(u, threshold, 3e-3) == math.inf
            assert crossing_time(np.array([u, 2 * threshold]), threshold, 3e-3)[0] == math.inf

    def test_threshold_broadcasts_against_u(self):
        t = crossing_time(2.0, np.array([0.1, 1.0, 2.0, 3.0]), 3e-3)
        assert t[:2].tolist() == [crossing_time(2.0, 0.1, 3e-3), crossing_time(2.0, 1.0, 3e-3)]
        assert t[2:].tolist() == [math.inf, math.inf]

    def test_inverts_decode_ideal(self, cfg3k):
        u = np.linspace(0.2, 20.0, 257)
        t = crossing_time(u, cfg3k.u_th, cfg3k.tau)
        np.testing.assert_allclose(decode_ideal(t, cfg3k), u, rtol=1e-12)

    def test_encode_time_rejects_nan(self, cfg3k):
        # a NaN used to come back as SpikeTime(nan, fired=True)
        with pytest.raises(ValueError, match="NaN"):
            encode_time(math.nan, cfg3k)


class TestDecodeIdeal:
    def test_round_trip(self, cfg3k):
        rng = np.random.default_rng(23)
        for u in rng.uniform(0.11, 20.0, 1000):
            t = encode_time(float(u), cfg3k)
            assert decode_ideal(t.time, cfg3k) == pytest.approx(float(u), rel=1e-12)

    def test_known_point(self, cfg3k):
        assert decode_ideal(3.1608154697347884e-4, cfg3k) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_nonpositive_and_infinite(self, cfg3k):
        with pytest.raises(ValueError):
            decode_ideal(0.0, cfg3k)
        with pytest.raises(ValueError):
            decode_ideal(-1e-6, cfg3k)
        with pytest.raises(ValueError):
            decode_ideal(math.inf, cfg3k)

    def test_array_matches_scalar_calls(self, cfg3k):
        t = np.random.default_rng(29).uniform(1e-7, 2e-3, 500)
        u = decode_ideal(t, cfg3k)
        assert u.shape == t.shape
        scalar = np.array([decode_ideal(float(v), cfg3k) for v in t])
        np.testing.assert_array_max_ulp(u, scalar, maxulp=1)

    @pytest.mark.parametrize("bad", [0.0, -1e-6, np.inf, np.nan])
    def test_array_rejects_any_bad_element(self, cfg3k, bad):
        with pytest.raises(ValueError, match="positive finite"):
            decode_ideal(np.array([1e-4, bad, 2e-4]), cfg3k)

    def test_large_time_approaches_threshold(self, cfg3k):
        # as t -> inf the only voltage still crossing "just now" is u_th
        assert decode_ideal(1.0, cfg3k) == pytest.approx(cfg3k.u_th, rel=1e-9)


class TestLinearCode:
    p = LinearDecoderParams(t_lin_min=5e-5, t_lin_max=3e-4, y_min=1.0, y_max=5.0)

    def test_endpoints(self):
        assert decode_linear(5e-5, self.p) == pytest.approx(5.0)
        assert decode_linear(3e-4, self.p) == pytest.approx(1.0)

    def test_round_trip_array(self):
        y = np.linspace(0.0, 6.0, 97)  # extrapolation included
        assert decode_linear(affine_times(y, self.p), self.p) == pytest.approx(y, rel=1e-12)

    def test_midpoint(self):
        assert decode_linear(1.75e-4, self.p) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearDecoderParams(t_lin_min=3e-4, t_lin_max=5e-5, y_min=1.0, y_max=5.0)
        with pytest.raises(ValueError):
            LinearDecoderParams(t_lin_min=5e-5, t_lin_max=3e-4, y_min=5.0, y_max=1.0)


class TestTimingSummary:
    def test_reference_values(self, cfg3k):
        ts = timing_summary(cfg3k)
        assert ts.t_min == pytest.approx(6.0608121952558396e-5, rel=1e-12)
        assert ts.t_max == pytest.approx(3.1608154697347884e-4, rel=1e-12)
        assert ts.mu == pytest.approx(4.215168145630627, rel=1e-12)
        assert ts.mu == (ts.t_max - ts.t_min) / ts.t_min

    def test_high_threshold_mu(self):
        cfg = EncoderConfig(
            tau=3e-3, u_th=0.9, u_min=1.0, u_max=5.0,
            sample_period=10e-3, reader_period=1e-4,
        )
        assert timing_summary(cfg).mu == pytest.approx(10.602792648909029, rel=1e-12)

    def test_mu_tau_invariant(self):
        mus = []
        for tau in (1e-3, 3e-3, 10e-3):
            cfg = EncoderConfig(
                tau=tau, u_th=0.5, u_min=1.0, u_max=5.0,
                sample_period=0.1, reader_period=1e-3,
            )
            mus.append(timing_summary(cfg).mu)
        assert mus[0] == pytest.approx(mus[1], rel=1e-12)
        assert mus[1] == pytest.approx(mus[2], rel=1e-12)

    def test_mu_increases_with_threshold(self):
        grid = np.linspace(0.02, 0.98, 50)
        mus = []
        for u_th in grid:
            cfg = EncoderConfig(
                tau=3e-3, u_th=float(u_th), u_min=1.0, u_max=5.0,
                sample_period=0.1, reader_period=1e-3,
            )
            mus.append(timing_summary(cfg).mu)
        assert np.all(np.diff(mus) > 0)

    def test_mu_small_threshold_limit(self):
        # u_th -> 0 gives mu -> u_max/u_min - 1 = 4
        cfg = EncoderConfig(
            tau=3e-3, u_th=1e-6, u_min=1.0, u_max=5.0,
            sample_period=0.1, reader_period=1e-3,
        )
        assert timing_summary(cfg).mu == pytest.approx(4.0, abs=1e-4)


class TestEncoderConfig:
    def test_resolution(self, cfg3k):
        assert cfg3k.resolution == 100

    def test_rejects_bad_voltage_order(self):
        with pytest.raises(ValueError, match="u_th < u_min < u_max"):
            EncoderConfig(tau=3e-3, u_th=1.5, u_min=1.0, u_max=5.0,
                          sample_period=1e-2, reader_period=1e-4)

    def test_rejects_non_integer_resolution(self):
        with pytest.raises(ValueError, match="integer multiple"):
            EncoderConfig(tau=3e-3, u_th=0.1, u_min=1.0, u_max=5.0,
                          sample_period=1e-3, reader_period=3e-4)

    def test_rejects_more_bins_than_the_multiple_check_can_tell(self):
        # 4e299 bins passed the integer-multiple check and made encode
        # build a table of one cell per bin
        with pytest.raises(ValueError, match="more bins"):
            EncoderConfig(tau=3e-3, u_th=0.1, u_min=1.0, u_max=5.0,
                          sample_period=1e300, reader_period=2.5)

    def test_rejects_window_too_short_for_slowest_spike(self):
        # f(u_min) = 316 us but the window is only 148 us
        with pytest.raises(ValueError, match="slowest spike"):
            EncoderConfig(tau=3e-3, u_th=0.1, u_min=1.0, u_max=5.0,
                          sample_period=1.48e-4, reader_period=1.48e-6)

    def test_rejects_a_fastest_spike_that_underflows(self):
        # t_min came out 0.0 and TimingSummary divided by it
        with pytest.raises(ValueError, match=r"fastest spike underflows: "
                           r"crossing_time\(u_max = 1e\+300 V\) = 0\.0 s, not > 0"):
            EncoderConfig(tau=3e-3, u_th=1e-300, u_min=1.0, u_max=1e300,
                          sample_period=1e-2, reader_period=1e-4)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError, match="tau"):
            EncoderConfig(tau=0.0, u_th=0.1, u_min=1.0, u_max=5.0,
                          sample_period=1e-2, reader_period=1e-4)

    @pytest.mark.parametrize("name, value", [
        ("u_max", math.inf), ("u_min", math.nan), ("tau", math.inf),
        ("sample_period", math.inf), ("reader_period", math.nan),
    ])
    def test_rejects_non_finite_fields(self, name, value):
        kw = dict(tau=3e-3, u_th=0.1, u_min=1.0, u_max=5.0,
                  sample_period=1e-2, reader_period=1e-4)
        kw[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            EncoderConfig(**kw)
