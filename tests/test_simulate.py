import decimal
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikecodec import (
    AnalogSignal,
    EncoderConfig,
    SpikeTrain,
    ThermalNoiseModel,
    constant,
    decode_ideal,
    encode_signal,
    encode_time,
    read_spike_train,
    simulate_window,
    sine,
    SineSpec,
    write_spike_train,
)
from spikecodec._draws import window_doubles
from spikecodec.simulate import _window_count
from conftest import CFG3K


class TestSimulateWindow:
    def test_reference_bins(self, cfg3k):
        # ceil(t_s / T_N) for the hand-computed crossing times
        assert simulate_window(1.0, cfg3k) == 95
        assert simulate_window(2.0, cfg3k) == 47
        assert simulate_window(3.0, cfg3k) == 31
        assert simulate_window(5.0, cfg3k) == 19

    def test_subthreshold_silent(self, cfg3k):
        assert simulate_window(0.05, cfg3k) is None
        assert simulate_window(0.1, cfg3k) is None

    def test_crossing_after_window_silent(self, cfg3k):
        # fires at ~336 us, window is 333 us
        u = 0.1 / (1.0 - math.exp(-1.01 * cfg3k.sample_period / cfg3k.tau))
        assert encode_time(u, cfg3k).fired
        assert simulate_window(u, cfg3k) is None

    def test_crossing_exactly_at_window_end_lands_in_last_bin(self, cfg3k):
        u = 0.1 / (1.0 - math.exp(-cfg3k.sample_period / cfg3k.tau))
        assert simulate_window(u, cfg3k) == cfg3k.resolution

    def test_exact_tick_hit_is_inclusive(self, cfg3k):
        # voltage engineered so t_s = 50 * T_N; the hit belongs to bin
        # 50, and float dust around the tick must not flip it to 51
        u = 0.1 / (1.0 - math.exp(-50 * cfg3k.reader_period / cfg3k.tau))
        assert simulate_window(u, cfg3k) == 50

    def test_crossing_just_after_the_start_lands_in_bin_one(self, cfg3k):
        # fires about 3e-15 s in, within the tick snap of t = 0; bin 0
        # would read as silence
        t = encode_time(1e11, cfg3k).time
        assert 0 < t < 1e-9 * cfg3k.reader_period
        assert simulate_window(1e11, cfg3k) == 1
        assert simulate_window(np.array([1e11, 5.0]), cfg3k).tolist() == [1, 19]

    def test_agrees_with_closed_form(self, cfg3k):
        rng = np.random.default_rng(3)
        for u in rng.uniform(0.11, 6.0, 1000):
            k = simulate_window(float(u), cfg3k)
            t = encode_time(float(u), cfg3k).time
            if t > cfg3k.sample_period:
                assert k is None
            else:
                assert k == math.ceil(t / cfg3k.reader_period - 1e-9)

    def test_quantization_bound(self, cfg3k):
        # the registered time never precedes the crossing and trails it
        # by less than one reader period
        rng = np.random.default_rng(5)
        for u in rng.uniform(1.0, 5.0, 1000):
            k = simulate_window(float(u), cfg3k)
            t = encode_time(float(u), cfg3k).time
            lag = k * cfg3k.reader_period - t
            assert -1e-15 <= lag < cfg3k.reader_period


NOISE_MODELS = [
    None,
    ThermalNoiseModel(delta_u=0.05, mode="constant"),
    ThermalNoiseModel(delta_u=0.05, mode="per-window", rng_seed=3),
]

# held voltages, including ones at the threshold, at the lowered
# threshold and below it, and ones whose crossing misses the window
held_voltages = st.one_of(
    st.floats(0.0, 6.0),
    st.sampled_from([0.0, 0.04, 0.05, 0.0500001, 0.1, 0.1000001, 0.5, 1.0, 5.0]),
)


class TestSimulateWindowArrays:
    @settings(max_examples=150, deadline=None)
    @given(u=st.lists(held_voltages, max_size=30), first=st.integers(0, 2**40),
           noise=st.sampled_from(NOISE_MODELS))
    def test_array_call_equals_scalar_calls(self, u, first, noise):
        bins = simulate_window(np.array(u, dtype=float), CFG3K, noise, window_index=first)
        assert bins.dtype == np.int64 and bins.shape == (len(u),)
        for i, v in enumerate(u):
            k = simulate_window(v, CFG3K, noise, window_index=first + i)
            assert bins[i] == (0 if k is None else k)

    def test_scalar_call_returns_int_or_none(self, cfg3k):
        k = simulate_window(np.float64(3.0), cfg3k)
        assert type(k) is int and k == 31
        assert simulate_window(np.float64(0.05), cfg3k) is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_scalar_non_finite_voltage_is_rejected(self, cfg3k, bad):
        # it must not read as a silent window
        with pytest.raises(ValueError, match="window 7 holds a non-finite input voltage"):
            simulate_window(bad, cfg3k, window_index=7)

    # with no noise or constant noise, -1 and 2.5 used to give bin 31 or
    # 28; per-window noise named _draws' window range or raised TypeError
    @pytest.mark.parametrize("noise", NOISE_MODELS, ids=["none", "constant", "per-window"])
    @pytest.mark.parametrize("window_index", [-1, 2.5])
    def test_window_index_is_checked_in_every_noise_mode(self, noise, window_index):
        with pytest.raises(ValueError, match=rf"^window_index must be a non-negative integer, "
                                             rf"got {window_index}$"):
            simulate_window(3.0, CFG3K, noise, window_index=window_index)

    def test_array_non_finite_voltage_is_rejected(self, cfg3k):
        u = np.array([3.0, 1e12, np.nan, np.inf, 3.0])
        with pytest.raises(ValueError, match=r"window 12 holds a non-finite input voltage \(nan\)"):
            simulate_window(u, cfg3k, window_index=10)


@st.composite
def encoders(draw):
    """Valid encoders whose window ends within a few time constants
    (up to four times the slowest spike), at 1 to 5000 bins."""
    tau = draw(st.floats(1e-5, 1e-1))
    u_th = draw(st.floats(0.01, 1.0))
    u_min = u_th * draw(st.floats(1.5, 20.0))
    u_max = u_min * draw(st.floats(1.1, 10.0))
    t_slow = -tau * math.log1p(-u_th / u_min)
    sample_period = t_slow * draw(st.floats(1.0, 4.0))
    resolution = draw(st.integers(1, 5000))
    return EncoderConfig(tau=tau, u_th=u_th, u_min=u_min, u_max=u_max,
                         sample_period=sample_period, reader_period=sample_period / resolution)


class TestSimulateWindowProperties:
    @settings(max_examples=150, deadline=None)
    @given(cfg=encoders(), scale=st.lists(st.floats(0.0, 50.0), min_size=2, max_size=40),
           constant_noise=st.booleans())
    def test_bins_do_not_increase_with_u(self, cfg, scale, constant_noise):
        noise = ThermalNoiseModel(delta_u=0.5 * cfg.u_th) if constant_noise else None
        u = np.sort(np.array(scale)) * cfg.u_th
        bins = simulate_window(u, cfg, noise)
        fired = bins > 0
        # silence only below the fired range, and later spikes only at lower u
        assert np.all(fired[np.argmax(fired):]) or not fired.any()
        assert np.all(np.diff(bins[fired]) <= 0)

    @settings(max_examples=100, deadline=None)
    @given(cfg=encoders())
    def test_every_bin_round_trips_through_the_ideal_decoder(self, cfg):
        k = np.arange(1, cfg.resolution + 1)
        u = decode_ideal(k * cfg.reader_period, cfg)
        assert np.array_equal(simulate_window(u, cfg), k)


def decimal_bins(u, cfg):
    """ceil(-tau ln(1 - u_th / u) / T_N) for each float voltage u, in
    50-digit decimal arithmetic on the exact values of the floats."""
    with decimal.localcontext(prec=50):
        tau, u_th, t_n = map(decimal.Decimal, (cfg.tau, cfg.u_th, cfg.reader_period))
        ticks = (-tau * (1 - u_th / decimal.Decimal(v)).ln() / t_n for v in u.tolist())
        return [int(t.to_integral_value(decimal.ROUND_CEILING)) for t in ticks]


class TestDecimalOracle:
    @pytest.mark.parametrize("resolution", [10**6, 10**8, 5 * 10**8])
    def test_bins_at_high_resolution(self, cfg3k, resolution):
        # a crossing within 1e-9 of a tick, relative to the tick count,
        # used to register on it: 1, 69 and 351 of these 2,000 windows
        # landed one bin early
        cfg = replace(cfg3k, reader_period=cfg3k.sample_period / resolution)
        u = np.random.default_rng(resolution).uniform(1.0, 5.0, 2000)
        assert simulate_window(u, cfg).tolist() == decimal_bins(u, cfg)


class TestEulerOracle:
    def test_closed_form_matches_stepped_membrane(self, cfg3k):
        # forward Euler of du/dt = (U - u)/tau at dt = T_N/100, crossing
        # located by linear interpolation, stays within T_N/100 of the
        # closed form across the working range
        dt = cfg3k.reader_period / 100.0
        for u_in in (1.0, 1.5, 2.0, 3.0, 4.0, 5.0):
            u = 0.0
            t = 0.0
            while u < cfg3k.u_th:
                u_prev = u
                u += dt * (u_in - u) / cfg3k.tau
                t += dt
            frac = (cfg3k.u_th - u_prev) / (u - u_prev)
            t_euler = (t - dt) + frac * dt
            t_exact = encode_time(u_in, cfg3k).time
            assert abs(t_euler - t_exact) <= dt


class TestThermalNoise:
    def test_constant_offset_advances_spike(self, cfg3k):
        noise = ThermalNoiseModel(delta_u=0.01, mode="constant")
        # clean bin 95; offset crossing at 282.9 us lands in bin 85
        assert simulate_window(1.0, cfg3k, noise) == 85

    def test_per_window_draw_is_seeded_and_bounded(self):
        noise = ThermalNoiseModel(delta_u=0.02, mode="per-window", rng_seed=42)
        draws = np.array([noise.offset(m) for m in range(200)])
        again = np.array([noise.offset(m) for m in range(200)])
        assert np.array_equal(draws, again)
        assert np.all((draws >= 0.0) & (draws <= 0.02))
        assert np.unique(draws).size > 100  # actually varies per window

    def test_draws_independent_of_evaluation_order(self):
        noise = ThermalNoiseModel(delta_u=0.02, mode="per-window", rng_seed=42)
        forward = [noise.offset(m) for m in range(50)]
        backward = [noise.offset(m) for m in reversed(range(50))]
        assert forward == backward[::-1]

    @pytest.mark.parametrize("seed, first, n", [
        (0, 0, 40),
        (1, 0, 40),
        (2**32 - 1, 0, 40),
        (2**32, 0, 40),
        (2**64 + 5, 0, 40),
        (2**96 + 7, 0, 40),  # five entropy words, one more than the pool
        (42, 8190, 2 * 8192 + 5),  # across two chunk boundaries
        (42, 2**32 - 3, 8),  # window index from one uint32 word to two
        (7, 2**32 - 8195, 8200),  # a chunk boundary, then 2**32
        (2**32, 2**40, 40),
    ])
    def test_batched_draws_equal_per_window_generators(self, seed, first, n):
        noise = ThermalNoiseModel(delta_u=0.02, mode="per-window", rng_seed=seed)
        expected = np.array([np.random.default_rng([seed, m]).uniform(0.0, 0.02)
                             for m in range(first, first + n)])
        assert np.array_equal(noise._offsets(first, n), expected)
        assert noise.offset(first + n - 1) == expected[-1]

    def test_per_window_simulation_stays_chunked(self):
        # drawing 1e5 windows at once held about 28 MiB of temporaries
        noise = ThermalNoiseModel(delta_u=0.01, mode="per-window", rng_seed=11)
        u = 3.0 + 2.0 * np.sin(0.01 * np.arange(100_000))
        tracemalloc.start()
        try:
            simulate_window(u, CFG3K, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("draw, message", [
        (lambda: window_doubles(-1, 0, 1), "seed must be a non-negative integer"),
        (lambda: window_doubles(0, -1, 1), r"window indices -1..-1 must lie in 0..2\*\*64-1"),
        (lambda: simulate_window(np.full(3, 3.0), CFG3K, ThermalNoiseModel(0.01, "per-window"),
                                 window_index=2**64 - 2),
         rf"window indices {2**64 - 2}..{2**64} must lie in 0..2\*\*64-1"),
    ], ids=["negative-seed", "negative-window", "past-2**64-1"])
    def test_draws_outside_their_range_are_refused(self, draw, message):
        with pytest.raises(ValueError, match=message):
            draw()

    # constant mode returned delta_u for both; per-window mode named
    # _draws' window range for -1 and raised TypeError for 2.5
    @pytest.mark.parametrize("mode", ["constant", "per-window"])
    @pytest.mark.parametrize("window_index", [-1, 2.5])
    def test_offset_checks_its_window_index(self, mode, window_index):
        with pytest.raises(ValueError, match=rf"^window_index must be a non-negative integer, "
                                             rf"got {window_index}$"):
            ThermalNoiseModel(0.01, mode).offset(window_index)

    @pytest.mark.parametrize("seed", [1.5, -3, True, "7"])
    def test_rejects_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="rng_seed must be a non-negative integer"):
            ThermalNoiseModel(delta_u=0.01, mode="per-window", rng_seed=seed)

    def test_accepts_numpy_integer_seed(self):
        noise = ThermalNoiseModel(delta_u=0.01, mode="per-window", rng_seed=np.uint64(2**63))
        assert noise.offset(3) == np.random.default_rng([2**63, 3]).uniform(0.0, 0.01)

    @pytest.mark.parametrize("delta_u", [math.nan, math.inf])
    def test_rejects_non_finite_delta(self, delta_u):
        with pytest.raises(ValueError, match="delta_u must be finite"):
            ThermalNoiseModel(delta_u=delta_u)

    def test_rejects_offset_at_threshold(self, cfg3k):
        with pytest.raises(ValueError, match="delta_u"):
            simulate_window(1.0, cfg3k, ThermalNoiseModel(delta_u=0.1))

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            ThermalNoiseModel(delta_u=-0.01)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ThermalNoiseModel(delta_u=0.01, mode="gaussian")


class TestEncodeSignal:
    def test_constant_signal_repeats_one_bin(self, cfg3k):
        train = encode_signal(constant(3.0, 10 * cfg3k.sample_period), cfg3k)
        assert len(train) == 10
        assert np.all(train.bins == 31)

    def test_sine_500hz_at_3khz_has_period_six(self, cfg3k):
        sig = sine(SineSpec(2.0, 500.0, 3.0), 60 * cfg3k.sample_period)
        train = encode_signal(sig, cfg3k)
        assert len(train) == 60
        assert np.array_equal(train.bins[:54], train.bins[6:])
        assert np.unique(train.bins).size > 1

    def test_matches_window_by_window_simulation(self, cfg3k):
        noise = ThermalNoiseModel(delta_u=0.05, mode="per-window", rng_seed=9)
        sig = sine(SineSpec(2.0, 500.0, 3.0), 30 * cfg3k.sample_period)
        train = encode_signal(sig, cfg3k, noise)
        starts = np.arange(30) * cfg3k.sample_period
        for m, u in enumerate(sig(starts)):
            k = simulate_window(float(u), cfg3k, noise, window_index=m)
            assert train.bins[m] == (0 if k is None else k)

    def test_per_window_noise_with_subthreshold_windows(self, cfg3k):
        # held inputs alternate 3.0 V and 0.05 V; the low ones sit below
        # every lowered threshold and must read as silence, not crash
        period = cfg3k.sample_period
        sig = AnalogSignal(lambda t: np.where(np.rint(t / period) % 2 == 0, 3.0, 0.05),
                           8 * period)
        noise = ThermalNoiseModel(delta_u=0.05, mode="per-window", rng_seed=4)
        train = encode_signal(sig, cfg3k, noise)
        assert np.all(train.bins[1::2] == 0)
        for m in range(0, 8, 2):
            assert train.bins[m] == simulate_window(3.0, cfg3k, noise, window_index=m)

    def test_deterministic_reruns(self, cfg3k):
        noise = ThermalNoiseModel(delta_u=0.05, mode="per-window", rng_seed=17)
        sig = sine(SineSpec(2.0, 250.0, 3.0), 50 * cfg3k.sample_period)
        a = encode_signal(sig, cfg3k, noise)
        b = encode_signal(sig, cfg3k, noise)
        assert np.array_equal(a.bins, b.bins)
        assert a.seed == b.seed == 17

    def test_subthreshold_stays_silent(self, cfg3k):
        train = encode_signal(constant(0.05, 5 * cfg3k.sample_period), cfg3k)
        assert np.all(train.bins == 0)
        assert np.all(np.isnan(train.spike_times()))

    def test_rejects_signal_shorter_than_one_window(self, cfg3k):
        with pytest.raises(ValueError, match="window"):
            encode_signal(constant(3.0, 0.4 * cfg3k.sample_period), cfg3k)

    @pytest.mark.parametrize("duration", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_duration_that_is_not_positive_and_finite(self, duration):
        # an infinite duration used to end encode_signal in OverflowError
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            constant(3.0, duration)

    def test_oversized_duration_is_named_before_allocating(self, cfg3k):
        # used to end in numpy's "Maximum allowed size exceeded"
        with pytest.raises(ValueError, match=r"signal duration 1e\+300 s spans 3e\+303 windows"):
            encode_signal(constant(3.0, 1e300), cfg3k)

    def test_window_count_is_exact_on_multiples(self, cfg3k):
        # 128 * T_S computed in floats must still give 128 windows
        train = encode_signal(constant(3.0, 128 * cfg3k.sample_period), cfg3k)
        assert len(train) == 128

    def test_window_count_is_exact_past_float_dust(self, cfg3k):
        # encode passes duration = windows * T_S; at T_S = 1/3000 the
        # count used to come back one short from 24,576,010 windows
        n = 24_576_010
        assert cfg3k.sample_period == 1 / 3000
        assert _window_count(float(n * cfg3k.sample_period), cfg3k.sample_period) == n

    # every n below 2**51, where a float duration still holds n, over
    # periods of 1e-7..1 s
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 2**51 - 1),
           rate=st.sampled_from([3000.0, 1000.0, 48000.0, 7.0, 1e7, 3e5, 1.0]))
    def test_window_count_round_trips_through_the_duration(self, n, rate):
        assert _window_count(float(n * (1 / rate)), 1 / rate) == n

    @pytest.mark.parametrize("n, part", [(6 * 10**8, 0.7), (10**9, 0.6), (3 * 10**12, 0.7)])
    def test_window_count_drops_a_partial_last_window(self, cfg3k, n, part):
        # a snap of 1e-9 relative counted these as n + 1 windows
        assert _window_count((n + part) * cfg3k.sample_period, cfg3k.sample_period) == n


class TestSpikeTrainIO:
    def test_round_trip(self, tmp_path, cfg3k):
        sig = sine(SineSpec(2.0, 500.0, 3.0), 12 * cfg3k.sample_period)
        noise = ThermalNoiseModel(delta_u=0.03, mode="per-window", rng_seed=5)
        train = encode_signal(sig, cfg3k, noise)
        csv_path = str(tmp_path / "train.csv")
        write_spike_train(train, csv_path)
        back = read_spike_train(csv_path)
        assert np.array_equal(back.bins, train.bins)
        assert back.config == train.config
        assert back.seed == 5

    def test_silent_windows_round_trip_as_empty_cells(self, tmp_path, cfg3k):
        train = SpikeTrain(bins=np.array([31, 0, 19]), config=cfg3k, seed=None)
        csv_path = str(tmp_path / "train.csv")
        write_spike_train(train, csv_path)
        text = (tmp_path / "train.csv").read_text()
        assert text == "window,bin\n0,31\n1,\n2,19\n"
        back = read_spike_train(csv_path)
        assert list(back.bins) == [31, 0, 19]
        assert back.seed is None

    def test_rejects_out_of_range_bins(self, cfg3k):
        with pytest.raises(ValueError, match="bin indices"):
            SpikeTrain(bins=np.array([5, 101]), config=cfg3k)
        with pytest.raises(ValueError, match="bin indices"):
            SpikeTrain(bins=np.array([-1]), config=cfg3k)
        with pytest.raises(ValueError, match="bins must be one-dimensional"):
            SpikeTrain(bins=np.full((2, 2), 31), config=cfg3k)

    # a cast to int64 cut these to the bins [1, 30] and [1, 2] unseen;
    # integers of any width, and no bins at all, are a train
    @pytest.mark.parametrize("bins, dtype", [([1.7, 30.2], "float64"), ([True, 2.9], "float64"),
                                             ([True, False], "bool"), ([31, None], "object")])
    def test_rejects_bins_that_are_not_integers(self, cfg3k, bins, dtype):
        with pytest.raises(ValueError, match=f"^bins must be integers, got an array of {dtype}$"):
            SpikeTrain(bins=np.array(bins), config=cfg3k)
        for ints in (np.array([31, 0], np.uint8), np.array([31, 0], np.int32), [31, 0]):
            assert SpikeTrain(bins=ints, config=cfg3k).bins.tolist() == [31, 0]
        assert SpikeTrain(bins=[], config=cfg3k).bins.dtype == np.int64

    def test_spike_times_use_reader_period(self, cfg3k):
        train = SpikeTrain(bins=np.array([31, 0]), config=cfg3k)
        times = train.spike_times()
        assert times[0] == pytest.approx(31 * cfg3k.reader_period, rel=1e-12)
        assert math.isnan(times[1])
