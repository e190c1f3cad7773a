import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikecodec import (
    EncoderConfig,
    LinearDecoderParams,
    TunerConfig,
    fit_linear_decoder,
    linear_error,
    read_decoder,
    timing_summary,
    write_tuning,
)


def endpoint_params(cfg) -> LinearDecoderParams:
    ts = timing_summary(cfg)
    return LinearDecoderParams(t_lin_min=ts.t_min, t_lin_max=ts.t_max,
                               y_min=cfg.u_min, y_max=cfg.u_max)


def stretched_error(cfg, k1, k2):
    """linear_error of the decoder stretched by (k1, k2); None when the
    stretch collapses or inverts the time span."""
    ts = timing_summary(cfg)
    t_lo, t_hi = ts.t_min * (1 + k1), ts.t_max * (1 + k2)
    if not t_hi > t_lo:
        return None
    return linear_error(cfg, LinearDecoderParams(t_lin_min=t_lo, t_lin_max=t_hi,
                                                 y_min=cfg.u_min, y_max=cfg.u_max))


def assert_fit_is_box_minimum(cfg, n=15):
    """The fit stays in [-1, 2]^2 and scores no worse than the endpoint
    or any point of an n x n grid over that box."""
    fit = fit_linear_decoder(cfg)
    assert -1.0 <= fit.k1 <= 2.0 and -1.0 <= fit.k2 <= 2.0
    grid = np.linspace(-1.0, 2.0, n)
    for k1, k2 in [(0.0, 0.0), *((a, b) for a in grid for b in grid)]:
        eps = stretched_error(cfg, k1, k2)
        if eps is not None:
            assert fit.eps_lin <= eps * (1 + 1e-12), (k1, k2, eps, fit.eps_lin)
    return fit


class TestLinearError:
    def test_endpoint_decoder_reference_values(self, cfg3k):
        # independent 1024-point trapezoid quadrature of the closed form
        assert linear_error(cfg3k, endpoint_params(cfg3k)) == pytest.approx(
            4.040203394562413, rel=1e-12)

    def test_narrower_range_reads_back_better(self, cfg3k):
        cfg2 = EncoderConfig(tau=3e-3, u_th=0.1, u_min=2.0, u_max=5.0,
                             sample_period=cfg3k.sample_period,
                             reader_period=cfg3k.reader_period)
        eps2 = linear_error(cfg2, endpoint_params(cfg2))
        assert eps2 == pytest.approx(1.358505088832903, rel=1e-12)
        assert eps2 < linear_error(cfg3k, endpoint_params(cfg3k))

    def test_tau_cancels(self, cfg3k):
        vals = []
        for tau in (1e-3, 3e-3, 10e-3):
            cfg = EncoderConfig(tau=tau, u_th=0.1, u_min=1.0, u_max=5.0,
                                sample_period=0.01, reader_period=1e-4)
            vals.append(linear_error(cfg, endpoint_params(cfg)))
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[1] == pytest.approx(vals[2], rel=1e-12)

    def test_nearly_affine_segment_decodes_nearly_exactly(self):
        # over a 2 mV slice the code is affine to first order, so the
        # endpoint decoder is as good as perfect
        cfg = EncoderConfig(tau=3e-3, u_th=0.1, u_min=4.999, u_max=5.001,
                            sample_period=0.01, reader_period=1e-4)
        assert linear_error(cfg, endpoint_params(cfg)) < 1e-9


class TestFitLinearDecoder:
    def test_never_worse_than_endpoint_interpolation(self, cfg3k):
        fit = fit_linear_decoder(cfg3k, TunerConfig(generations=60))
        assert fit.eps_lin <= linear_error(cfg3k, endpoint_params(cfg3k)) + 1e-12

    def test_wide_range_fit_anchor(self, cfg3k):
        # a 400x400 exhaustive scan (done offline) bottoms out at
        # eps_lin ~ 1.564 with k1 ~ -0.85, k2 ~ -0.29
        fit = fit_linear_decoder(cfg3k, TunerConfig())
        assert fit.eps_lin == pytest.approx(1.564, rel=0.01)
        assert fit.k1 == pytest.approx(-0.85, abs=0.03)
        assert fit.k2 == pytest.approx(-0.29, abs=0.03)

    def test_reported_figures_are_consistent(self, cfg3k):
        fit = fit_linear_decoder(cfg3k, TunerConfig(generations=80))
        assert fit.eps_lin == pytest.approx(linear_error(cfg3k, fit.params), rel=1e-12)
        assert fit.mu == pytest.approx(timing_summary(cfg3k).mu, rel=1e-12)
        assert fit.params.t_lin_min == pytest.approx(
            timing_summary(cfg3k).t_min * (1 + fit.k1), rel=1e-12)

    def test_repeat_fits_are_identical(self, cfg3k):
        a = fit_linear_decoder(cfg3k, TunerConfig())
        b = fit_linear_decoder(cfg3k, TunerConfig())
        assert a == b

    def test_stretch_bounds_respected(self):
        # the wide encoder at u_th 0.9 would stretch t_min below zero:
        # the fit stops on the box edge k1 = -1 and is still the minimum
        cfg = EncoderConfig(tau=3e-3, u_th=0.9, u_min=1.0, u_max=5.0,
                            sample_period=7.4e-3, reader_period=1.48e-6)
        fit = assert_fit_is_box_minimum(cfg)
        assert fit.k1 == -1.0 and fit.params.t_lin_min == 0.0

    @settings(max_examples=60, deadline=None)
    @given(u_min=st.floats(0.5, 4.5), th_ratio=st.floats(0.01, 0.95))
    def test_fit_is_the_minimum_over_its_box(self, u_min, th_ratio):
        cfg = EncoderConfig(tau=3e-3, u_th=th_ratio * u_min, u_min=u_min, u_max=5.0,
                            sample_period=1e-2, reader_period=1e-4)
        assert_fit_is_box_minimum(cfg)

    def test_overflowing_fit_error_is_rejected(self, cfg3k):
        # the trapezoid sum over 1..1e300 V overflows; the fit used to
        # return eps_lin = inf
        cfg = EncoderConfig(**{**asdict(cfg3k), "u_max": 1e300})
        with pytest.raises(ValueError, match=r"eps_lin is inf: the working range 1\.\.1e\+300 V"):
            fit_linear_decoder(cfg)


class TestTuningIO:
    def test_round_trip(self, tmp_path, cfg3k):
        fit = fit_linear_decoder(cfg3k, TunerConfig(generations=30))
        path = str(tmp_path / "tuning.json")
        write_tuning(fit, cfg3k, path)
        p = read_decoder(path, cfg3k)
        assert p == fit.params

    @pytest.mark.parametrize("field", ["tau", "u_th", "u_min", "u_max"])
    def test_each_field_the_fit_reads_must_match(self, tmp_path, cfg3k, field):
        path = str(tmp_path / "tuning.json")
        write_tuning(fit_linear_decoder(cfg3k), cfg3k, path)
        enc = replace(cfg3k, **{field: getattr(cfg3k, field) * (1 + 2**-52)})
        with pytest.raises(ValueError, match=f"fitted for encoder {field} = "):
            read_decoder(path, enc)

    def test_encoder_must_be_an_object(self, tmp_path, cfg3k):
        # a string would pass `"tau" in encoder` and end in a TypeError
        path = tmp_path / "tuning.json"
        doc = {**asdict(endpoint_params(cfg3k)), "encoder": "tau u_th"}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'encoder' must be a JSON object, got 'tau u_th'"):
            read_decoder(str(path), cfg3k)
