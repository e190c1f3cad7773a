import csv
import json
import warnings

import numpy as np
import pytest

from spikecodec import (
    ErrorReport,
    decode_ideal,
    empirical_errors,
    encode_time,
    simulate_window,
    thermal_shift,
    write_error_report,
)


class TestShifts:
    def test_thermal_reference_values(self, cfg3k):
        # tau * ln(0.91/0.90) etc., worked out by hand
        assert thermal_shift(1.0, 0.01, cfg3k) == pytest.approx(3.314950855975497e-5, rel=1e-12)
        assert thermal_shift(2.0, 0.01, cfg3k) == pytest.approx(1.5748067658431184e-5, rel=1e-12)
        assert thermal_shift(5.0, 0.01, cfg3k) == pytest.approx(6.116210069544856e-6, rel=1e-12)

    def test_zero_offset_zero_shift(self, cfg3k):
        assert thermal_shift(2.0, 0.0, cfg3k) == 0.0

    def test_shift_decreases_with_voltage(self, cfg3k):
        u = np.linspace(0.5, 5.0, 40)
        s = [thermal_shift(float(v), 0.01, cfg3k) for v in u]
        assert np.all(np.diff(s) < 0)

    def test_shift_increases_with_offset(self, cfg3k):
        d = np.linspace(0.0, 0.09, 30)
        s = [thermal_shift(1.0, float(v), cfg3k) for v in d]
        assert np.all(np.diff(s) > 0)

    def test_domain_errors(self, cfg3k):
        with pytest.raises(ValueError, match="u_in"):
            thermal_shift(0.05, 0.01, cfg3k)
        with pytest.raises(ValueError, match="delta_u"):
            thermal_shift(1.0, -0.01, cfg3k)
        with pytest.raises(ValueError, match="delta_u"):
            thermal_shift(1.0, 0.1, cfg3k)


class TestEmpiricalErrors:
    def test_perfect_measurement_is_zero(self, cfg3k):
        u = np.array([1.0, 2.0, 5.0])
        t = np.array([encode_time(v, cfg3k).time for v in u])
        rep = empirical_errors(u, t, t, cfg3k)
        assert rep.rmse == 0.0
        assert np.all(rep.eps_u == 0.0)
        assert np.all(rep.eps_ts == 0.0)

    def test_one_bin_late_gives_unit_timing_error(self, cfg3k):
        u = np.array([2.0, 3.0])
        t = np.array([encode_time(v, cfg3k).time for v in u])
        rep = empirical_errors(u, t, t + cfg3k.reader_period, cfg3k)
        assert rep.eps_ts == pytest.approx([1.0, 1.0], rel=1e-9)
        assert np.all(rep.eps_u > 0)

    def test_rmse_recomputable_from_samples(self, cfg3k):
        rng = np.random.default_rng(31)
        u = rng.uniform(1.0, 5.0, 100)
        t = np.array([encode_time(float(v), cfg3k).time for v in u])
        t_meas = t + rng.uniform(0, cfg3k.reader_period, 100)
        rep = empirical_errors(u, t, t_meas, cfg3k)
        assert rep.rmse == pytest.approx(float(np.sqrt(np.mean(rep.eps_u**2))), rel=1e-14)

    def test_simulated_sweep_stays_inside_envelope(self, cfg3k):
        # one-bin worst case bounds every quantized decode error
        u = np.linspace(1.0, 5.0, 64)
        eps, bound = [], []
        for v in u:
            k = simulate_window(float(v), cfg3k)
            t = encode_time(float(v), cfg3k).time
            eps.append(abs(v - decode_ideal(k * cfg3k.reader_period, cfg3k)))
            bound.append(abs(v - decode_ideal(t + cfg3k.reader_period, cfg3k)))
        assert np.all(np.array(eps) <= np.array(bound) + 1e-12)

    def test_shape_validation(self, cfg3k):
        with pytest.raises(ValueError, match="equal length"):
            empirical_errors([1.0, 2.0], [1e-4], [1e-4], cfg3k)
        with pytest.raises(ValueError, match="positive"):
            empirical_errors([2.0], [1e-4], [0.0], cfg3k)
        with pytest.raises(ValueError, match="empty"):
            ErrorReport(u_in=[], eps_u=[], eps_ts=[], rmse=0.0)
        with pytest.raises(ValueError, match="per-sample arrays must have equal length"):
            ErrorReport(u_in=[2.0, 3.0], eps_u=[0.0], eps_ts=[0.0, 0.0], rmse=0.0)

    def test_rmse_that_overflows_is_named(self, cfg3k):
        # an RMSE of inf used to come back as a result
        u = np.array([2.0, 1e300])
        t = np.array([encode_time(v, cfg3k).time for v in u])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"decoding error rmse is inf: the largest "
                               r"voltage error, 1e\+300 V, overflows when squared"):
                empirical_errors(u, t, t + cfg3k.reader_period, cfg3k)


class TestErrorReportIO:
    def test_csv_and_json_output(self, tmp_path, cfg3k):
        u = np.array([1.0, 2.0])
        t = np.array([encode_time(v, cfg3k).time for v in u])
        rep = empirical_errors(u, t, t + 1e-6, cfg3k)
        csv_path = tmp_path / "report.csv"
        json_path = tmp_path / "report.json"
        write_error_report(rep, str(csv_path), str(json_path), meta={"u_th": 0.1})
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["u_in"] for r in rows] == ["1.0", "2.0"]
        assert float(rows[0]["eps_ts"]) == pytest.approx(rep.eps_ts[0], rel=1e-15)
        doc = json.loads(json_path.read_text())
        assert doc["rmse"] == pytest.approx(rep.rmse, rel=1e-15)
        assert doc["samples"] == 2
        assert doc["u_th"] == 0.1
