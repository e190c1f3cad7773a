"""The design sweeps: pinned output bytes of sweep-constant and
sft-sweep, and the batched frequency sweep against the per-point loop
it replaced.

The noisy sweep-constant digests were recorded when it wrote each
threshold's report on its own; the clean run, with no noise section,
was pinned later, on code that still gave the noisy run its recorded
bytes. The sft-sweep digests were recorded when the S-FT moved from two
weight-matrix products to np.fft.fft, which moved every spectrum by at
most 7e-15 of its largest magnitude. Any change to those files' bytes
turns them red.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from spikecodec import (
    SftConfig,
    SineSpec,
    ThermalNoiseModel,
    encode_signal,
    ideal_adc_fft,
    sft_stream,
    simulate_window,
    sine,
)
from spikecodec.cli import _resolve_decoder, _sft_points, main
from conftest import CFG3K

SWEEP_FREQS = "25,50,75,100,150,200,250,300,400,500,600,700,750,800,900,1000"
REFERENCE_ENCODER = {"tau": 3e-3, "u_th": 0.1, "u_min": 1.0, "u_max": 5.0,
                     "sample_period": 1.0 / 3000.0, "resolution": 100}
PER_WINDOW = {"delta_u": 0.01, "mode": "per-window"}

PINNED = {
    "sft-sweep": {
        "spectrum_1000hz.csv":
            "a29348b1f9b36d34e01770e2f7c48cc8382405f86cd41899961d947e45851f82",
        "spectrum_100hz.csv":
            "c964b5e78711f90330c4b4d1e058503a09473795f1dff18f5d24342b9a371d73",
        "spectrum_150hz.csv":
            "fdb3cf4f25b499b82670f703c9f07347b96f2f3fbe4043db1d03df18997a9e79",
        "spectrum_200hz.csv":
            "011c61deb98126850de256303c6055745ca7d38534ea3a89bbcf647823e7d24a",
        "spectrum_250hz.csv":
            "f386fb648e9d73d5d1377aea4750ef905f6d8f03a0f2eaf916d0a14d7286e815",
        "spectrum_25hz.csv":
            "63fda83c68a670a39f59c5558693393e84599c102e16f3aa5288cba3b0976349",
        "spectrum_300hz.csv":
            "2f4a2a928b0a603649961d03009aa84d290671d23f25d0bbf13c27c8a112eeef",
        "spectrum_400hz.csv":
            "97c39fc782d4d25c1465817260fed563f52fe1549670d6792297ab790d346c1f",
        "spectrum_500hz.csv":
            "7f3e0541ac067344f74e2b6a37b36912190bd3ff39f4eb03587e0ed8ff54525f",
        "spectrum_50hz.csv":
            "e85c3396d8fcf109b4ece926678a8070935fa823b11c2938532cc0f5ea10e941",
        "spectrum_600hz.csv":
            "e8ebfb56db4fd814ee9f303547fa19f84333cb1468b117880ffcd48a27d18766",
        "spectrum_700hz.csv":
            "6b301af0563cbc31929a536548042f3a7eed3d2f84b9cffcfaaa814abf6ff8d1",
        "spectrum_750hz.csv":
            "2ff9928fb029f509ad7bf088a4627bfce16cf1c4c6ff02a30874449b2e116964",
        "spectrum_75hz.csv":
            "37b9515bb4e01f65f15be1d6e6cfab30bb94830002c102c84204b82fea6ef6f2",
        "spectrum_800hz.csv":
            "5a6a0c4dabaa2ed6f6e2578a427b3e6817b54703ad684f595df129421bd3c9db",
        "spectrum_900hz.csv":
            "75f5168ae9833e9de188375e0bea2b6406c4132e57be2f8b5f31f5e014ec2ac8",
        "summary.csv":
            "31618890852b5324435476bc19bb457d81be817d3677c4559174c5d6d1f37005",
    },
    "sft-sweep-noisy": {
        "spectrum_1000hz.csv":
            "070ce499d6cc6833966b500a5f0eb4dec8560c3d525b9b2a2c7e4f863d146174",
        "spectrum_100hz.csv":
            "dca543fd37241f16a8ea5d7a35094b2e6f54bc7e1133516ee5f22307a0092c09",
        "spectrum_150hz.csv":
            "4583291411370ae34953d71d187a7b38738f6a2e8b6dbe25fd573902be8ad817",
        "spectrum_200hz.csv":
            "0111c3167b7808d3624f44947455ed194533c6b9655d1d7bb26e71ed9ca60ea9",
        "spectrum_250hz.csv":
            "7a3b49db7acbbd87d6dd2c79626dab31187e86c7e8e3d2b65ce50aede7643d5c",
        "spectrum_25hz.csv":
            "d507053b568d4078459aec362da6b389beded2aa3155060c9ab5f40f352654b0",
        "spectrum_300hz.csv":
            "cd96dd31da9a5961889c3aa4545a474d5fe8e8ad8ffc36fdfa9eaacb2580e719",
        "spectrum_400hz.csv":
            "d3552f675b2112b1ab4e817a049019d6895ee551886d4724db5cdf5ef8e8940f",
        "spectrum_500hz.csv":
            "ea02eee315e36b8d32c23642b8d6071048609bd4f1bb319b85fcd2c3ef93f5b9",
        "spectrum_50hz.csv":
            "66ece864060d06be1b20a753935cdd6d52cc22b9123da3f6d8108fe7d4599956",
        "spectrum_600hz.csv":
            "ae2c5fc4ee1801b6aaf33a886e41ae2adba1b2585e546abad937bd174aa1b6b1",
        "spectrum_700hz.csv":
            "8fd17b862b8b79f3aa02c999c06738d3e87947914307646e93def2d7d25eb41f",
        "spectrum_750hz.csv":
            "b1c7feb8eedffa82c85c79722b704aaf00471c814b0edf6e12053604bbf98c91",
        "spectrum_75hz.csv":
            "6633ba10fbeee73d0097935562a62c0a42241f9048f77bbd9446259d6748edcd",
        "spectrum_800hz.csv":
            "97e631a9d2923b5b62bcaba7a87dafa3b623e3e21d34f997dcb1bca898f9ec9e",
        "spectrum_900hz.csv":
            "dbaa6b43c967807c7e5c3f206bf3909d06e11e444ec9b9b099bf2ec6b1cfa1fc",
        "summary.csv":
            "9f2847d729886790dadd3127ac4a15555b691a39986f899e73814ef52d1c742a",
    },
    "sweep-constant-clean": {
        "sweep_uth_0.1.csv":
            "8969594c9e754d1b5a20f27aca07afc2cbed75c6776f9b152bd5f4daba7421c9",
        "sweep_uth_0.1.json":
            "7b2cc56284590105f97b7888ee456e7fff9d4b5b090b54da0a873f70283dec96",
        "sweep_uth_0.5.csv":
            "2a4bab7e7ba4fab813121cc4e452340bea33015caa8ddad0a5d17afa88caf39d",
        "sweep_uth_0.5.json":
            "f5054e698ad946155f83028ccd775b596e2910fefe7c1c79931a2c23fe1212e6",
        "sweep_uth_0.9.csv":
            "b808a12669447a834e9ffc80eb7fbcf11bd24b3270837c996629db7f0a01245b",
        "sweep_uth_0.9.json":
            "12c9e9341f98587d838e1dcc4069ed3e005609162a43f19fe72cb1969515a1fb",
    },
    "sweep-constant": {
        "sweep_uth_0.1.csv":
            "33045febba5df5caa0aa0df75304faeb731add9e7b47ddd97efda1bd13c48d49",
        "sweep_uth_0.1.json":
            "928a54048896a6a70a62c2edcb8f430597b0c646f45730ffce3c8433437701d9",
        "sweep_uth_0.5.csv":
            "deb199a7d4622e62463ac7c8e6e9b26d131c30c2f430c31a604419038519f6ef",
        "sweep_uth_0.5.json":
            "c78284e0a0f77494d75753d8f85082658845a6f8f21241424ba96591d98c34d0",
        "sweep_uth_0.9.csv":
            "e66b7cc3c264f21ef5611f6ec8033cdcd967e77996ba94aaf6bde30762aebb81",
        "sweep_uth_0.9.json":
            "f0b1ef71a31651c4c42fa65375be7daac0fef996455e8094f1386c1c03795026",
    },
}

RUNS = {
    "sweep-constant": ({"noise": PER_WINDOW},
                       ["sweep-constant", "--thresholds", "0.1,0.5,0.9", "--points", "4096",
                        "--seed", "7"]),
    # no noise section: every window takes the closed-form crossing alone
    "sweep-constant-clean": ({}, ["sweep-constant", "--thresholds", "0.1,0.5,0.9", "--points", "4096"]),
    "sft-sweep": ({"encoder": REFERENCE_ENCODER, "sft": {"frame_size": 128}},
                  ["sft-sweep", "--freqs", SWEEP_FREQS]),
    "sft-sweep-noisy": ({"encoder": REFERENCE_ENCODER, "sft": {"frame_size": 128},
                         "noise": PER_WINDOW},
                        ["sft-sweep", "--freqs", SWEEP_FREQS, "--seed", "11"]),
}


def digests(directory) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_pinned_bytes(tmp_path, capsys, run):
    doc, argv = RUNS[run]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(config), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert digests(out) == PINNED[run]


def serial_points(scfg, noise, spec, freqs):
    """The per-frequency loop the batched sweep replaced: a sine,
    encode, S-FT stream, FFT reference and RMSE for each frequency."""
    enc, k = scfg.encoder, scfg.frame_size
    rows = []
    for nu in freqs:
        sig = sine(replace(spec, frequency=nu), k * enc.sample_period)
        train = encode_signal(sig, enc, noise)
        measured = sft_stream(train, scfg, hop=k)[0].coefficients
        reference = ideal_adc_fft(sig, enc.sample_period, k).coefficients
        diffs = (np.abs(measured) - np.abs(reference), measured - reference)
        rmse_mag, rmse_cplx = (float(np.sqrt(np.mean(np.abs(d) ** 2))) for d in diffs)
        rows.append((measured, reference, rmse_mag, rmse_cplx))
    measured, reference, rmse_mag, rmse_cplx = zip(*rows)
    return np.stack(measured), np.stack(reference), np.array(rmse_mag), np.array(rmse_cplx)


NOISES = {
    "none": None,
    "constant": ThermalNoiseModel(delta_u=0.01),
    "per-window": ThermalNoiseModel(delta_u=0.01, mode="per-window", rng_seed=3),
}


class TestBatchedSweep:
    @pytest.mark.parametrize("freqs", [[float(f) for f in SWEEP_FREQS.split(",")] + [333.3, 1234.5],
                                       [500.0]], ids=["18", "1"])
    @pytest.mark.parametrize("k", [2, 24, 128])
    @pytest.mark.parametrize("noise", sorted(NOISES))
    def test_same_bits_as_one_point_at_a_time(self, noise, k, freqs):
        scfg = SftConfig.for_encoder(CFG3K, _resolve_decoder(None, CFG3K), frame_size=k)
        spec = SineSpec(amplitude=2.0, frequency=500.0, offset=3.0)
        got = _sft_points(scfg, NOISES[noise], spec, freqs)
        want = serial_points(scfg, NOISES[noise], spec, freqs)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_each_row_is_a_run_from_window_index(self):
        # per-window noise gives every row of a 2-D call the draws of
        # windows window_index.. , as a 1-D call of that row does
        noise = NOISES["per-window"]
        u = np.random.default_rng(5).uniform(1.0, 5.0, (4, 37))
        rows = np.stack([simulate_window(row, CFG3K, noise, window_index=9) for row in u])
        assert np.array_equal(simulate_window(u, CFG3K, noise, window_index=9), rows)
