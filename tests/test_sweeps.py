"""The design sweeps: pinned output bytes of sweep-constant and
sft-sweep, and the batched frequency sweep against the per-point loop
it replaced.

The digests were recorded when sweep-constant wrote each threshold's
report on its own and sft-sweep encoded, transformed and compared one
frequency at a time. Any change to those files' bytes turns them red.
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
            "8a905e3d2d9d4d46e9cb7132c7a6ca3c78eb3589e5ecb2ca46ba4f870ca0a984",
        "spectrum_100hz.csv":
            "1f499b7076b53674ee0908ac6d1d68c35380c2cbb945dfdd81a4fd9327e33bd8",
        "spectrum_150hz.csv":
            "71b0c37e70aaf522b32ed37048821ccf6f940b0234d7051c62a92b323ffe8506",
        "spectrum_200hz.csv":
            "43afb914703d0509f4aa579c181be7b97580ec6e345ab2674d852cff9d368d93",
        "spectrum_250hz.csv":
            "9c42a39ae44299c8d62bd48bbd1e6b66f3df01d708ff69efdd938c74590416a8",
        "spectrum_25hz.csv":
            "51307fbbef077a69ab1955d91dd70455cd7acb01d4d4dfced9aa9705f739d0f8",
        "spectrum_300hz.csv":
            "8f0d27aece228139c715bec5d8a47c84d5052515386762cb1311c4c5beb3be88",
        "spectrum_400hz.csv":
            "867ca4f3bce21027a4cb262bea4c6a1c020e1b727b63cd4e5d67fb527a10d9e3",
        "spectrum_500hz.csv":
            "9da78b7d3ffb8d6fee51b24fa262ddf5cde6a09e217f2e3232e18f3b824e7e17",
        "spectrum_50hz.csv":
            "f2ac32d56cf841d1fc3c25106972bccaf8790e4f5bf3be6d60e96f839fcd834d",
        "spectrum_600hz.csv":
            "d87cd41a78c7e2c5812f4727f4a542347506da2bb54f0b9482901fa122888554",
        "spectrum_700hz.csv":
            "2545c09807f2468a95e79465e21dd96d26408a0dd2b72b1ee80794da1176bedf",
        "spectrum_750hz.csv":
            "e045d1e974a70a422475e88630020b12ccd686c11f5815981cd29735d27d9d74",
        "spectrum_75hz.csv":
            "a3f25ca6c77e850cfcc577f057c4b678b4509a4e9dda46e71ea585c9ff34309a",
        "spectrum_800hz.csv":
            "ab832e39476b71fb046523f0ed8b02a52162cf52d7a7335f4d28f03e0e0dbb65",
        "spectrum_900hz.csv":
            "2931de9bf1fb0f0df2d157dbeaef905c31c31903d1099cd39b10f5359e484600",
        "summary.csv":
            "dd27360ad413096d029ed2aaed08f5ddbbb4a350f3ccaa0709457ab2db1a40c5",
    },
    "sft-sweep-noisy": {
        "spectrum_1000hz.csv":
            "8b055968f2f8a65030f789c57fd11bb301c1c3726d9c235d71d3ae58630739c8",
        "spectrum_100hz.csv":
            "68715190030d825da5390063017a4e01a0cb0130b53fb27b711eddefeac77a17",
        "spectrum_150hz.csv":
            "406d494fba8f8811ab45220d97d004b4e2ec307aaa99586c5194192e73cfd858",
        "spectrum_200hz.csv":
            "86b7ea0e225851bf4aae55466fc389b30b1aa5a0c4f67b3f30dce1f2b504a1e6",
        "spectrum_250hz.csv":
            "49e5c61317ab0fbe4395ac4d86fe8f2feaf52233b6e6654081622214bec5c2c6",
        "spectrum_25hz.csv":
            "b20ad9816cbecb038905f37e6bafd7b61c5b8b1cb546a7b1bf90369028a42c94",
        "spectrum_300hz.csv":
            "1cfba7ede2dbb3dcfdc8750c5f17fcd716055679e0e2725df3f473e440d2c121",
        "spectrum_400hz.csv":
            "79a5f138ab684194cc6f16d02ba7b7629da50408783303b3be68a8986e0ba035",
        "spectrum_500hz.csv":
            "e0d8855f4fb7d1261ebf2b2cad7b1f81cf4a7c5fa8aa036ed6e57c9b1a06918e",
        "spectrum_50hz.csv":
            "e9dd79bde73c80a33a9f2f7467d443bc401d31f37671a4fca6cf3da764255ff9",
        "spectrum_600hz.csv":
            "acf144ee52165187449679da57776a697ed1d1f560adc87ff4aa2b2ac62d6d64",
        "spectrum_700hz.csv":
            "768e2ba58a357654af10a2ccb70e6d11691b0f759d648df7e31bf0081ff9465b",
        "spectrum_750hz.csv":
            "ae43384f0bd80d51eff640036b4f89bf32fe26dde4ab869252be0a78b25043e9",
        "spectrum_75hz.csv":
            "5fd75c4fb663f518db409e7fa894633023bfff471c4daa1e7538d4c2e2fa267b",
        "spectrum_800hz.csv":
            "3a69743d34ca56f51d231a1876a01d4441f05bd82840ea3cf6488d8f2e9c3b7b",
        "spectrum_900hz.csv":
            "8c5ff3f8879a765db90260b53a68383e9df4a3ab56b57c03189ae815a15a3afd",
        "summary.csv":
            "efd6f4f06103525e8d025f97b9495d525e004b782de24140cf0a5120868dd209",
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


def serial_points(enc, scfg, noise, spec, freqs):
    """The per-frequency loop the batched sweep replaced: a sine,
    encode, S-FT stream, FFT reference and RMSE for each frequency."""
    k = scfg.frame_size
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
        scfg = SftConfig.for_encoder(CFG3K, _resolve_decoder(None, {}, CFG3K), frame_size=k)
        spec = SineSpec(amplitude=2.0, frequency=500.0, offset=3.0)
        got = _sft_points(CFG3K, scfg, NOISES[noise], spec, freqs)
        want = serial_points(CFG3K, scfg, NOISES[noise], spec, freqs)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_each_row_is_a_run_from_window_index(self):
        # per-window noise gives every row of a 2-D call the draws of
        # windows window_index.. , as a 1-D call of that row does
        noise = NOISES["per-window"]
        u = np.random.default_rng(5).uniform(1.0, 5.0, (4, 37))
        rows = np.stack([simulate_window(row, CFG3K, noise, window_index=9) for row in u])
        assert np.array_equal(simulate_window(u, CFG3K, noise, window_index=9), rows)
