"""The design sweeps: pinned output bytes of sweep-constant and
sft-sweep, and the batched frequency sweep against the per-point loop
it replaced.

The noisy sweep-constant digests were recorded when it wrote each
threshold's report on its own; the clean run, with no noise section,
was pinned later, on code that still gave the noisy run its recorded
bytes. The sft-sweep digests were recorded when the S-FT moved from two
weight-matrix products to np.fft.fft, which moved every spectrum by at
most 7e-15 of its largest magnitude, and again when the S-FT and its
reference became one-sided np.fft.rfft, which moved every spectrum by
at most 8.5e-17 of its largest magnitude and each summary's RMSEs,
now summed over the one-sided bins, by at most 2 ulp. Any change to
those files' bytes turns them red; tests/pins.py reprints them all.
"""

import functools
import json
from dataclasses import replace

import numpy as np
import pytest

from spikecodec import (
    SineSpec,
    ThermalNoiseModel,
    encode_signal,
    ideal_adc_fft,
    sft_stream,
    simulate_window,
    sine,
)
from spikecodec.cli import _sft_config, _sft_points, main
from spikecodec.sft import _spectrum_rmse
from conftest import CFG3K
from test_rows import digests

SWEEP_FREQS = "25,50,75,100,150,200,250,300,400,500,600,700,750,800,900,1000"
REFERENCE_ENCODER = {"tau": 3e-3, "u_th": 0.1, "u_min": 1.0, "u_max": 5.0,
                     "sample_period": 1.0 / 3000.0, "resolution": 100}
PER_WINDOW = {"delta_u": 0.01, "mode": "per-window"}

PINNED = {
    "sft-sweep": {
        "spectrum_1000hz.csv":
            "617a3ceac2d60a7adc9b94f0bd323ba78bed27e8d3fcec63f6b6b4db1865b564",
        "spectrum_100hz.csv":
            "cb2595c50670042561106aae6a84d150477a2a8b1ff01eee6e41051a1be58677",
        "spectrum_150hz.csv":
            "cf98f5a02f51496d774ded4e079bcfdb1e5f16e86e9522d14db74c678faa2674",
        "spectrum_200hz.csv":
            "0a810580fdf0fd72cbb99cb23306aa03c6cf06388768d46093439151edaf7894",
        "spectrum_250hz.csv":
            "b7e681badf7253f64b292559857a7870c1096ad4474db7e645616206df461a76",
        "spectrum_25hz.csv":
            "3d1ceae5446663ceb7a50532f6a21f4638efd125b4177b4e109ac0d9b6038da3",
        "spectrum_300hz.csv":
            "ef176f190e05605cc3bd166e051141ecca7f2612e0d4bd90e56377db927649ee",
        "spectrum_400hz.csv":
            "f2e00b917505cd28f680e82e47e711e91b865a9503324ca6dbdf7cf25f12a6d0",
        "spectrum_500hz.csv":
            "e079b56a0aad7041a70f87160858ca28b527053c24d682921ba578837c820b0d",
        "spectrum_50hz.csv":
            "822e4d422d875a76892604ca2d8aeebe73fae2797ce0d28f38ead9d5af2c3928",
        "spectrum_600hz.csv":
            "b9e409369d2bcf8341eab810dbc28040bed051a4b4c6e6c3c9e9bc3e7c61cb2a",
        "spectrum_700hz.csv":
            "78450024e58c8add1f22d13afdf9c7eb74505871c70b634f9799ffcba8dd8b97",
        "spectrum_750hz.csv":
            "8417d07347f8c203c9b7f20bb7fcefe5ace00acda521824ecabd74b9ea024044",
        "spectrum_75hz.csv":
            "e90cafb5fda1549e43b2bddeb6e60fd3a68f0eea1df0fba8b3303dbb5038724b",
        "spectrum_800hz.csv":
            "3a50b7dab1a6ab39eccfd9f8a0193f719623d0c8d6bb35bbad8bea691fc95223",
        "spectrum_900hz.csv":
            "a6aea30e7a8d78c3b79517c641dc1355d8b8eab9b0720f1c644ec3068ae5076d",
        "summary.csv":
            "14e38573989e7cf1ef3ee338630f2dbc70d9d2aa461073fd074b8686ff596bbe",
    },
    "sft-sweep-noisy": {
        "spectrum_1000hz.csv":
            "9597c076ff8aed1e52024d96261478211e9daad05bfcd43262237d24d9e2ae4c",
        "spectrum_100hz.csv":
            "0102999bfb5377b49422f4dac0ab303d5a2759d762e68f90543ba369a2a91a68",
        "spectrum_150hz.csv":
            "b75eb32fa31f1c5eceebb19273ec8c4da5155b70ee18f3d9a9af6133fd128911",
        "spectrum_200hz.csv":
            "5cbc81438455b97c89ef87619129746123e920e57ce70bdbd9d13a8f19eab5ea",
        "spectrum_250hz.csv":
            "82477c0d9ed4b8e4801391fb3cf0b1ddbb987ec3bb2bcf3135e7f89b31155592",
        "spectrum_25hz.csv":
            "1541e1ca812424bafa758666a6ab2a1b0f399f854e390c646f8c449f7a5b45c9",
        "spectrum_300hz.csv":
            "3d4c20cc8e8f1562cbb788516bf6d55747a704181dd38bdb29a9a1380e84a78a",
        "spectrum_400hz.csv":
            "0cc8cc4ea3ee9df04b480e7f2c80fe35ed68cd7794f1b6de2c97595dc822ad2b",
        "spectrum_500hz.csv":
            "3b052066b2aa1b08a7e56bab4b935aaa9fac1b75446de46a33574e83321a260c",
        "spectrum_50hz.csv":
            "26c00f5bdf6deaa6f6f790857e27859fa12cfe0c46254383f962625f4959b9da",
        "spectrum_600hz.csv":
            "fc28ce6dd475d3cb5d3975a6318eda226a1f4206b46b4c9b8cba509e7de9fbf9",
        "spectrum_700hz.csv":
            "21252ba23062ba6d81479bf336390109ef94fa086cbb129cbcb4d4c09bc4ae8f",
        "spectrum_750hz.csv":
            "776a301d36d2f3434c5a2aba0f66199dfca88ac33e76e5c01dd52d3ba5e74e2a",
        "spectrum_75hz.csv":
            "2f36256eea76abb5400ebb8f053e72ab2aafdffaa558867fb37572442d39a3d6",
        "spectrum_800hz.csv":
            "48ce4cee02ffc8cae2bd251459387f6a28187e100ff1c4c863f3cf6d11b53a08",
        "spectrum_900hz.csv":
            "a1d5728f2bed746736e1d411f7da4834548fcbf339ba2b4208accc6474c8595a",
        "summary.csv":
            "2730ea60331ec6070da43a1d2e392aec1d4812eef79a34d6eb962e57969c6b17",
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


def write_run(run, directory) -> None:
    """RUNS[run] into out/ of directory, which holds its config."""
    doc, argv = RUNS[run]
    config = directory / "config.json"
    config.write_text(json.dumps(doc))
    assert main([*argv, "--config", str(config), "--out-dir", str(directory / "out")]) == 0


# Every pin of this module, as test_rows.PINS lays them out.
PINS = {run: (functools.partial(write_run, run), PINNED[run]) for run in RUNS}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_pinned_bytes(tmp_path, capsys, run):
    write_run(run, tmp_path)
    capsys.readouterr()
    assert digests(tmp_path / "out") == PINNED[run]


def serial_points(scfg, noise, spec, freqs):
    """The per-frequency loop the batched sweep replaced: a sine,
    encode, S-FT stream, FFT reference and RMSE for each frequency."""
    enc, k = scfg.encoder, scfg.frame_size
    rows = []
    for nu in freqs:
        sig = sine(replace(spec, frequency=nu), k * enc.sample_period)
        train = encode_signal(sig, enc, noise)
        measured = sft_stream(train, scfg, hop=k)[0].half
        reference = ideal_adc_fft(sig, enc.sample_period, k).half
        (rmse_mag,), (rmse_cplx,) = _spectrum_rmse(measured[None], reference[None], k)
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
        scfg = _sft_config({"frame_size": k}, CFG3K)
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
