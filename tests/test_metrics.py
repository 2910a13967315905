"""Tests for the error, signal, image, acceptance and clustering metrics."""
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    SsimReference,
    acceptance_curve,
    acceptance_probability,
    bit_error_rate,
    characterize_error,
    error_pdf,
    error_psd,
    error_rate,
    gaussian_window,
    match_labels,
    mean_absolute_error,
    mse,
    mse_db,
    mssim,
    positional_bit_error_rate,
    psnr_db,
    signal_mse,
    snr_db,
    ssim,
    success_rate,
)
from repro.metrics.clustering import _max_weight_assignment, confusion_matrix
from repro.metrics.image import _filter2_valid
from repro.operators import ExactAdder, TruncatedAdder

SRC = Path(__file__).resolve().parent.parent / "src"


class TestErrorMetrics:
    def test_mse_of_constant_error(self):
        assert mse(np.full(100, 2.0)) == pytest.approx(4.0)

    def test_mse_db_of_exact(self):
        assert mse_db(np.zeros(10)) == float("-inf")

    def test_mae_and_error_rate(self):
        errors = np.array([0.0, -1.0, 3.0, 0.0])
        assert mean_absolute_error(errors) == pytest.approx(1.0)
        assert error_rate(errors) == pytest.approx(0.5)

    def test_empty_error_rejected(self):
        with pytest.raises(ValueError):
            mse(np.array([]))
        with pytest.raises(ValueError):
            error_rate(np.array([]))

    def test_bit_error_rate_complement(self):
        reference = np.array([0])
        approximate = np.array([0xFFFF])
        assert bit_error_rate(reference, approximate, 16) == pytest.approx(1.0)

    def test_positional_ber_localises_the_error(self):
        reference = np.zeros(10, dtype=np.int64)
        approximate = np.full(10, 0b100, dtype=np.int64)
        per_bit = positional_bit_error_rate(reference, approximate, 8)
        assert per_bit[2] == pytest.approx(1.0)
        assert per_bit[0] == pytest.approx(0.0)

    def test_characterize_error_of_exact_operator(self):
        report = characterize_error(ExactAdder(16), samples=2000)
        assert report.is_exact
        assert report.mse_db == float("-inf")
        assert report.ber == pytest.approx(0.0)

    def test_characterize_error_of_truncated_adder(self):
        report = characterize_error(TruncatedAdder(16, 10), samples=20_000)
        assert -62.0 < report.mse_db < -55.0
        assert report.bias > 0.0
        assert 0.0 < report.ber < 0.5
        assert report.to_dict()["operator"] == "ADDt(16,10)"

    def test_characterize_error_with_explicit_inputs(self):
        a = np.array([0, 1, 2, 3], dtype=np.int64)
        b = np.array([0, 0, 0, 0], dtype=np.int64)
        report = characterize_error(TruncatedAdder(16, 15), a=a, b=b)
        assert report.samples == 4


class TestSignalMetrics:
    def test_psnr_of_identical_signals_is_infinite(self):
        x = np.linspace(-1, 1, 64)
        assert psnr_db(x, x) == float("inf")

    def test_psnr_decreases_with_noise(self):
        rng = np.random.default_rng(0)
        x = np.sin(np.linspace(0, 6, 256))
        small = psnr_db(x, x + rng.normal(0, 1e-3, x.shape))
        large = psnr_db(x, x + rng.normal(0, 1e-1, x.shape))
        assert small > large

    def test_snr_definition(self):
        x = np.ones(100)
        noisy = x + 0.1
        assert snr_db(x, noisy) == pytest.approx(10 * np.log10(1.0 / 0.01), abs=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            signal_mse(np.zeros(3), np.zeros(4))


class TestImageMetrics:
    def test_mssim_of_identical_images(self):
        from repro.apps.images import synthetic_image

        image = synthetic_image(64).astype(np.float64)
        assert mssim(image, image) == pytest.approx(1.0)

    def test_mssim_decreases_with_distortion(self):
        from repro.apps.images import synthetic_image

        image = synthetic_image(64).astype(np.float64)
        rng = np.random.default_rng(1)
        mild = mssim(image, np.clip(image + rng.normal(0, 2, image.shape), 0, 255))
        heavy = mssim(image, np.clip(image + rng.normal(0, 40, image.shape), 0, 255))
        assert mild > heavy
        assert 0.0 < heavy < mild <= 1.0

    def test_ssim_map_shape(self):
        from repro.apps.images import synthetic_image

        image = synthetic_image(32).astype(np.float64)
        result = ssim(image, image)
        assert result.ssim_map.shape == (22, 22)

    def test_image_shape_validation(self):
        with pytest.raises(ValueError):
            mssim(np.zeros((8, 8)), np.zeros((9, 9)))
        with pytest.raises(ValueError):
            mssim(np.zeros((4, 4)), np.zeros((4, 4)))


def _mssim_formula(reference, distorted):
    """SSIM written out in one piece: the reference both paths must match."""
    ref = np.asarray(reference, dtype=np.float64)
    dist = np.asarray(distorted, dtype=np.float64)
    window = gaussian_window(11, 1.5)
    c1, c2 = (0.01 * 255.0) ** 2, (0.03 * 255.0) ** 2
    mu_x = _filter2_valid(ref, window)
    mu_y = _filter2_valid(dist, window)
    mu_x_sq, mu_y_sq, mu_xy = mu_x ** 2, mu_y ** 2, mu_x * mu_y
    sigma_x_sq = _filter2_valid(ref * ref, window) - mu_x_sq
    sigma_y_sq = _filter2_valid(dist * dist, window) - mu_y_sq
    sigma_xy = _filter2_valid(ref * dist, window) - mu_xy
    numerator = (2.0 * mu_xy + c1) * (2.0 * sigma_xy + c2)
    denominator = (mu_x_sq + mu_y_sq + c1) * (sigma_x_sq + sigma_y_sq + c2)
    return float(np.mean(numerator / denominator))


def _image(rng, shape, dtype):
    if dtype == "uint8":
        return rng.integers(0, 256, size=shape, dtype=np.uint8)
    return rng.uniform(-20.0, 275.0, size=shape)


class TestSsimReference:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(11, 40), cols=st.integers(11, 40),
           seed=st.integers(0, 2**32 - 1),
           ref_dtype=st.sampled_from(["uint8", "float64"]),
           dist_dtype=st.sampled_from(["uint8", "float64"]))
    def test_precomputed_reference_is_bit_identical(self, rows, cols, seed,
                                                    ref_dtype, dist_dtype):
        rng = np.random.default_rng(seed)
        x = _image(rng, (rows, cols), ref_dtype)
        y = _image(rng, (rows, cols), dist_dtype)
        reference = SsimReference(x)
        assert mssim(reference, y) == mssim(x, y) == _mssim_formula(x, y)
        assert np.array_equal(ssim(reference, y).ssim_map, ssim(x, y).ssim_map)
        wrong = _image(rng, (rows + 1, cols), dist_dtype)
        with pytest.raises(ValueError):
            mssim(reference, wrong)
        with pytest.raises(ValueError):
            mssim(x, wrong)

    def test_arrays_are_read_only_and_the_input_is_not(self):
        image = np.random.default_rng(0).uniform(0, 255, (24, 24))
        reference = SsimReference(image)
        for array in (reference.reference, reference.mu_x,
                      reference.sigma_x_sq):
            with pytest.raises(ValueError):
                array[0, 0] = 0.0
        assert image.flags.writeable

    def test_window_must_match_the_reference(self):
        image = np.zeros((24, 24))
        with pytest.raises(ValueError, match="window_size"):
            ssim(SsimReference(image), image, window_size=7)


class TestAcceptance:
    def test_exact_results_always_accepted(self):
        x = np.arange(1, 100)
        assert acceptance_probability(x, x, 0.999) == pytest.approx(1.0)

    def test_acceptance_decreases_with_threshold(self):
        rng = np.random.default_rng(2)
        x = rng.integers(100, 1000, 1000)
        noisy = x + rng.integers(-50, 50, 1000)
        curve = acceptance_curve(x, noisy, thresholds=(0.5, 0.9, 0.99))
        assert curve.probabilities[0] >= curve.probabilities[1] >= curve.probabilities[2]
        assert curve.probability_at(0.9) == curve.as_dict()[0.9]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            acceptance_probability(np.array([1]), np.array([1]), 1.5)

    def test_curve_matches_scalar_probability_on_dense_grid(self):
        """The vectorised one-pass curve is exactly the scalar metric."""
        rng = np.random.default_rng(7)
        x = rng.integers(-500, 1000, 5000)
        noisy = x + rng.integers(-80, 80, 5000)
        grid = np.linspace(0.0, 1.0, 101)
        curve = acceptance_curve(x, noisy, maa_grid=grid)
        for threshold, probability in zip(curve.thresholds,
                                          curve.probabilities):
            assert probability == acceptance_probability(x, noisy, threshold)

    def test_curve_grid_validation_and_aliases(self):
        x = np.array([1, 2, 3])
        with pytest.raises(ValueError):
            acceptance_curve(x, x, maa_grid=[0.5, 1.5])
        with pytest.raises(ValueError):
            acceptance_curve(x, x, maa_grid=[float("nan")])
        with pytest.raises(TypeError):
            acceptance_curve(x, x, maa_grid=[0.5], thresholds=[0.5])
        # Positional grid and the legacy thresholds= keyword agree.
        assert acceptance_curve(x, x, [0.9]).probabilities == \
            acceptance_curve(x, x, thresholds=[0.9]).probabilities

    def test_curve_default_grid_and_empty_input(self):
        x = np.array([10, 20])
        curve = acceptance_curve(x, x)
        assert curve.thresholds == (0.90, 0.95, 0.98, 0.99, 0.999)
        empty = acceptance_curve(np.array([]), np.array([]), maa_grid=[0.9])
        assert empty.probabilities == (0.0,)


class TestSpectral:
    def test_pdf_integrates_to_one(self):
        rng = np.random.default_rng(3)
        pdf = error_pdf(rng.normal(0, 1, 20_000), bins=51)
        widths = np.diff(pdf.bin_edges)
        assert np.sum(pdf.density * widths) == pytest.approx(1.0, abs=1e-6)
        assert pdf.probability_in(-1, 1) > 0.6

    def test_psd_of_white_noise_is_flat(self):
        rng = np.random.default_rng(4)
        psd = error_psd(rng.uniform(-1, 1, 8192), segment=512)
        assert psd.flatness() > 0.7

    def test_psd_of_tone_is_peaky(self):
        n = 8192
        tone = np.sin(2 * np.pi * 0.1 * np.arange(n))
        psd = error_psd(tone, segment=512)
        assert psd.flatness() < 0.2

    def test_psd_validation(self):
        with pytest.raises(ValueError):
            error_psd(np.array([1.0]))


class TestClustering:
    def test_success_rate_with_permuted_labels(self):
        reference = np.array([0, 0, 1, 1, 2, 2])
        permuted = np.array([2, 2, 0, 0, 1, 1])
        assert success_rate(reference, permuted) == pytest.approx(1.0)

    def test_success_rate_with_errors(self):
        reference = np.array([0, 0, 0, 1, 1, 1])
        labels = np.array([0, 0, 1, 1, 1, 1])
        assert success_rate(reference, labels) == pytest.approx(5 / 6)

    def test_match_labels_returns_reference_naming(self):
        reference = np.array([0, 0, 1, 1])
        candidate = np.array([1, 1, 0, 0])
        assert np.array_equal(match_labels(reference, candidate), reference)

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError):
            success_rate(np.array([]), np.array([]))

    @settings(max_examples=25)
    @given(permutation_seed=st.integers(min_value=0, max_value=1000))
    def test_success_rate_invariant_to_label_permutation(self, permutation_seed):
        rng = np.random.default_rng(permutation_seed)
        reference = rng.integers(0, 5, 200)
        permutation = rng.permutation(5)
        relabelled = permutation[reference]
        assert success_rate(reference, relabelled) == pytest.approx(1.0)

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError, match=r"label -1 .*clusters=2"):
            success_rate([0, 0, 1, 1], [-1, -1, 0, 0])

    def test_label_beyond_explicit_clusters_rejected(self):
        with pytest.raises(ValueError, match=r"label 3 .*clusters=3"):
            confusion_matrix([0, 1, 2, 2], [0, 1, 3, 2], clusters=3)
        with pytest.raises(ValueError, match=r"reference label 5 .*clusters=4"):
            success_rate([0, 1, 5, 2], [0, 1, 2, 2], clusters=4)


def _assignment_weight(matrix, owner):
    matrix = np.asarray(matrix)
    return int(matrix[owner, np.arange(matrix.shape[0])].sum())


def _seeded_matrices(seed, sizes, count):
    """Integer matrices with ties (few distinct values) and all-zero rows."""
    rng = np.random.default_rng(seed)
    for index in range(count):
        k = sizes[index % len(sizes)]
        high = (2, 3, 10, 1000)[index % 4]
        matrix = rng.integers(0, high, (k, k))
        if index % 5 == 0:
            matrix[rng.integers(0, k)] = 0
        yield matrix


class TestMaxWeightAssignment:
    def test_matches_brute_force_over_every_permutation(self):
        for matrix in _seeded_matrices(11, sizes=(1, 2, 3, 4, 5, 6), count=300):
            k = matrix.shape[0]
            owner = _max_weight_assignment(matrix)
            assert sorted(owner.tolist()) == list(range(k))
            best = max(_assignment_weight(matrix, list(p))
                       for p in itertools.permutations(range(k)))
            assert _assignment_weight(matrix, owner) == best

    def test_greedy_counterexample(self):
        # A greedy matcher takes the 3 first and is left with the 0: weight 3.
        matrix = np.array([[3, 2], [2, 0]])
        owner = _max_weight_assignment(matrix)
        assert owner.tolist() == [1, 0]
        assert _assignment_weight(matrix, owner) == 4

    def test_success_rate_where_greedy_was_wrong(self):
        # Confusion matrix [[3, 2], [2, 0]]: the optimum matches 4 of 7
        # points, a greedy matcher 3.
        reference = np.array([0, 0, 0, 0, 0, 1, 1])
        labels = np.array([0, 0, 0, 1, 1, 0, 0])
        assert success_rate(reference, labels) == 4 / 7
        assert match_labels(reference, labels).tolist() == [1, 1, 1, 0, 0, 1, 1]

    def test_weight_matches_scipy(self):
        optimize = pytest.importorskip("scipy.optimize")
        sizes = tuple(range(1, 13))
        for matrix in _seeded_matrices(23, sizes=sizes, count=600):
            rows, cols = optimize.linear_sum_assignment(-matrix)
            owner = _max_weight_assignment(matrix)
            assert _assignment_weight(matrix, owner) == int(matrix[rows, cols].sum())


def test_package_import_loads_no_scipy():
    """No entry point pulls SciPy in, installed or not."""
    code = ("import sys\n"
            "import repro, repro.cli, repro.server, repro.search, "
            "repro.fleet, repro.experiments\n"
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
