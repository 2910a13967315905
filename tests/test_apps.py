"""Tests for the instrumented applications (FFT, DCT/JPEG, HEVC MC, K-means)."""
import numpy as np
import pytest

from repro.apps import (
    FixedPointDCT,
    FixedPointFFT,
    FixedPointKMeans,
    JpegEncoder,
    MotionCompensationFilter,
    dct_matrix,
    estimate_coded_bits,
    estimate_coded_bits_blocks,
    generate_point_cloud,
    jpeg_quality_score,
    kmeans_success_rate,
    mc_quality_score,
    pad_to_multiple,
    quality_scaled_table,
    random_q15_signal,
    run_length_encode,
    synthetic_image,
    zigzag_order,
)
from repro.core import ApproxContext
from repro.metrics import mssim, psnr_db
from repro.operators import (
    ACAAdder,
    ETAIVAdder,
    RCAApxAdder,
    TruncatedAdder,
    TruncatedMultiplier,
)


class TestImages:
    def test_synthetic_image_properties(self):
        image = synthetic_image(128, seed=1)
        assert image.shape == (128, 128)
        assert image.dtype == np.uint8
        assert image.min() >= 0 and image.max() <= 255
        assert image.std() > 10  # has actual structure

    def test_synthetic_image_is_deterministic(self):
        assert np.array_equal(synthetic_image(64, seed=9), synthetic_image(64, seed=9))

    def test_pad_to_multiple(self):
        image = np.zeros((10, 13))
        padded = pad_to_multiple(image, 8)
        assert padded.shape == (16, 16)
        assert pad_to_multiple(np.zeros((8, 8)), 8).shape == (8, 8)

    def test_small_size_rejected(self):
        with pytest.raises(ValueError):
            synthetic_image(4)

    def test_synthetic_image_is_cached_and_read_only(self):
        first = synthetic_image(64, seed=9)
        second = synthetic_image(64, seed=9)
        assert first is second  # sweeps reuse one stimulus without regenerating
        assert not first.flags.writeable


class TestFFT:
    def test_exact_fft_matches_numpy(self):
        signal = random_q15_signal(32, seed=2)
        fft = FixedPointFFT(32, 16)
        result = fft.forward(signal)
        reference = fft.reference_spectrum(signal)
        output = result.as_complex()
        error = np.concatenate([reference.real - output.real,
                                reference.imag - output.imag])
        assert np.max(np.abs(error)) < 5e-3

    def test_operation_counts_match_radix2_formula(self):
        fft = FixedPointFFT(32, 16)
        result = fft.forward(random_q15_signal(32))
        expected = fft.operation_counts()
        assert result.counts.additions == expected.additions == 480
        assert result.counts.multiplications == expected.multiplications == 320

    def test_truncated_adders_degrade_psnr_monotonically(self):
        signal = random_q15_signal(32, seed=4)
        psnrs = []
        for width in (15, 10, 5):
            context = ApproxContext(adder=TruncatedAdder(16, width))
            fft = FixedPointFFT(32, 16, context=context)
            out = fft.forward(signal).as_complex()
            ref = fft.reference_spectrum(signal)
            psnrs.append(psnr_db(np.concatenate([ref.real, ref.imag]),
                                 np.concatenate([out.real, out.imag])))
        assert psnrs[0] > psnrs[1] > psnrs[2]

    def test_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            FixedPointFFT(12)

    def test_wrong_input_length_rejected(self):
        fft = FixedPointFFT(16)
        with pytest.raises(ValueError):
            fft.forward(np.zeros(8, dtype=np.int64))

    @pytest.mark.parametrize("shape", [(), (16,), (2, 16), (2, 3, 32)])
    def test_real_that_is_not_a_frame_or_block_rejected(self, shape):
        fft = FixedPointFFT(32)
        with pytest.raises(ValueError, match=r"\(32,\).*\(frames, 32\)") as info:
            fft.forward(np.zeros(shape, dtype=np.int64))
        assert str(shape) in str(info.value)

    @pytest.mark.parametrize("real_shape,imag_shape", [
        ((32,), (16,)),
        ((32,), ()),
        ((32,), (2, 32)),
        ((2, 32), (32,)),
        ((2, 32), (3, 32)),
    ])
    def test_imag_that_does_not_match_real_rejected(self, real_shape,
                                                   imag_shape):
        fft = FixedPointFFT(32)
        with pytest.raises(ValueError) as info:
            fft.forward(np.zeros(real_shape, dtype=np.int64),
                        np.zeros(imag_shape, dtype=np.int64))
        assert str(imag_shape) in str(info.value)
        assert str(real_shape) in str(info.value)

    def test_block_of_frames_keeps_its_shape_and_inputs(self):
        fft = FixedPointFFT(32)
        block = np.stack([random_q15_signal(32, seed=seed) for seed in range(3)])
        original = block.copy()
        result = fft.forward(block)
        assert result.real.shape == result.imag.shape == (3, 32)
        assert result.counts == fft.operation_counts().scaled(3)
        assert np.array_equal(block, original)


class TestDCT:
    def test_exact_dct_matches_float_reference(self):
        """The fixed-point DCT tracks the double-precision one to within a few
        pixel units (the residual is the Q10.5 / Q1.14 quantisation noise)."""
        dct = FixedPointDCT()
        rng = np.random.default_rng(5)
        block = rng.integers(-128, 128, (8, 8))
        fixed = dct.to_float(dct.forward(block))
        reference = dct.forward_float(block)
        assert np.max(np.abs(fixed - reference)) < 4.0
        assert np.sqrt(np.mean((fixed - reference) ** 2)) < 1.5

    def test_batched_forward_matches_single(self):
        dct = FixedPointDCT()
        rng = np.random.default_rng(6)
        blocks = rng.integers(-128, 128, (3, 8, 8))
        batched = dct.forward(blocks)
        for index in range(3):
            assert np.array_equal(batched[index], dct.forward(blocks[index]))

    def test_basis_is_orthonormal(self):
        basis = dct_matrix()
        assert np.allclose(basis @ basis.T, np.eye(8), atol=1e-12)

    def test_inverse_float_roundtrip(self):
        dct = FixedPointDCT()
        rng = np.random.default_rng(7)
        block = rng.integers(-128, 128, (8, 8)).astype(np.float64)
        assert np.allclose(dct.inverse_float(dct.forward_float(block)), block, atol=1e-9)

    def test_operation_counts(self):
        counts = FixedPointDCT().operation_counts(blocks=4)
        assert counts.additions == 4 * 1024
        assert counts.multiplications == 4 * 1024


class TestJpeg:
    def test_quality_table_scaling(self):
        assert np.all(quality_scaled_table(90) <= quality_scaled_table(50))
        assert np.all(quality_scaled_table(10) >= quality_scaled_table(50))
        with pytest.raises(ValueError):
            quality_scaled_table(0)

    def test_zigzag_is_a_permutation(self):
        order = zigzag_order()
        assert sorted(order.tolist()) == list(range(64))
        assert order[0] == 0 and order[1] in (1, 8)

    def test_run_length_encoding(self):
        pairs = run_length_encode(np.array([5, 0, 0, 3, 0]))
        assert pairs[0] == (0, 5)
        assert pairs[1] == (2, 3)
        assert pairs[-1] == (0, 0)

    def test_vectorized_bits_estimate_matches_reference(self):
        """The batched size estimate equals the per-block run-length path."""
        rng = np.random.default_rng(11)
        blocks = rng.integers(-600, 600, (6, 8, 8)) \
            * (rng.random((6, 8, 8)) < 0.35)
        blocks[0] = 0  # all-zero block: only the end-of-block marker
        order = zigzag_order()
        reference = [
            estimate_coded_bits(run_length_encode(block.ravel()[order]))
            for block in blocks
        ]
        assert estimate_coded_bits_blocks(blocks).tolist() == reference

    def test_exact_pipeline_reconstruction_quality(self, small_image):
        result = JpegEncoder(quality=90).encode_decode(small_image)
        assert result.reconstructed.shape == small_image.shape
        assert mssim(small_image.astype(np.float64), result.reconstructed) > 0.85
        assert result.estimated_bytes > 0

    def test_truncated_adder_quality_degrades_gracefully(self, small_image):
        good, _ = jpeg_quality_score(
            small_image, 90, context=ApproxContext(adder=TruncatedAdder(16, 14)))
        bad, _ = jpeg_quality_score(
            small_image, 90, context=ApproxContext(adder=TruncatedAdder(16, 6)))
        assert good > bad
        assert good > 0.95


class TestHevcMc:
    def test_exact_filter_is_reference(self, small_image):
        score, counts = mc_quality_score(small_image)
        assert score == pytest.approx(1.0)
        assert counts.additions > 0

    def test_phase_zero_is_identity(self, small_image):
        mc = MotionCompensationFilter()
        result = mc.interpolate(small_image, horizontal_phase=0, vertical_phase=0)
        assert np.array_equal(result.interpolated, small_image)
        assert result.counts.additions == 0

    def test_half_pel_filter_output_in_range(self, small_image):
        mc = MotionCompensationFilter()
        result = mc.interpolate(small_image, 2, 2)
        assert result.interpolated.min() >= 0
        assert result.interpolated.max() <= 255

    def test_invalid_phase_rejected(self, small_image):
        with pytest.raises(ValueError):
            MotionCompensationFilter().interpolate(small_image, 5, 0)

    def test_paper_adder_configurations_reach_high_mssim(self, small_image):
        """Table III: the selected adder configurations give MSSIM >~ 0.95."""
        for adder in (TruncatedAdder(16, 10), ACAAdder(16, 12), RCAApxAdder(16, 6, 3)):
            score, _ = mc_quality_score(small_image,
                                        context=ApproxContext(adder=adder))
            assert score > 0.95, adder.name

    def test_constant_multiplications_counted(self, small_image):
        _, counts = mc_quality_score(
            small_image, context=ApproxContext(adder=TruncatedAdder(16, 10)))
        assert counts.multiplications > 0


class TestKMeans:
    def test_point_cloud_generation(self):
        cloud = generate_point_cloud(500, 8, seed=2)
        assert cloud.points.shape == (500, 2)
        assert cloud.centers.shape == (8, 2)
        assert np.all(np.abs(cloud.points) < (1 << 15))

    def test_exact_clustering_is_self_consistent(self, point_cloud):
        rate, counts = kmeans_success_rate(point_cloud, iterations=4)
        assert rate == pytest.approx(1.0)
        assert counts.additions > 0
        assert counts.multiplications > 0

    def test_assignment_uses_nearest_centroid(self):
        cloud = generate_point_cloud(200, 4, seed=5)
        km = FixedPointKMeans(clusters=4, iterations=1)
        labels = km.assign(cloud.points, cloud.centers)
        # Assignments with exact arithmetic must match a NumPy argmin.
        deltas = cloud.points[:, None, :] - cloud.centers[None, :, :]
        reference = np.argmin(np.sum((deltas / 256.0) ** 2, axis=2), axis=1)
        agreement = np.mean(labels == reference)
        assert agreement > 0.97

    def test_moderate_truncation_keeps_high_success(self, point_cloud):
        rate, _ = kmeans_success_rate(
            point_cloud, context=ApproxContext(adder=TruncatedAdder(16, 11)),
            iterations=4)
        assert rate > 0.9

    def test_severe_truncation_degrades_success(self, point_cloud):
        good, _ = kmeans_success_rate(
            point_cloud, context=ApproxContext(adder=TruncatedAdder(16, 11)),
            iterations=4)
        bad, _ = kmeans_success_rate(
            point_cloud,
            context=ApproxContext(multiplier=TruncatedMultiplier(16, 4)),
            iterations=4)
        assert bad < good

    def test_approximate_adder_behaviour(self, point_cloud):
        rate, _ = kmeans_success_rate(
            point_cloud, context=ApproxContext(adder=ETAIVAdder(16, 4)),
            iterations=4)
        assert rate > 0.8
