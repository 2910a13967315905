"""Structural similarity (SSIM / MSSIM) — Wang et al., 2004.

The JPEG and HEVC experiments of the paper use the Mean Structural SIMilarity
index between the exactly-processed and approximately-processed images.  The
implementation below follows the reference formulation: an 11x11 circular
Gaussian window (sigma = 1.5), the (K1, K2) = (0.01, 0.03) stabilisation
constants and a dynamic range of 255 for 8-bit images; MSSIM is the average
of the local SSIM map.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np


def gaussian_window(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    """Normalised 2-D Gaussian weighting window."""
    if size < 1 or size % 2 == 0:
        raise ValueError("window size must be a positive odd number")
    half = size // 2
    coords = np.arange(-half, half + 1, dtype=np.float64)
    one_d = np.exp(-(coords ** 2) / (2.0 * sigma ** 2))
    window = np.outer(one_d, one_d)
    return window / np.sum(window)


def _filter1_valid(image: np.ndarray, weights: np.ndarray,
                   axis: int) -> np.ndarray:
    """1-D correlation along one axis with 'valid' boundary handling."""
    size = weights.shape[0]
    span = image.shape[axis] - size + 1
    if span <= 0:
        raise ValueError("image smaller than the SSIM window")
    if axis == 0:
        result = weights[0] * image[0:span, :]
        for i in range(1, size):
            result += weights[i] * image[i:i + span, :]
    else:
        result = weights[0] * image[:, 0:span]
        for i in range(1, size):
            result += weights[i] * image[:, i:i + span]
    return result


def _filter2_valid(image: np.ndarray, window: np.ndarray) -> np.ndarray:
    """2-D correlation with 'valid' boundary handling (no padding bias).

    The SSIM window is a normalised outer product of one 1-D Gaussian with
    itself, so the correlation runs as two separable 1-D passes (22 shifted
    accumulations instead of 121 for the 11x11 window).
    """
    weights = np.sqrt(np.diag(window))
    return _filter1_valid(_filter1_valid(image, weights, axis=0),
                          weights, axis=1)


@dataclass(frozen=True)
class SsimResult:
    """MSSIM value together with the local SSIM map."""

    mssim: float
    ssim_map: np.ndarray


class SsimReference:
    """The reference side of SSIM, filtered once for any number of scores.

    A sweep scores many distorted images against one reference, and two of
    SSIM's five window filters act on the reference alone.  This holds the
    float64 reference, its local mean ``mu_x`` and its local variance
    ``sigma_x_sq`` (each array read-only), so each score filters only the
    distorted image.  ``mu_x ** 2`` is recomputed on use rather than held,
    which keeps an entry at one full-size and two window-valid arrays.
    """

    def __init__(self, reference: np.ndarray, window_size: int = 11,
                 sigma: float = 1.5) -> None:
        # A view, so marking it read-only leaves the caller's array alone.
        ref = np.asarray(reference, dtype=np.float64).view()
        if ref.ndim != 2:
            raise ValueError("ssim expects 2-D grayscale images")
        self.window_size = window_size
        self.sigma = sigma
        self.window = gaussian_window(window_size, sigma)
        self.reference = ref
        self.mu_x = _filter2_valid(ref, self.window)
        self.sigma_x_sq = _filter2_valid(ref * ref, self.window) \
            - self.mu_x ** 2
        for array in (self.reference, self.mu_x, self.sigma_x_sq):
            array.setflags(write=False)

    @property
    def nbytes(self) -> int:
        """Bytes of the three arrays this reference keeps alive."""
        return self.reference.nbytes + self.mu_x.nbytes \
            + self.sigma_x_sq.nbytes


def ssim(reference: Union[np.ndarray, SsimReference],
         distorted: np.ndarray, data_range: float = 255.0,
         window_size: int = 11, sigma: float = 1.5,
         k1: float = 0.01, k2: float = 0.03) -> SsimResult:
    """Structural similarity between two grayscale images.

    ``reference`` is an image or an :class:`SsimReference` built from one
    with the same ``window_size`` and ``sigma``; both give bit-identical
    results.
    """
    if isinstance(reference, SsimReference):
        if (reference.window_size, reference.sigma) != (window_size, sigma):
            raise ValueError(
                f"SsimReference was filtered with window_size="
                f"{reference.window_size}, sigma={reference.sigma}, not "
                f"window_size={window_size}, sigma={sigma}")
        ref = reference
    else:
        ref = SsimReference(reference, window_size, sigma)
    dist = np.asarray(distorted, dtype=np.float64)
    if ref.reference.shape != dist.shape:
        raise ValueError("images must have identical shapes")

    window = ref.window
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2

    mu_x = ref.mu_x
    mu_y = _filter2_valid(dist, window)
    mu_x_sq = mu_x ** 2
    mu_y_sq = mu_y ** 2
    mu_xy = mu_x * mu_y

    sigma_x_sq = ref.sigma_x_sq
    sigma_y_sq = _filter2_valid(dist * dist, window) - mu_y_sq
    sigma_xy = _filter2_valid(ref.reference * dist, window) - mu_xy

    numerator = (2.0 * mu_xy + c1) * (2.0 * sigma_xy + c2)
    denominator = (mu_x_sq + mu_y_sq + c1) * (sigma_x_sq + sigma_y_sq + c2)
    ssim_map = numerator / denominator
    return SsimResult(mssim=float(np.mean(ssim_map)), ssim_map=ssim_map)


def mssim(reference: Union[np.ndarray, SsimReference],
          distorted: np.ndarray, data_range: float = 255.0) -> float:
    """Mean SSIM score in ``[0, 1]`` (1 means identical structure).

    ``reference`` may be an :class:`SsimReference` (default window).
    """
    return ssim(reference, distorted, data_range=data_range).mssim
