"""Deterministic synthetic test images.

The paper runs its JPEG and HEVC experiments on the Lena image, which cannot
be redistributed here.  The generator below produces a reproducible 8-bit
grayscale image with natural-image statistics — smooth illumination
gradients, a few rounded objects with soft shading, sharp edges and a
band-limited texture — which is all the MSSIM-based comparisons need: the
metric compares the exactly-processed and approximately-processed versions of
the *same* image, so the conclusions do not depend on the particular content.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


def synthetic_image(size: int = 256, seed: int = 2017) -> np.ndarray:
    """Reproducible grayscale test image with natural-image statistics.

    Returns a ``(size, size)`` array of ``uint8`` values in ``[0, 255]``.
    The image is deterministic in ``(size, seed)``, so repeated requests
    (every sweep point of a study asks for the same frames) are served from
    a per-process cache; the returned array is marked read-only to keep
    the cache coherent.
    """
    return _synthetic_image_cached(int(size), int(seed))


#: Frames the image memo holds.  A multi-frame study cycles through all of
#: its frames at every sweep point, so a memo smaller than ``frames`` is
#: evicted before any frame is asked for again and never hits.  The bound
#: is several times the largest ``frames`` any image study here uses (10),
#: so one study's frames survive while a few others run in the same
#: process.  A ``size``-square frame costs ``size**2`` bytes: 36 KiB at
#: 192, so the full memo holds 2.25 MiB at that size and 16 MiB at 512.
_MEMO_FRAMES = 64


@lru_cache(maxsize=_MEMO_FRAMES)
def _synthetic_image_cached(size: int, seed: int) -> np.ndarray:
    if size < 16:
        raise ValueError("image size must be at least 16 pixels")
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:size, 0:size].astype(np.float64) / size

    # Smooth illumination gradient.
    image = 110.0 + 70.0 * x + 40.0 * (1.0 - y)

    # A few soft-shaded elliptical objects.
    for _ in range(6):
        cx, cy = rng.uniform(0.15, 0.85, size=2)
        rx, ry = rng.uniform(0.05, 0.22, size=2)
        amplitude = rng.uniform(-70.0, 70.0)
        distance = ((x - cx) / rx) ** 2 + ((y - cy) / ry) ** 2
        image += amplitude * np.exp(-distance)

    # Sharp rectangular edges (high-contrast structures).
    for _ in range(3):
        x0, y0 = rng.uniform(0.1, 0.6, size=2)
        w, h = rng.uniform(0.1, 0.3, size=2)
        amplitude = rng.uniform(-50.0, 50.0)
        mask = (x >= x0) & (x <= x0 + w) & (y >= y0) & (y <= y0 + h)
        image += amplitude * mask

    # Band-limited texture (sum of oriented sinusoids) plus mild sensor noise.
    for _ in range(4):
        fx, fy = rng.uniform(4.0, 24.0, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        image += rng.uniform(2.0, 7.0) * np.sin(2.0 * np.pi * (fx * x + fy * y) + phase)
    image += rng.normal(0.0, 1.5, size=image.shape)

    result = np.clip(image, 0.0, 255.0).astype(np.uint8)
    result.setflags(write=False)
    return result


def synthetic_gradient(size: int = 64) -> np.ndarray:
    """Simple diagonal gradient image (useful for quick unit tests)."""
    y, x = np.mgrid[0:size, 0:size].astype(np.float64)
    image = (x + y) / (2 * size - 2) * 255.0
    return image.astype(np.uint8)


def pad_to_multiple(image: np.ndarray, multiple: int) -> np.ndarray:
    """Edge-pad an image so both dimensions are multiples of ``multiple``."""
    if multiple < 1:
        raise ValueError("multiple must be positive")
    rows, cols = image.shape
    pad_rows = (-rows) % multiple
    pad_cols = (-cols) % multiple
    if pad_rows == 0 and pad_cols == 0:
        return image
    return np.pad(image, ((0, pad_rows), (0, pad_cols)), mode="edge")
