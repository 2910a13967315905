"""JPEG workload: encoding quality versus DCT datapath cost (Figure 6)."""
from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Optional, Tuple

import numpy as np

from ..apps.images import synthetic_image
from ..apps.jpeg import JpegEncoder
from ..core.context import ApproxContext
from ..metrics.image import SsimReference, mssim
from .base import OperatorMap, Workload, WorkloadResult

#: Byte bound of the reference cache.  An entry for an ``n``-square frame
#: holds three float64 arrays, ``8 * (n**2 + 2 * (n - 10)**2)`` bytes:
#: 806 KiB at 192, the largest jpeg size any study here uses.  At that
#: size the bound holds as many frames as the image memo does
#: (64 * 806 KiB = 50 MiB).
_REFERENCE_CACHE_BYTES = 64 << 20


class _ReferenceCache:
    """Least-recently-used :class:`SsimReference` entries, bounded in bytes.

    Shared by every thread of the process (the server's worker slots run
    studies concurrently), so every read and mutation happens under one
    lock.  Entries are computed outside it: two threads missing the same
    key both encode, and the second keeps the first one's entry.
    """

    def __init__(self, limit_bytes: int) -> None:
        self.limit_bytes = limit_bytes
        self._entries: "OrderedDict[Hashable, SsimReference]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[SsimReference]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: Hashable, entry: SsimReference) -> SsimReference:
        """Insert ``entry`` unless ``key`` is present; return the kept one.

        An entry larger than the whole bound is returned but not kept.
        """
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing
            if entry.nbytes > self.limit_bytes:
                return entry
            while self._bytes + entry.nbytes > self.limit_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
            self._entries[key] = entry
            self._bytes += entry.nbytes
            return entry


#: Exact-DCT references memoised by (quality, image fingerprint), so the
#: sweep points of a study encode and filter each reference frame once.
_REFERENCES = _ReferenceCache(_REFERENCE_CACHE_BYTES)


def _build_reference(image: np.ndarray, quality: int) -> SsimReference:
    """The exact-encoder reconstruction of ``image``, ready for scoring."""
    reference = JpegEncoder(quality=quality).encode_decode(image)
    return SsimReference(reference.reconstructed)


def _reference(image: np.ndarray, quality: int) -> SsimReference:
    image = np.ascontiguousarray(image)
    key = (int(quality), image.shape, image.dtype.str,
           hashlib.sha1(image.tobytes()).hexdigest())
    entry = _REFERENCES.get(key)
    if entry is None:
        entry = _REFERENCES.put(key, _build_reference(image, quality))
    return entry


@dataclass(frozen=True)
class JpegWorkload(Workload):
    """JPEG luminance encode/decode with a swappable forward DCT.

    Metrics: ``mssim`` — structural similarity between the image encoded
    with the exact fixed-point DCT and the one encoded with the operators
    under test (averaged over ``frames``); ``estimated_bits`` — run-length
    size estimate of the latter (summed over ``frames``).

    ``frames > 1`` encodes a short synthetic sequence (one image per frame
    seed) with the *same* operator configuration — the motion-JPEG-style
    setup used by the performance benchmarks, where table-based backends
    amortise their precomputation across frames.
    """

    size: int = 128
    quality: int = 90
    frames: int = 1
    image: Optional[np.ndarray] = None
    #: Word length of the DCT datapath (the design-space word-length axis).
    #: The quality reference always stays the full-precision 16-bit exact
    #: encoder, so narrower datapaths expose their own quality cost.
    data_width: int = 16
    #: ``False`` replays the seed-style per-coefficient DCT loops
    #: (bit-identical; kept for equivalence tests and benchmarks).
    fused: bool = True
    #: Heterogeneous datapath: one adder spec string per DCT matrix pass
    #: (row pass, column pass; ``None`` keeps the homogeneous operator
    #: map).  When set, the operator map's adder slot must be empty — the
    #: passes own their operators — and the result's details carry the
    #: per-pass adder names and measured per-pass operation counts.
    pass_adders: Optional[Tuple[str, str]] = None

    name = "jpeg"

    def default_config(self) -> Dict[str, object]:
        return {"size": self.size, "quality": self.quality,
                "frames": self.frames, "image": self.image,
                "data_width": self.data_width, "fused": self.fused,
                "pass_adders": self.pass_adders}

    def run(self, operators: OperatorMap, config: Mapping[str, object],
            rng: np.random.Generator) -> WorkloadResult:
        quality = int(config["quality"])
        frames = int(config["frames"])
        if frames < 1:
            raise ValueError(f"jpeg config 'frames' must be at least 1, "
                             f"got {frames}")
        base_seed = int(config.get("seed", 0))
        fixed_image = config.get("image")
        width = int(config["data_width"])
        pass_adders = config.get("pass_adders")
        pass_contexts = None
        if pass_adders:
            if operators.adder is not None:
                raise ValueError(
                    "pass_adders assigns one adder per DCT pass; sweep "
                    "heterogeneous points on the bare-operator axis instead "
                    "of injecting an adder into the operator map")
            pass_names = [str(name) for name in pass_adders]
            pass_contexts = [ApproxContext(adder=name, data_width=width,
                                           backend=operators.backend)
                             for name in pass_names]
        encoder = JpegEncoder(quality=quality,
                              context=operators.context(data_width=width),
                              data_width=width,
                              fused=bool(config["fused"]),
                              pass_contexts=pass_contexts)

        scores = []
        total_bits = 0
        total_pixels = 0
        counts = None
        for frame in range(frames):
            if fixed_image is not None:
                image = fixed_image
            else:
                image = synthetic_image(int(config["size"]),
                                        seed=2017 + base_seed + frame)
            reference = _reference(image, quality)
            outcome = encoder.encode_decode(image)
            scores.append(mssim(reference, outcome.reconstructed))
            total_bits += outcome.estimated_bits
            total_pixels += int(image.size)
            counts = outcome.counts if counts is None \
                else counts + outcome.counts
        details: Dict[str, object] = {"image_pixels": total_pixels,
                                      "frames": frames}
        if pass_contexts is not None:
            # Measured per-pass inventory (summed over frames), keyed the
            # same way the FFT's per-stage details are so the search's
            # heterogeneous energy accounting is workload-agnostic.
            details["stage_adders"] = pass_names
            details["stage_counts"] = [
                [ctx.counts.additions, ctx.counts.multiplications]
                for ctx in pass_contexts]
        return WorkloadResult(
            metrics={"mssim": float(np.mean(scores)),
                     "estimated_bits": float(total_bits)},
            counts=counts,
            details=details,
        )
