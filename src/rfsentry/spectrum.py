"""Magnitude-spectrum feature extraction from RF signal-strength recordings.

There is one path from samples to features. ``segment_spectrum`` cuts a
segment into power-of-two frames through one strided view, transforms
the frame matrix row-wise with ``np.fft`` and averages the one-sided
magnitudes into a ``MagnitudeSpectrum`` per band. A single-band feature
row is that spectrum's ``bins``; ``compute_scaling_factor`` and
``concatenate_bands`` join the two bands into one row with no seam step.
``dft`` is the plain transform of one frame.

``segment_spectrum`` checks the samples its frames cover and the bins it
makes, and ``concatenate_bands`` the row it joins; ``MagnitudeSpectrum``
only carries bins.

What a feature row means depends on four settings: frame size, hop,
seam bins q and window. ``Extraction`` carries them as one validated
record, which is what the dataset builders, the feature cache and the
reports take and record.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    ConfigurationError,
    DegenerateSpectrumError,
    InsufficientDataError,
    InvalidFrameError,
    ShapeError,
)

MAX_FRAME_SIZE = 1 << 20

DEFAULT_FRAME_SIZE = 2048
DEFAULT_SEAM_BINS = 8
_FFT_BLOCK_SAMPLES = 1 << 17  # frame samples transformed at a time: 64 default frames

# A window's index here is its code in the feature cache: append, never reorder.
WINDOWS = ("rectangular", "hann")


class Band(enum.Enum):
    """Which 40 MHz half of the recorded channel a spectrum came from."""

    LOWER = "lower"
    UPPER = "upper"


class BandMode(enum.Enum):
    """Feature layout: a single band's spectrum, or both bands joined."""

    LOWER_ONLY = "lower"
    UPPER_ONLY = "upper"
    CONCATENATED = "both"

    @property
    def bands(self) -> tuple[Band, ...]:
        """The bands this layout reads, lower first."""
        if self is BandMode.CONCATENATED:
            return (Band.LOWER, Band.UPPER)
        return (Band.LOWER,) if self is BandMode.LOWER_ONLY else (Band.UPPER,)

    def feature_length(self, extraction: Extraction) -> int:
        return len(self.bands) * (extraction.frame_size // 2)


def _check_framing(frame_size: int, hop: int) -> None:
    """Frames are a power of two in [2, MAX_FRAME_SIZE] long and start hop >= 1 apart."""
    if not (2 <= frame_size <= MAX_FRAME_SIZE and frame_size & (frame_size - 1) == 0):
        raise ConfigurationError(
            f"frame size must be a power of two in [2, {MAX_FRAME_SIZE}], got {frame_size}"
        )
    if hop < 1:
        raise ConfigurationError(f"hop must be >= 1, got {hop}")


@dataclass(frozen=True)
class Extraction:
    """The settings that turn a band-file pair into feature rows.

    ``hop=None`` means non-overlapping frames (hop = frame size). Every
    value is checked here, so a record that exists is a valid one.
    """

    frame_size: int = DEFAULT_FRAME_SIZE
    hop: int | None = None
    q: int = DEFAULT_SEAM_BINS
    window: str = "rectangular"

    def __post_init__(self) -> None:
        if self.hop is None:
            object.__setattr__(self, "hop", self.frame_size)
        for name in ("frame_size", "hop", "q"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be an int, got {value!r}")
        _check_framing(self.frame_size, self.hop)
        if not (1 <= self.q <= self.frame_size // 2):
            raise ConfigurationError(f"q must be in [1, {self.frame_size // 2}], got {self.q}")
        if not (isinstance(self.window, str) and self.window in WINDOWS):
            raise ConfigurationError(f"unknown window {self.window!r} (expected one of {WINDOWS})")


@dataclass(frozen=True)
class MagnitudeSpectrum:
    """One band's averaged one-sided magnitude spectrum: bins 0 .. N/2 - 1 (a plain record)."""

    bins: np.ndarray
    band: Band

    def __len__(self) -> int:
        return self.bins.shape[0]


def _mean_magnitude(frames: np.ndarray, window: np.ndarray | None) -> np.ndarray:
    """Mean over the rows of a (count, N) frame matrix of |X[k]|, k < N/2.

    Frames are weighted and transformed a block at a time; each block's
    magnitudes, under the sum so far, are reduced along axis 0 row after
    row as ``.mean(axis=0)`` does: same bits. One column (N = 2) is summed
    pairwise, so it stays one block.
    """
    count, n = frames.shape
    step = count if n == 2 else max(1, _FFT_BLOCK_SAMPLES // n)
    rows = np.zeros((min(step, count) + 1, n // 2))  # row 0: the sum of the blocks before
    with np.errstate(over="ignore", invalid="ignore"):  # the caller checks the bins
        for start in range(0, count, step):
            block = frames[start : start + step]
            if window is not None:
                block = block * window
            np.abs(np.fft.fft(block, axis=-1)[:, : n // 2], out=rows[1 : len(block) + 1])
            rows[0] = np.add.reduce(rows[int(start == 0) : len(block) + 1], axis=0)
        return rows[0] / count


def _frame_matrix(samples: np.ndarray, frame_size: int, hop: int) -> np.ndarray:
    """Read-only (count, frame_size) view built directly on the samples' stride.

    Frame i starts at i * hop; a trailing remainder shorter than a frame is
    discarded. Each sample a frame covers is checked for finiteness once, in
    one bool per sample: overlapping frames are checked through the samples
    they span, not the view, which would take frame_size / hop bools per sample.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ShapeError(f"samples must be 1-D, got shape {samples.shape}")
    _check_framing(frame_size, hop)
    if samples.shape[0] < frame_size:
        raise InsufficientDataError(
            f"segment has {samples.shape[0]} samples, need at least {frame_size}"
        )
    count, step = (samples.shape[0] - frame_size) // hop + 1, samples.strides[0]
    frames = as_strided(samples, (count, frame_size), (hop * step, step), writeable=False)
    covered = frames if hop >= frame_size else samples[: (count - 1) * hop + frame_size]
    if not np.isfinite(covered).all():
        raise InvalidFrameError("frame contains non-finite samples")
    return frames


def dft(frame: np.ndarray) -> np.ndarray:
    """N-point transform X[k] = sum_n x[n] exp(-i 2 pi n k / N) of a real frame.

    N must be a power of two in [2, MAX_FRAME_SIZE] and every sample finite.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 1:
        raise InvalidFrameError(f"frame must be 1-D, got shape {frame.shape}")
    try:
        frames = _frame_matrix(frame, frame.shape[0], 1)
    except ConfigurationError as exc:
        raise InvalidFrameError(str(exc)) from None
    return np.fft.fft(frames[0])


def segment_spectrum(
    samples: np.ndarray,
    band: Band,
    frame_size: int = DEFAULT_FRAME_SIZE,
    hop: int | None = None,
    window: str = "rectangular",
) -> MagnitudeSpectrum:
    """Reduce one segment to a single averaged magnitude spectrum.

    Frames are non-overlapping by default (hop = frame_size) and
    unweighted; a Hann window can be selected instead. Finite samples can
    still overflow the transform; such bins are a ShapeError.
    """
    if hop is None:
        hop = frame_size
    frames = _frame_matrix(samples, frame_size, hop)
    if window not in WINDOWS:
        raise ConfigurationError(f"unknown window {window!r} (expected one of {WINDOWS})")
    weights = np.hanning(frame_size) if window == "hann" else None
    bins = _mean_magnitude(frames, weights)
    if not np.isfinite(bins).all():
        raise ShapeError("magnitude bins must be finite and non-negative")
    return MagnitudeSpectrum(bins, band=band)


def compute_scaling_factor(
    lb: MagnitudeSpectrum, ub: MagnitudeSpectrum, q: int = DEFAULT_SEAM_BINS
) -> float:
    """Ratio of the LB tail mean to the UB head mean over q boundary bins.

    Scaling the upper band by this factor makes the joined spectrum
    continuous at the seam in the q-bin-average sense.
    """
    _check_band_pair(lb, ub)
    if not (1 <= q <= len(lb)):
        raise ConfigurationError(f"q must be in [1, {len(lb)}], got {q}")
    tail = float(lb.bins[-q:].mean())
    head = float(ub.bins[:q].mean())
    if head <= np.finfo(np.float64).eps:
        raise DegenerateSpectrumError(
            f"upper-band head mean {head!r} is too small to derive a scale factor"
        )
    return tail / head


def concatenate_bands(lb: MagnitudeSpectrum, ub: MagnitudeSpectrum, s: float) -> np.ndarray:
    """Join the two bands into one row [LB bins, s * UB bins]; ShapeError if it overflows."""
    _check_band_pair(lb, ub)
    if not np.isfinite(s) or s <= 0:
        raise ConfigurationError(f"scaling factor must be finite and positive, got {s}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        row = np.concatenate((lb.bins, s * ub.bins))
    if not np.isfinite(row).all():
        raise ShapeError(f"joined feature row is not finite at scaling factor {s!r}")
    return row


def _check_band_pair(lb: MagnitudeSpectrum, ub: MagnitudeSpectrum) -> None:
    if lb.band is not Band.LOWER or ub.band is not Band.UPPER:
        raise ShapeError("expected a (lower, upper) spectrum pair")
    if len(lb) != len(ub):
        raise ShapeError(f"band lengths differ: {len(lb)} vs {len(ub)}")
