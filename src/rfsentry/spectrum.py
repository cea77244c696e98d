"""Magnitude-spectrum feature extraction from RF signal-strength recordings.

A recording is cut into power-of-two frames through one strided view,
the frame matrix is transformed row-wise with ``np.fft``, the one-sided
magnitude spectra are averaged into a single vector per segment, and the
two receiver bands are finally joined with a scale factor chosen so the
concatenation has no seam step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

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


class Band(enum.Enum):
    """Which 40 MHz half of the recorded channel a spectrum came from."""

    LOWER = "lower"
    UPPER = "upper"


class BandMode(enum.Enum):
    """Feature layout: a single band's spectrum, or both bands joined."""

    LOWER_ONLY = "lower"
    UPPER_ONLY = "upper"
    CONCATENATED = "both"

    def feature_length(self, frame_size: int) -> int:
        half = frame_size // 2
        return 2 * half if self is BandMode.CONCATENATED else half


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SampleFrame:
    """One fixed-length window of real signal-strength samples."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise InvalidFrameError(f"frame must be 1-D, got shape {samples.shape}")
        n = samples.shape[0]
        if not _is_power_of_two(n) or not (2 <= n <= MAX_FRAME_SIZE):
            raise InvalidFrameError(
                f"frame length must be a power of two in [2, {MAX_FRAME_SIZE}], got {n}"
            )
        if not np.isfinite(samples).all():
            raise InvalidFrameError("frame contains non-finite samples")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class MagnitudeSpectrum:
    """One-sided magnitude spectrum of a real frame: bins 0 .. N/2 - 1."""

    bins: np.ndarray
    band: Band
    frame_size: int

    def __post_init__(self) -> None:
        bins = np.asarray(self.bins, dtype=np.float64)
        if bins.ndim != 1:
            raise ShapeError(f"spectrum bins must be 1-D, got shape {bins.shape}")
        if not _is_power_of_two(self.frame_size):
            raise ShapeError(f"frame_size must be a power of two, got {self.frame_size}")
        if bins.shape[0] != self.frame_size // 2:
            raise ShapeError(
                f"expected {self.frame_size // 2} bins for frame size "
                f"{self.frame_size}, got {bins.shape[0]}"
            )
        if not np.isfinite(bins).all() or (bins < 0).any():
            raise ShapeError("magnitude bins must be finite and non-negative")
        object.__setattr__(self, "bins", bins)

    def __len__(self) -> int:
        return self.bins.shape[0]


@dataclass(frozen=True)
class FeatureVector:
    """Per-segment feature vector with its band layout and seam scale."""

    values: np.ndarray
    band_mode: BandMode
    scaling_factor: float | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ShapeError(f"feature vector must be 1-D, got shape {values.shape}")
        if not np.isfinite(values).all() or (values < 0).any():
            raise ShapeError("feature values must be finite and non-negative")
        if self.band_mode is BandMode.CONCATENATED:
            if self.scaling_factor is None:
                raise ShapeError("concatenated features require a scaling factor")
            if values.shape[0] % 2 != 0:
                raise ShapeError("concatenated feature length must be even")
        elif self.scaling_factor is not None:
            raise ShapeError("scaling factor only applies to concatenated features")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]


def _mean_magnitude(frames: np.ndarray) -> np.ndarray:
    """Mean over the rows of a (count, N) frame matrix of |X[k]|, k < N/2."""
    n = frames.shape[-1]
    return np.abs(np.fft.fft(frames, axis=-1)[:, : n // 2]).mean(axis=0)


def dft(frame: SampleFrame | np.ndarray) -> np.ndarray:
    """N-point transform X[k] = sum_n x[n] exp(-i 2 pi n k / N) of a real frame."""
    if not isinstance(frame, SampleFrame):
        frame = SampleFrame(np.asarray(frame))
    return np.fft.fft(frame.samples)


def one_sided_magnitude(spectrum: np.ndarray, band: Band) -> MagnitudeSpectrum:
    """Keep |X[k]| for k = 0 .. N/2 - 1 (the Nyquist bin is dropped)."""
    spectrum = np.asarray(spectrum)
    if spectrum.ndim != 1:
        raise ShapeError(f"spectrum must be 1-D, got shape {spectrum.shape}")
    n = spectrum.shape[0]
    if not _is_power_of_two(n) or n < 2:
        raise ShapeError(f"spectrum length must be a power of two >= 2, got {n}")
    return MagnitudeSpectrum(np.abs(spectrum[: n // 2]), band=band, frame_size=n)


def _frame_matrix(samples: np.ndarray, frame_size: int, hop: int) -> np.ndarray:
    """Read-only (count, frame_size) strided view; frame i starts at i * hop."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ShapeError(f"samples must be 1-D, got shape {samples.shape}")
    if not _is_power_of_two(frame_size) or not (2 <= frame_size <= MAX_FRAME_SIZE):
        raise InvalidFrameError(
            f"frame size must be a power of two in [2, {MAX_FRAME_SIZE}], got {frame_size}"
        )
    if hop < 1:
        raise ConfigurationError(f"hop must be >= 1, got {hop}")
    if samples.shape[0] < frame_size:
        raise InsufficientDataError(
            f"segment has {samples.shape[0]} samples, need at least {frame_size}"
        )
    frames = np.lib.stride_tricks.sliding_window_view(samples, frame_size)[::hop]
    if not np.isfinite(frames).all():
        raise InvalidFrameError("frame contains non-finite samples")
    return frames


def frame_segment(samples: np.ndarray, frame_size: int, hop: int) -> list[SampleFrame]:
    """Cut a sample stream into frames; a trailing remainder is discarded."""
    return [SampleFrame(row) for row in _frame_matrix(samples, frame_size, hop)]


def average_spectrum(frames: list[SampleFrame], band: Band) -> MagnitudeSpectrum:
    """Element-wise mean of the frames' one-sided magnitude spectra."""
    if len(frames) == 0:
        raise InsufficientDataError("cannot average an empty list of frames")
    n = len(frames[0])
    if any(len(f) != n for f in frames):
        raise ShapeError("all frames must share the same length")
    stacked = np.stack([f.samples for f in frames])
    return MagnitudeSpectrum(_mean_magnitude(stacked), band=band, frame_size=n)


def window_values(name: str, frame_size: int) -> np.ndarray | None:
    """Analysis window by name; None means rectangular (no weighting)."""
    if name == "rectangular":
        return None
    if name == "hann":
        return np.hanning(frame_size)
    raise ConfigurationError(f"unknown window {name!r} (expected rectangular or hann)")


def segment_spectrum(
    samples: np.ndarray,
    band: Band,
    frame_size: int = DEFAULT_FRAME_SIZE,
    hop: int | None = None,
    window: str = "rectangular",
) -> MagnitudeSpectrum:
    """Reduce one segment to a single averaged magnitude spectrum.

    Frames are non-overlapping by default (hop = frame_size) and
    unweighted; a Hann window can be selected instead.
    """
    if hop is None:
        hop = frame_size
    frames = _frame_matrix(samples, frame_size, hop)
    win = window_values(window, frame_size)
    if win is not None:
        frames = frames * win
    return MagnitudeSpectrum(_mean_magnitude(frames), band=band, frame_size=frame_size)


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


def concatenate_bands(
    lb: MagnitudeSpectrum, ub: MagnitudeSpectrum, s: float
) -> FeatureVector:
    """Join the two bands as [LB bins, s * UB bins]."""
    _check_band_pair(lb, ub)
    if not np.isfinite(s) or s <= 0:
        raise ConfigurationError(f"scaling factor must be finite and positive, got {s}")
    values = np.concatenate((lb.bins, s * ub.bins))
    return FeatureVector(values, BandMode.CONCATENATED, scaling_factor=float(s))


def single_band_feature(spectrum: MagnitudeSpectrum) -> FeatureVector:
    """Wrap one band's spectrum as a feature vector."""
    mode = BandMode.LOWER_ONLY if spectrum.band is Band.LOWER else BandMode.UPPER_ONLY
    return FeatureVector(spectrum.bins, mode)


def _check_band_pair(lb: MagnitudeSpectrum, ub: MagnitudeSpectrum) -> None:
    if lb.band is not Band.LOWER or ub.band is not Band.UPPER:
        raise ShapeError("expected a (lower, upper) spectrum pair")
    if len(lb) != len(ub):
        raise ShapeError(f"band lengths differ: {len(lb)} vs {len(ub)}")
