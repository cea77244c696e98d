import tracemalloc

import numpy as np
import pytest

from rfsentry import spectrum as spectrum_mod

from rfsentry.errors import (
    ConfigurationError,
    DegenerateSpectrumError,
    InsufficientDataError,
    InvalidFrameError,
    ShapeError,
)
from rfsentry.spectrum import (
    MAX_FRAME_SIZE,
    WINDOWS,
    Band,
    BandMode,
    Extraction,
    compute_scaling_factor,
    concatenate_bands,
    decode_layout,
    dft,
    layout_codes,
    segment_spectrum,
)


def naive_dft(x):
    """Direct evaluation of the transform sum, one bin at a time."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    out = np.empty(n, dtype=np.complex128)
    angles = -2j * np.pi * np.arange(n) / n
    for k in range(n):
        out[k] = np.sum(x * np.exp(angles * k))
    return out


def reference_spectrum(samples, frame_size, hop=None, window=None):
    """Mean one-sided |naive_dft| over explicit slices samples[i*hop : i*hop + N]."""
    hop = frame_size if hop is None else hop
    weights = np.ones(frame_size) if window is None else window
    starts = range(0, len(samples) - frame_size + 1, hop)
    frames = [samples[i : i + frame_size] * weights for i in starts]
    return np.mean([np.abs(naive_dft(frame))[: frame_size // 2] for frame in frames], axis=0)


class TestDft:
    def test_constant_frame_concentrates_in_dc(self):
        out = dft(np.ones(8))
        assert out[0] == pytest.approx(8.0)
        np.testing.assert_allclose(np.abs(out[1:]), 0.0, atol=1e-12)

    def test_single_tone_symmetry(self):
        x = np.cos(2 * np.pi * 3 * np.arange(8) / 8)
        mags = np.abs(dft(x))
        expected = np.zeros(8)
        expected[3] = expected[5] = 4.0
        np.testing.assert_allclose(mags, expected, atol=1e-12)

    def test_matches_naive_sum_on_seeded_noise(self):
        rng = np.random.default_rng(64)
        x = rng.uniform(-1.0, 1.0, 64)
        fast = dft(x)
        slow = naive_dft(x)
        rel = np.abs(fast - slow) / np.abs(slow)
        assert rel.max() <= 1e-9

    def test_matches_numpy_fft(self):
        rng = np.random.default_rng(3)
        for n in (2, 16, 512):
            x = rng.normal(size=n)
            np.testing.assert_allclose(dft(x), np.fft.fft(x), rtol=1e-9, atol=1e-9)

    def test_matches_direct_sum_up_to_4096(self):
        rng = np.random.default_rng(46)
        for n in (1024, 4096):
            x = rng.uniform(-1.0, 1.0, n)
            k = np.arange(n)
            reference = np.exp(-2j * np.pi * np.outer(k, k) / n) @ x
            rel = np.abs(dft(x) - reference) / np.abs(reference)
            assert rel.max() <= 1e-9

    @pytest.mark.parametrize("bad_length", [0, 3, 6, 100])
    def test_rejects_non_power_of_two(self, bad_length):
        with pytest.raises(InvalidFrameError):
            dft(np.zeros(bad_length) if bad_length else np.zeros(0))

    def test_rejects_two_dimensional_frame(self):
        with pytest.raises(InvalidFrameError, match="1-D"):
            dft(np.ones((2, 8)))

    def test_rejects_non_finite_samples(self):
        x = np.ones(8)
        x[5] = np.nan
        with pytest.raises(InvalidFrameError):
            dft(x)
        x[5] = np.inf
        with pytest.raises(InvalidFrameError):
            dft(x)

    def test_parseval(self):
        rng = np.random.default_rng(17)
        for n in (8, 64, 256, 1024):
            x = rng.normal(size=n)
            spectrum = dft(x)
            time_energy = np.sum(x * x)
            freq_energy = np.sum(np.abs(spectrum) ** 2) / n
            assert abs(time_energy - freq_energy) <= 1e-9 * time_energy

    def test_linearity(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=256)
        y = rng.normal(size=256)
        a, b = 1.7, -0.4
        combined = dft(a * x + b * y)
        separate = a * dft(x) + b * dft(y)
        scale = np.abs(separate).max()
        np.testing.assert_allclose(combined, separate, rtol=1e-9, atol=1e-9 * scale)


class TestOneSidedMagnitude:
    """Each frame keeps |X[k]| for k = 0 .. N/2 - 1; the Nyquist bin is dropped."""

    def test_half_length(self):
        spectrum = segment_spectrum(np.random.default_rng(0).normal(size=2048), Band.LOWER)
        assert len(spectrum.bins) == 1024

    def test_zero_spectrum(self):
        spectrum = segment_spectrum(np.zeros(16), Band.UPPER, frame_size=16)
        np.testing.assert_array_equal(spectrum.bins, np.zeros(8))

    def test_single_tone_bins(self):
        x = np.cos(2 * np.pi * 3 * np.arange(8) / 8)
        spectrum = segment_spectrum(x, Band.LOWER, frame_size=8)
        np.testing.assert_allclose(spectrum.bins, [0, 0, 0, 4], atol=1e-12)

    def test_finite_samples_that_overflow_the_transform(self):
        # Each sample is finite; the DC bin, their sum, is not.
        with pytest.raises(ShapeError, match="finite and non-negative"):
            segment_spectrum(np.full(2048, 1e306), Band.LOWER)


class TestFrameSegment:
    """Frame i is samples[i * hop : i * hop + N]; a trailing remainder is discarded."""

    def test_million_sample_segment_frame_count(self):
        # Frame i holds the constant i, and the 576-sample remainder holds 488.
        # The mean DC bin is N * mean(0..487); a 489th frame would give N * 244.
        samples = np.repeat(np.arange(489.0), 2048)[:1_000_000]
        bins = segment_spectrum(samples, Band.LOWER, 2048, 2048).bins
        assert bins[0] == pytest.approx(2048 * 243.5, rel=1e-12)
        np.testing.assert_allclose(bins[1:], 0.0, atol=1e-9 * bins[0])

    def test_identity_case(self):
        samples = np.random.default_rng(1).normal(size=256)
        spectrum = segment_spectrum(samples, Band.LOWER, 256, 9999)
        expected = np.abs(naive_dft(samples))[:128]
        np.testing.assert_allclose(spectrum.bins, expected, rtol=1e-9)

    def test_overlap_matches_index_arithmetic(self):
        samples = np.random.default_rng(2).normal(size=4096)
        spectrum = segment_spectrum(samples, Band.LOWER, 2048, 1024)
        expected = np.mean(
            [np.abs(naive_dft(samples[i : i + 2048]))[:1024] for i in (0, 1024, 2048)], axis=0
        )
        np.testing.assert_allclose(spectrum.bins, expected, rtol=1e-9)

    def test_trailing_remainder_discarded(self):
        spectrum = segment_spectrum(np.arange(10.0), Band.LOWER, 4, 4)
        expected = (np.abs(naive_dft([0, 1, 2, 3])) + np.abs(naive_dft([4, 5, 6, 7])))[:2] / 2
        np.testing.assert_allclose(spectrum.bins, expected, rtol=1e-12)

    def test_too_short_segment(self):
        with pytest.raises(InsufficientDataError):
            segment_spectrum(np.zeros(100), Band.LOWER, 128, 128)

    # 128-sample frames over 1000 samples: at hop 64 the last frame ends at
    # 959; at hop 200 frames cover 0..127, 200..327, ... 800..927.
    @pytest.mark.parametrize("hop, bad", [(1, 999), (64, 959), (128, 0), (200, 210)])
    def test_non_finite_covered_sample_rejected(self, hop, bad):
        samples = np.zeros(1000)
        samples[bad] = np.nan
        with pytest.raises(InvalidFrameError):
            segment_spectrum(samples, Band.LOWER, 128, hop)

    @pytest.mark.parametrize("hop, bad", [(64, 960), (200, 150), (200, 999)])
    def test_uncovered_samples_are_not_read(self, hop, bad):
        samples = np.zeros(1000)
        samples[bad] = np.inf
        assert segment_spectrum(samples, Band.LOWER, 128, hop).bins.tobytes() == bytes(8 * 64)

    @pytest.mark.parametrize("frame_size", [256, 1024])
    def test_overlap_check_memory_is_bounded(self, frame_size):
        # At hop 1 the frame view has frame_size entries per sample; checking
        # it would take that many bytes per sample (32 MB here at N = 1024).
        # The check takes one byte per sample, the transform a bounded block.
        samples = np.random.default_rng(frame_size).normal(size=1 << 15)
        tracemalloc.start()
        try:
            segment_spectrum(samples, Band.LOWER, frame_size, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= samples.size + 48 * spectrum_mod._FFT_BLOCK_SAMPLES

    def test_bad_hop(self):
        with pytest.raises(ConfigurationError):
            segment_spectrum(np.zeros(256), Band.LOWER, 128, 0)

    # Strided and reversed views of 1200 samples (600, 400 and 1200 long);
    # 64-sample frames at hop 32 overlap, at 64 abut and at 100 leave gaps,
    # at least four frames each.
    VIEWS = {
        "every-2nd": slice(None, None, 2),
        "every-3rd-from-1": slice(1, None, 3),
        "reversed": slice(None, None, -1),
    }

    @pytest.mark.parametrize("hop", [32, 64, 100])
    @pytest.mark.parametrize("view", VIEWS.values(), ids=list(VIEWS))
    def test_non_contiguous_view_matches_its_contiguous_copy(self, view, hop):
        samples = np.random.default_rng(hop).normal(size=1200)[view]
        frames = spectrum_mod._frame_matrix(samples, 64, hop)
        assert not frames.flags.writeable
        count = (samples.size - 64) // hop + 1
        assert count >= 4
        expected = np.array([samples[i * hop : i * hop + 64] for i in range(count)])
        assert frames.shape == (count, 64)
        assert frames.tobytes() == expected.tobytes()
        got = segment_spectrum(samples, Band.LOWER, 64, hop).bins
        want = segment_spectrum(np.ascontiguousarray(samples), Band.LOWER, 64, hop).bins
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("view", VIEWS.values(), ids=list(VIEWS))
    def test_non_contiguous_view_checks_the_covered_samples(self, view):
        # At hop 100 a view sample at 70 lies in the gap after frame 0, one at 110 in frame 1.
        x = np.zeros(1200)
        samples = x[view]
        samples_index = np.arange(1200)[view]
        x[samples_index[70]] = np.nan
        assert segment_spectrum(samples, Band.LOWER, 64, 100).bins.tobytes() == bytes(8 * 32)
        x[samples_index[110]] = np.inf
        with pytest.raises(InvalidFrameError):
            segment_spectrum(samples, Band.LOWER, 64, 100)


class TestAverageSpectrum:
    """The segment spectrum is the element-wise mean of the frames' spectra."""

    def test_single_frame_is_identity(self):
        samples = np.random.default_rng(5).normal(size=64)
        spectrum = segment_spectrum(samples, Band.LOWER, frame_size=64)
        np.testing.assert_allclose(spectrum.bins, np.abs(dft(samples))[:32], rtol=1e-12)

    def test_mean_of_identical_frames_is_idempotent(self):
        samples = np.random.default_rng(6).normal(size=64)
        one = segment_spectrum(samples, Band.LOWER, frame_size=64)
        two = segment_spectrum(np.tile(samples, 2), Band.LOWER, frame_size=64)
        np.testing.assert_allclose(two.bins, one.bins, rtol=1e-12)

    def test_matches_explicit_accumulation(self):
        samples = np.random.default_rng(7).normal(size=10 * 128)
        spectrum = segment_spectrum(samples, Band.UPPER, frame_size=128)
        acc = np.zeros(64)
        for i in range(10):
            acc += np.abs(naive_dft(samples[128 * i : 128 * (i + 1)]))[:64]
        acc /= 10
        np.testing.assert_allclose(spectrum.bins, acc, rtol=1e-9)

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize(
        "frame_size, hop, count",
        [(2048, 2048, c) for c in (1, 63, 64, 65, 200)]
        + [(2048, 1024, 129), (2, 2, 9), (2, 1, 40000), (4, 4, 8), (4, 1, 40000), (16, 1, 9000)],
    )
    def test_blocked_mean_is_the_whole_matrix_mean(self, frame_size, hop, count, window):
        # Transforming the frames in blocks keeps the bits of one transform
        # of the whole (count, N) matrix and its .mean(axis=0): with many
        # short frames to a block, and at N = 2, whose one column numpy
        # sums pairwise.
        samples = np.random.default_rng(count).normal(size=(count - 1) * hop + frame_size + hop - 1)
        frames = np.lib.stride_tricks.sliding_window_view(samples, frame_size)[::hop]
        assert len(frames) == count
        if window == "hann":
            frames = frames * np.hanning(frame_size)
        whole = np.abs(np.fft.fft(frames, axis=-1)[:, : frame_size // 2]).mean(axis=0)
        spectrum = segment_spectrum(
            samples, Band.LOWER, frame_size=frame_size, hop=hop, window=window
        )
        assert spectrum.bins.tobytes() == whole.tobytes()


class TestScalingFactor:
    def test_forced_ratio(self):
        lb = np.concatenate([np.ones(8), np.full(8, 6.0)])
        ub = np.concatenate([np.full(8, 3.0), np.ones(8)])
        assert compute_scaling_factor(lb, ub, q=8) == pytest.approx(2.0)

    def test_identical_spectra_give_unity(self):
        # Unity for identical bands needs the q-bin head and tail means to
        # agree, which flat and mirror-symmetric spectra guarantee.
        flat = np.full(32, 1.7)
        half = np.random.default_rng(9).uniform(0.5, 2.0, 16)
        mirrored = np.concatenate([half, half[::-1]])
        for bins in (flat, mirrored):
            for q in (1, 5, 32):
                assert compute_scaling_factor(bins, bins.copy(), q=q) == pytest.approx(1.0)

    def test_matches_hand_rolled_ratio(self):
        rng = np.random.default_rng(10)
        lb = rng.uniform(0.1, 5.0, 64)
        ub = rng.uniform(0.1, 5.0, 64)
        expected = lb[-10:].mean() / ub[:10].mean()
        assert compute_scaling_factor(lb, ub, q=10) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_upper_band(self):
        with pytest.raises(DegenerateSpectrumError, match="^degenerate upper band: "):
            compute_scaling_factor(np.ones(16), np.zeros(16), q=4)

    def test_degenerate_lower_band(self):
        # A zero tail would give scale 0, which no joined row may carry.
        lb = np.concatenate([np.ones(12), np.zeros(4)])
        with pytest.raises(DegenerateSpectrumError, match="^degenerate lower band: "):
            compute_scaling_factor(lb, np.ones(16), q=4)
        assert compute_scaling_factor(lb, np.ones(16), q=5) == pytest.approx(0.2)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError, match="band lengths differ"):
            compute_scaling_factor(np.ones(16), np.ones(32), q=4)

    def test_q_range(self):
        lb = np.ones(16)
        ub = np.ones(16)
        with pytest.raises(ConfigurationError):
            compute_scaling_factor(lb, ub, q=17)


class TestConcatenateBands:
    def test_overflowing_scale_rejected(self):
        # A finite scale times finite upper-band bins past the float64 range.
        lb = np.ones(16)
        ub = np.full(16, 1e200)
        with pytest.raises(ShapeError, match="not finite"):
            concatenate_bands(lb, ub, 1e200)

    def test_lengths(self):
        lb = np.ones(1024)
        ub = np.ones(1024)
        row = concatenate_bands(lb, ub, 1.0)
        assert row.shape == (2048,)

    def test_zero_upper_band_tail(self):
        lb = np.random.default_rng(11).uniform(0.0, 1.0, 16)
        row = concatenate_bands(lb, np.zeros(16), 1.0)
        np.testing.assert_array_equal(row[:16], lb)
        np.testing.assert_array_equal(row[16:], np.zeros(16))

    def test_scale_applies_to_upper_only(self):
        ub = np.random.default_rng(12).uniform(0.0, 1.0, 16)
        row = concatenate_bands(np.ones(16), ub, 2.0)
        np.testing.assert_allclose(row[16:], 2.0 * ub)

    def test_length_mismatch(self):
        lb = np.ones(16)
        ub = np.ones(32)
        with pytest.raises(ShapeError):
            concatenate_bands(lb, ub, 1.0)

    def test_bad_scale(self):
        lb = np.ones(16)
        ub = np.ones(16)
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ConfigurationError):
                concatenate_bands(lb, ub, bad)

    def test_seam_continuity(self):
        rng = np.random.default_rng(13)
        for q in (4, 8, 16):
            lb = rng.uniform(0.5, 4.0, 1024)
            ub = rng.uniform(0.5, 4.0, 1024)
            scale = compute_scaling_factor(lb, ub, q=q)
            row = concatenate_bands(lb, ub, scale)
            lb_tail = row[1024 - q : 1024].mean()
            ub_head = row[1024 : 1024 + q].mean()
            assert abs(lb_tail - ub_head) <= 1e-9 * lb_tail


class TestFeatureVector:
    """A single-band feature row is a spectrum's bins; a joined row is both bands."""

    def test_feature_lengths_at_default_frame_size(self):
        rng = np.random.default_rng(14)
        lb = segment_spectrum(rng.normal(size=4096), Band.LOWER)
        ub = segment_spectrum(rng.normal(size=4096), Band.UPPER)
        assert lb.bins.shape == ub.bins.shape == (1024,)
        row = concatenate_bands(lb.bins, ub.bins, 1.0)
        np.testing.assert_array_equal(row, np.concatenate((lb.bins, ub.bins)))

    def test_each_layout_names_its_bands_lower_first(self):
        assert BandMode.LOWER_ONLY.bands == (Band.LOWER,)
        assert BandMode.UPPER_ONLY.bands == (Band.UPPER,)
        assert BandMode.CONCATENATED.bands == (Band.LOWER, Band.UPPER)
        lengths = [mode.feature_length(Extraction(frame_size=512)) for mode in BandMode]
        assert lengths == [256, 256, 512]


class TestSegmentSpectrum:
    def test_default_reduction_is_plain_mean(self):
        samples = np.random.default_rng(15).normal(size=1024)
        reduced = segment_spectrum(samples, Band.LOWER, frame_size=256)
        np.testing.assert_allclose(reduced.bins, reference_spectrum(samples, 256), rtol=1e-9)

    def test_hann_window_matches_weighted_reference(self):
        samples = np.random.default_rng(17).normal(size=1024)
        hann = segment_spectrum(samples, Band.LOWER, frame_size=256, hop=128, window="hann")
        expected = reference_spectrum(samples, 256, 128, window=np.hanning(256))
        np.testing.assert_allclose(hann.bins, expected, rtol=1e-9)

    def test_hann_window_changes_output(self):
        samples = np.random.default_rng(16).normal(size=1024)
        rect = segment_spectrum(samples, Band.LOWER, frame_size=256)
        hann = segment_spectrum(samples, Band.LOWER, frame_size=256, window="hann")
        assert not np.allclose(rect.bins, hann.bins)

    def test_unknown_window(self):
        with pytest.raises(ConfigurationError):
            segment_spectrum(np.zeros(512), Band.LOWER, frame_size=256, window="flattop")

    def test_two_dimensional_samples_rejected(self):
        with pytest.raises(ShapeError, match="1-D"):
            segment_spectrum(np.zeros((2, 512)), Band.LOWER, frame_size=256)


class TestExtraction:
    def test_defaults_and_hop_resolution(self):
        assert Extraction() == Extraction(2048, 2048, 8, "rectangular")
        assert Extraction(frame_size=512).hop == 512
        assert Extraction(frame_size=512, hop=128).hop == 128

    def test_boundary_values_accepted(self):
        Extraction(frame_size=2, hop=1, q=1)
        Extraction(frame_size=MAX_FRAME_SIZE, q=MAX_FRAME_SIZE // 2, window="hann")

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"frame_size": 1000}, "power of two"),
            ({"frame_size": 1}, "power of two"),
            ({"frame_size": 0}, "power of two"),
            ({"frame_size": 2 * MAX_FRAME_SIZE}, "power of two"),
            ({"hop": 0}, "hop must be >= 1"),
            ({"hop": -3}, "hop must be >= 1"),
            ({"q": 0}, r"q must be in \[1, 1024\]"),
            ({"q": 1025}, r"q must be in \[1, 1024\]"),
            ({"window": "flattop"}, "unknown window"),
        ],
    )
    def test_bad_settings_rejected(self, settings, message):
        with pytest.raises(ConfigurationError, match=message):
            Extraction(**settings)

    @pytest.mark.parametrize(
        "settings",
        [
            {"frame_size": 2048.0},
            {"frame_size": True},
            {"frame_size": np.int64(2048)},
            {"hop": 1024.0},
            {"hop": False},
            {"q": "8"},
            {"q": 8.0},
            {"window": b"hann"},
            {"window": None},
            {"window": np.array(["hann", "rectangular"])},
        ],
        ids=lambda settings: " ".join(f"{k}={v!r}" for k, v in settings.items()),
    )
    def test_wrong_types_rejected(self, settings):
        with pytest.raises(ConfigurationError, match="must be an int|unknown window"):
            Extraction(**settings)

    @pytest.mark.parametrize("band_mode", list(BandMode))
    @pytest.mark.parametrize("window", WINDOWS)
    def test_layout_codes_round_trip(self, band_mode, window):
        # A code is the member's index: the feature cache's codes since its version 2.
        extraction = Extraction(frame_size=512, hop=128, q=3, window=window)
        codes = layout_codes(band_mode, extraction)
        assert codes == (list(BandMode).index(band_mode), WINDOWS.index(window), 512, 128, 3)
        assert decode_layout("x", *codes) == (band_mode, extraction)

    def test_segment_spectrum_applies_the_same_frame_rule(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            segment_spectrum(np.zeros(2048), Band.LOWER, 1000)
