import hashlib
import json
import math
import os
import struct
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from rfsentry import dataset as dataset_mod
from rfsentry.dataset import (
    DRONERF_CLASSES,
    Case,
    Manifest,
    ManifestEntry,
    build_dataset,
    build_datasets,
    build_dronerf_manifest,
    class_tone_bins,
    extract_pair,
    load_features,
    load_manifest,
    load_segment,
    pool_workers,
    save_features,
    save_manifest,
    synth_segment,
    write_synthetic_corpus,
)
from rfsentry.errors import (
    ConfigurationError,
    DataError,
    FormatError,
    InsufficientDataError,
    ParseError,
    SchemaError,
)
from rfsentry.spectrum import Band, BandMode, Extraction, segment_spectrum

FRAMES_1024 = Extraction(frame_size=1024)


class TestLoadSegment:
    def test_comma_separated(self, tmp_path):
        path = tmp_path / "seg.csv"
        path.write_text("1.0,2.5,-0.25")
        np.testing.assert_array_equal(load_segment(path), [1.0, 2.5, -0.25])

    def test_newline_separated(self, tmp_path):
        path = tmp_path / "seg.csv"
        path.write_text("1.0\n2.5\n-0.25\n")
        np.testing.assert_array_equal(load_segment(path), [1.0, 2.5, -0.25])

    def test_mixed_separators(self, tmp_path):
        path = tmp_path / "seg.csv"
        path.write_text("1.0, 2.5\n-0.25,3e-2\n")
        np.testing.assert_array_equal(
            load_segment(path), [1.0, 2.5, -0.25, 0.03]
        )

    def test_parse_error_names_offset(self, tmp_path):
        path = tmp_path / "seg.csv"
        path.write_text("1.0,abc")
        with pytest.raises(ParseError, match="offset 2"):
            load_segment(path)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "seg.csv"
        path.write_text("1.0\n2.0\nbad\n")
        with pytest.raises(ParseError, match="line 3"):
            load_segment(path)

    def test_non_finite_sample_rejected(self, tmp_path):
        path = tmp_path / "seg.csv"
        path.write_text("1.0,nan,2.0")
        with pytest.raises(ParseError, match="offset 2"):
            load_segment(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "seg.csv"
        path.write_text("  \n")
        with pytest.raises(InsufficientDataError):
            load_segment(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_segment(tmp_path / "nope.csv")

    def test_outer_separators_ignored(self, tmp_path):
        path = tmp_path / "seg.csv"
        path.write_text(",\t1.0, 2.5,\r\n-0.25,\n")
        np.testing.assert_array_equal(load_segment(path), [1.0, 2.5, -0.25])
        path.write_text(", ,\n,")
        with pytest.raises(InsufficientDataError):
            load_segment(path)

    @pytest.mark.parametrize(
        "text, offset, line",
        [("1.0,1_0", 2, 1), ("1.0\n\u0661\n", 2, 2), ("1.0 nan(1)", 2, 1), ("0x10", 1, 1)],
        ids=["underscore", "arabic-indic-digit", "nan-payload", "hex"],
    )
    def test_only_decimal_literals_accepted(self, tmp_path, text, offset, line):
        # float() accepts the first two; the band-file grammar does not.
        path = tmp_path / "seg.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=f"invalid numeric token .* at offset {offset} \\(line {line}\\)"):
            load_segment(path)

    @pytest.mark.parametrize("chunk_bytes", [1, 2, 3, 5, 8, 13])
    def test_tokens_straddling_chunks(self, tmp_path, monkeypatch, chunk_bytes):
        samples = np.random.default_rng(3).normal(size=40) * 10.0 ** np.arange(-20, 20)
        path = tmp_path / "seg.csv"
        path.write_text(" ,".join(map(repr, samples.tolist())) + "\n")
        monkeypatch.setattr(dataset_mod, "_CHUNK_BYTES", chunk_bytes)
        assert load_segment(path).tobytes() == samples.tobytes()
        path.write_text("1.0,\n2.0,\n3.0,\n2.0e\n")
        with pytest.raises(ParseError, match="'2.0e' at offset 4 \\(line 4\\)"):
            load_segment(path)

    # The shortest tokens set apart from the digits-and-dot parse, and a long one.
    SET_APART = ("+1", "1e5", "1.2345678901234567e-05")

    @pytest.mark.parametrize("chunk_bytes", [6, 9, 14, 23, 40])
    def test_chunks_that_start_and_end_with_set_apart_tokens(self, tmp_path, monkeypatch, chunk_bytes):
        tokens = [t for odd in self.SET_APART for t in (odd, "0.25", "-7.5", odd, odd, "3.0")]
        path = tmp_path / "seg.csv"
        path.write_text(",".join(tokens) + "\n")
        monkeypatch.setattr(dataset_mod, "_CHUNK_BYTES", chunk_bytes)
        assert load_segment(path).tobytes() == np.array([float(t) for t in tokens]).tobytes()
        for odd in self.SET_APART:
            # One chunk: set apart at both ends and twice in a row inside.
            block = f"{odd} 0.5 {odd} {odd} -2.25 {odd} ".encode()
            parse = dataset_mod._parse_fast if dataset_mod._FAST_PARSE else dataset_mod._parse_piece
            values = parse(block)
            assert values.tobytes() == np.array([float(t) for t in block.split()]).tobytes()

    def test_numpy_1_unparseable_token_warning(self, tmp_path, monkeypatch):
        # numpy < 2 warns and returns the samples before the bad token.
        def fromstring_numpy_1(text, sep):
            warnings.warn(
                "string or file could not be read to its end due to unmatched data; "
                "this will raise a ValueError in the future.",
                DeprecationWarning,
                stacklevel=2,
            )
            return np.array([1.0])

        monkeypatch.setattr(np, "fromstring", fromstring_numpy_1)
        path = tmp_path / "seg.csv"
        path.write_text("1.0,abc,2.0")
        with pytest.raises(ParseError, match="'abc' at offset 2"):
            load_segment(path)

    def test_parse_memory_bound(self, tmp_path):
        n = 1 << 18
        samples = np.random.default_rng(4).normal(size=n)
        path = tmp_path / "seg.csv"
        path.write_text(",".join(map(repr, samples.tolist())) + "\n")
        tracemalloc.start()
        try:
            parsed = load_segment(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed.tobytes() == samples.tobytes()
        # Parsed chunks plus their concatenation, and two chunks of text;
        # no per-token Python objects (those alone take over 50 bytes each).
        assert peak <= 16 * n + 2 * dataset_mod._CHUNK_BYTES + (1 << 20)


needs_fast_parse = pytest.mark.skipif(
    not dataset_mod._FAST_PARSE, reason="long double here is not x87 extended precision"
)


def round_to_bits(x: Fraction, bits: int) -> Fraction:
    """x > 0 rounded to a binary significand of `bits` bits, ties to even."""
    exponent = x.numerator.bit_length() - x.denominator.bit_length()
    if x < Fraction(2) ** exponent:
        exponent -= 1
    unit = Fraction(2) ** (exponent - bits + 1)
    return round(x / unit) * unit


def assert_fast_parse_exact(tokens, sep=" "):
    """The fast path gives _parse_piece's bits, and those of float() per token."""
    block = (sep.join(tokens) + sep).encode()
    fast = dataset_mod._parse_fast(block)
    assert fast.tobytes() == dataset_mod._parse_piece(block).tobytes()
    assert fast.tobytes() == np.array([float(t) for t in tokens]).tobytes()


def parse_fast_spied(monkeypatch, block):
    """``_parse_fast(block)``, and the texts it handed to _parse_piece."""
    seen, parse_piece = [], dataset_mod._parse_piece
    monkeypatch.setattr(dataset_mod, "_parse_piece", lambda text: seen.append(text) or parse_piece(text))
    return dataset_mod._parse_fast(block), seen


@needs_fast_parse
class TestFastParse:
    def test_decimals_near_double_midpoints(self):
        # 19-digit decimals within a few 64-bit ulps of the midpoint between
        # two doubles: some land on it in long double and must be re-parsed.
        rng = np.random.default_rng(11)
        tokens, on_midpoint = [], 0
        for d in rng.uniform(8.0, 10.0, size=400):
            mid = (Fraction(d) + Fraction(np.nextafter(d, np.inf))) / 2
            nearest = round(mid * 10**18)
            for m in range(nearest - 2, nearest + 3):
                token = f"{m // 10**18}.{m % 10**18:018d}"
                tokens += [token, "-" + token]
                on_midpoint += round_to_bits(Fraction(m, 10**18), 64) == mid
        assert on_midpoint > 0
        assert_fast_parse_exact(tokens)

    def test_mantissas_above_two_to_the_63(self):
        rng = np.random.default_rng(12)
        digits = [str(m) for m in rng.integers(2**63, 10**19, size=200, dtype=np.uint64)]
        tokens = [f"{s[:k]}.{s[k:]}" for s in digits for k in (0, 1, 10, 19)]
        assert_fast_parse_exact(tokens + ["-" + t for t in tokens])

    def test_twenty_or_more_digits(self):
        tokens = [
            "12345678901234567890.5",
            "-0.00000000000000000001234",
            "1" + "0" * 30 + ".0",
            "0." + "3" * 40,
            "9999999999999999999.9",
            "0.1",
        ]
        assert_fast_parse_exact(tokens)

    def test_short_shapes(self):
        assert_fast_parse_exact(["-0.0", "0.0", ".5", "5.", "-.5", "-5.", "00.000", "-007.250"])
        block = b"-0.0 0.0 "
        assert np.signbit(dataset_mod._parse_fast(block)).tolist() == [True, False]

    # The dot at each offset after the sign; each chunk goes through the
    # fast path (no whole-chunk parse) in raw text with separator runs.
    DOT_OFFSETS = {
        "offset-0": [".5", "-.5", ".25", "-.125", ".0"],
        "offset-1": ["0.5", "-1.25", "7.", "-3.", "9.999"],
        "offset-2": ["12.5", "-47.25", "10.", "-99.0", "00.5"],
        "offset-3-and-more": ["123.5", "-4567.25", "100000.0", "-98765.4321", "1234567890123456789.5"],
        "mixed": [".5", "0.5", "-12.5", "123.5", "-4567.25", "-.75", "1" + "0" * 25 + ".5", "3.0"],
    }

    @pytest.mark.parametrize("sep", [" ", ",", ",\r\n", ", \t", "\x0b\x0c,"])
    @pytest.mark.parametrize("name", sorted(DOT_OFFSETS))
    def test_dot_offsets(self, monkeypatch, name, sep):
        tokens = self.DOT_OFFSETS[name]
        block = (sep.join(tokens) + sep).encode()
        values, seen = parse_fast_spied(monkeypatch, block)
        assert block not in seen
        assert values.tobytes() == np.array([float(t) for t in tokens]).tobytes()
        assert_fast_parse_exact(tokens[::-1], sep)

    @pytest.mark.parametrize("lead", ["", "1.5,"], ids=["wide-first-token", "narrow-first-token"])
    def test_four_digit_integer_parts(self, monkeypatch, lead):
        # %.6f text of values in [1000, 10000): every dot is four digits in, and
        # whatever the first token, the tokens step through the offsets to theirs.
        values = np.random.default_rng(14).uniform(1000, 10000, size=3000) * np.where(
            np.arange(3000) % 3, 1, -1
        )
        tokens = [lead.rstrip(",")] * bool(lead) + ["%.6f" % v for v in values]
        block = ("\n".join(tokens) + "\n").encode()
        parsed, seen = parse_fast_spied(monkeypatch, block)
        assert len(seen) == 1 and len(seen[0]) < 100  # the midpoint re-parse, not the chunk
        assert parsed.tobytes() == np.array([float(t) for t in tokens]).tobytes()

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1.2.5", "invalid numeric token '1.2.5' at offset 2 (line 1)"),
            ("1-2.5", "invalid numeric token '1-2.5' at offset 2 (line 1)"),
            ("12.5-", "invalid numeric token '12.5-' at offset 2 (line 1)"),
            ("--2.5", "invalid numeric token '--2.5' at offset 2 (line 1)"),
            ("1/2.5", "invalid numeric token '1/2.5' at offset 2 (line 1)"),
            (".", "invalid numeric token '.' at offset 2 (line 1)"),
            ("1..5,\n25", "invalid numeric token '1..5' at offset 2 (line 1)"),
            ("2.5,\n1234..5", "invalid numeric token '1234..5' at offset 3 (line 2)"),
            ("1!5.0", "invalid numeric token '1!5.0' at offset 2 (line 1)"),
        ],
        ids=["second-dot", "inner-minus", "trailing-minus", "two-minus", "slash", "lone-dot",
             "second-dot-and-dotless", "second-dot-wide", "bang"],
    )
    def test_stray_bytes_below_zero(self, tmp_path, bad, message):
        # Each is caught by the one count of bytes below '0', or by a token
        # without its dot; the chunk is parsed whole and the file names the token.
        text = f"0.5,{bad},-7.25\n"
        assert dataset_mod._parse_fast(text.encode()) is None
        assert dataset_mod._parse_piece(text.encode()) is None
        path = tmp_path / "seg.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            load_segment(path)
        assert str(info.value) == f"{path}: {message}"

    def test_tokens_of_twenty_or_more_digits_are_reparsed(self, monkeypatch):
        # A mantissa is read as uint64 only up to 19 digits, leading zeros
        # counted: synth's 1e-4 <= |x| < 1e-2 tokens and zero-padded integer
        # parts are re-parsed, and so is every longer token.
        fast = ["0.012345678901234567", "-0.000000000000000001", "000000000000000001.5"]
        slow = [
            "0.0012345678901234567",
            "-0.00098765432109876543",
            "0.000000001234567890123456789",
            "-0.000000000000000000000000001",
            "00000000000000000001.5",
            "0.12345678901234567890",
            "-0.0012345678901234567891",
            "0.0000000000000000000000000001",
            "1844674407370955162.1",  # 2**64 + 5 as a mantissa
            "0" * 29 + ".5",
        ]
        block = (",".join(fast + slow) + ",").encode()
        values, seen = parse_fast_spied(monkeypatch, block)
        assert seen == [" ".join(slow).encode()]
        assert values.tobytes() == np.array([float(t) for t in fast + slow]).tobytes()
        assert_fast_parse_exact(fast + slow, ",")

    @pytest.mark.parametrize("odd", ["1e-05", "+2.5"])
    def test_too_many_odd_tokens_parse_the_chunk_whole(self, monkeypatch, odd):
        # Each "1e-05" token is counted by its letter; a "+2.5" is no letter.
        tokens = [odd] * (dataset_mod._MAX_ODD_BYTES + 1) + ["2.5", "-0.75"]
        block = " ".join(tokens).encode() + b" "
        seen = []

        def parse_piece(text):
            seen.append(text)
            return np.fromstring(text, sep=" ")

        monkeypatch.setattr(dataset_mod, "_parse_piece", parse_piece)
        values = dataset_mod._parse_fast(block)
        assert seen == [block]
        assert values.tobytes() == np.array([float(t) for t in tokens]).tobytes()
        # One token fewer is parsed token by token, the odd ones first; but a
        # '+' is a byte below '-' that no separator is, so one sends its chunk whole.
        seen.clear()
        if odd == "+2.5":
            block = b"0.5 +2.5 -0.75 "
            dataset_mod._parse_fast(block)
            assert seen == [block]
        else:
            dataset_mod._parse_fast(block[len(odd) + 1 :])
            assert seen[0].split() == [odd.encode()] * dataset_mod._MAX_ODD_BYTES

    def test_exponents_after_the_counted_prefix_still_parse_the_chunk_whole(self, monkeypatch):
        # Plain tokens fill the prefix whose 'e's are counted first; the
        # exponent-form tokens after it are found by the full byte count.
        plain = dataset_mod._E_PREFIX_BYTES // 6 + 1
        tokens = ["0.125"] * plain + ["1e-05"] * (dataset_mod._MAX_ODD_BYTES + 1)
        block = " ".join(tokens).encode() + b" "
        assert block.index(b"e") >= dataset_mod._E_PREFIX_BYTES
        seen = []

        def parse_piece(text):
            seen.append(text)
            return np.fromstring(text, sep=" ")

        monkeypatch.setattr(dataset_mod, "_parse_piece", parse_piece)
        values = dataset_mod._parse_fast(block)
        assert seen == [block]
        assert values.tobytes() == np.array([float(t) for t in tokens]).tobytes()

    @pytest.mark.parametrize("text", ["12 -3 0 45", "0.5 1.5 2 3.25"])
    def test_chunk_with_a_dotless_token_is_parsed_whole(self, monkeypatch, text):
        seen = []
        monkeypatch.setattr(dataset_mod, "_parse_piece", lambda t: seen.append(t) or np.empty(0))
        dataset_mod._parse_fast(text.encode() + b" ")
        assert [t for t in seen if t] == [text.encode() + b" "]  # b"": no odd tokens

    def test_long_token_beyond_the_double_range_is_named(self, tmp_path):
        token = "1" + "0" * 400 + ".0"
        assert dataset_mod._parse_fast(f"1.5 {token} 2.5 ".encode()) is None
        path = tmp_path / "seg.csv"
        path.write_text(f"1.5,\n{token},2.5")
        with pytest.raises(ParseError) as info:
            load_segment(path)
        assert str(info.value) == f"{path}: non-finite sample {token!r} at offset 2 (line 2)"

    def test_gate_off_gives_the_same_samples(self, tmp_path, monkeypatch):
        samples = np.random.default_rng(13).normal(size=5000) * 10.0 ** np.tile(
            np.arange(-6, 6), 417
        )[:5000]
        path = tmp_path / "seg.csv"
        path.write_text(",\n".join(map(repr, samples.tolist())))
        fast = load_segment(path)

        def no_fast_path(block):
            raise AssertionError("the fast path ran with the gate off")

        monkeypatch.setattr(dataset_mod, "_FAST_PARSE", False)
        monkeypatch.setattr(dataset_mod, "_parse_fast", no_fast_path)
        slow = load_segment(path)
        assert fast.tobytes() == slow.tobytes() == samples.tobytes()


def labels_of(class_id):
    """A 10-way class id's labels under cases I, II and III."""
    return tuple(case.label(class_id) for case in Case)


class TestLabelHierarchy:
    def test_projection_table(self):
        # 10 mode-level classes collapse to 4 types and 2 presence values.
        projected = [labels_of(c) for c in range(10)]
        assert len({p[1] for p in projected}) == 4
        assert len({p[0] for p in projected}) == 2

    def test_specific_rows(self):
        assert labels_of(0) == (0, 0, 0)
        assert labels_of(7) == (1, 2, 7)  # AR mode 3
        assert labels_of(9) == (1, 3, 9)  # Phantom mode 1
        assert Case.II.class_names[Case.II.label(7)] == "AR"
        assert Case.III.class_names[7] == "AR mode 3"

    def test_hierarchy_consistency(self):
        for c in range(10):
            case1, case2, case3 = labels_of(c)
            assert (case1 == 0) == (case2 == 0) == (case3 == 0)
            assert case3 == c

    def test_out_of_range(self):
        for bad in (-1, 10, 99):
            for case in Case:
                with pytest.raises(SchemaError):
                    case.label(bad)

    def test_schemas(self):
        assert Case.I.n_classes == 2
        assert Case.II.n_classes == 4
        assert Case.III.n_classes == 10
        assert Case.for_n_classes(4) is Case.II
        with pytest.raises(SchemaError):
            Case.for_n_classes(3)

    def test_class_table(self):
        assert len(DRONERF_CLASSES) == 10
        assert Case.I.class_names == ("No Drone", "Drone")
        assert Case.II.class_names == ("No Drone", "Bebop", "AR", "Phantom")
        assert Case.III.class_names == (
            "No Drone",
            "Bebop mode 1",
            "Bebop mode 2",
            "Bebop mode 3",
            "Bebop mode 4",
            "AR mode 1",
            "AR mode 2",
            "AR mode 3",
            "AR mode 4",
            "Phantom mode 1",
        )
        assert [c.code for c in DRONERF_CLASSES] == [
            "00000", "10000", "10001", "10010", "10011",
            "10100", "10101", "10110", "10111", "11000",
        ]
        assert [c.published for c in DRONERF_CLASSES] == [41, 21, 21, 21, 21, 21, 21, 21, 18, 21]
        assert [c.mode for c in DRONERF_CLASSES] == [0, 0, 1, 2, 3, 0, 1, 2, 3, 0]


class TestManifest:
    def make_manifest(self, tmp_path):
        entries = (
            ManifestEntry("a_lb.csv", "a_ub.csv", 0),
            ManifestEntry("b_lb.csv", "b_ub.csv", 7),
        )
        return Manifest(entries=entries, source="Synthetic", root=tmp_path)

    def test_round_trip(self, tmp_path):
        manifest = self.make_manifest(tmp_path)
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded.entries == manifest.entries
        assert loaded.source == "Synthetic"
        assert loaded.root == tmp_path

    @staticmethod
    def load_one(tmp_path, lb_path="a_lb.csv", ub_path="a_ub.csv", label=0, source="Synthetic"):
        """load_manifest on a one-entry manifest file holding these values."""
        path = tmp_path / "manifest.json"
        entry = {"lb_path": lb_path, "ub_path": ub_path, "label": label}
        path.write_text(json.dumps({"source": source, "entries": [entry]}))
        return load_manifest(path)

    def test_missing_band_path_rejected(self, tmp_path):
        with pytest.raises(SchemaError, match="non-empty strings without NUL"):
            self.load_one(tmp_path, ub_path="")

    def test_label_out_of_range(self, tmp_path):
        with pytest.raises(SchemaError, match="must be in 0..9, got 12"):
            self.load_one(tmp_path, label=12)

    def test_bad_source(self, tmp_path):
        with pytest.raises(SchemaError, match="DroneRF or Synthetic, got 'Else'"):
            self.load_one(tmp_path, source="Else")

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_load_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"entries": [{"lb_path": "x"}], "source": "Synthetic"}')
        with pytest.raises(SchemaError):
            load_manifest(path)

    def test_class_counts_and_table(self, tmp_path):
        manifest = self.make_manifest(tmp_path)
        counts = manifest.class_counts()
        assert counts[0] == 1 and counts[7] == 1 and counts.sum() == 2
        table = manifest.table_report()
        assert table[0] == ("No Drone", 1, None)


class TestDroneRfScan:
    def expected_pairs(self, tmp_path, names):
        for name in names:
            (tmp_path / name).write_text("0.0")

    def test_scan_builds_sorted_manifest(self, tmp_path):
        self.expected_pairs(
            tmp_path,
            [
                "10101L_2.csv",
                "10101H_2.csv",
                "00000L_0.csv",
                "00000H_0.csv",
                "10101L_10.csv",
                "10101H_10.csv",
                "notes.txt",
                # Lower-band-shaped names that are not DroneRF stems are skipped.
                "CALL_LOG.csv",
                "1010L_3.csv",
            ],
        )
        manifest = build_dronerf_manifest(tmp_path)
        assert manifest.source == "DroneRF"
        assert [e.lb_path for e in manifest.entries] == [
            "00000L_0.csv",
            "10101L_2.csv",
            "10101L_10.csv",
        ]
        assert [e.case3 for e in manifest.entries] == [0, 6, 6]
        table = manifest.table_report()
        assert table[6] == ("AR mode 2", 2, 21)

    def test_missing_upper_band(self, tmp_path):
        self.expected_pairs(tmp_path, ["10000L_1.csv"])
        with pytest.raises(DataError, match="10000H_1"):
            build_dronerf_manifest(tmp_path)

    def test_unknown_code(self, tmp_path):
        self.expected_pairs(tmp_path, ["11111L_1.csv", "11111H_1.csv"])
        with pytest.raises(SchemaError, match="11111"):
            build_dronerf_manifest(tmp_path)


class TestSynthSegment:
    def test_deterministic(self):
        a_lb, a_ub = synth_segment(3, 99, length=4096, index=5)
        b_lb, b_ub = synth_segment(3, 99, length=4096, index=5)
        np.testing.assert_array_equal(a_lb.samples, b_lb.samples)
        np.testing.assert_array_equal(a_ub.samples, b_ub.samples)

    def test_index_and_seed_vary_output(self):
        base, _ = synth_segment(3, 99, length=4096, index=5)
        other_index, _ = synth_segment(3, 99, length=4096, index=6)
        other_seed, _ = synth_segment(3, 100, length=4096, index=5)
        assert not np.array_equal(base.samples, other_index.samples)
        assert not np.array_equal(base.samples, other_seed.samples)

    def test_labels_attached(self):
        # A synthetic pair carries its 10-way class in its segment ids.
        lb, ub = synth_segment(6, 0, length=4096, index=3)
        assert lb.segment_id == "synth-c06-i0003-lb"
        assert ub.segment_id == "synth-c06-i0003-ub"
        assert lb.band is Band.LOWER and ub.band is Band.UPPER

    def test_no_drone_has_no_peaks(self):
        for seed in (0, 7, 123):
            lb, ub = synth_segment(0, seed, length=8192)
            for record in (lb, ub):
                spec = segment_spectrum(record.samples, record.band)
                assert spec.bins.max() <= 6.0 * np.median(spec.bins)

    def test_sibling_modes_share_base_tones_but_not_comb(self):
        # Seed chosen so the mode comb is active in both segments.
        seed = 0
        m1, _ = synth_segment(1, seed, length=8192)  # Bebop mode 1
        m2, _ = synth_segment(2, seed, length=8192)  # Bebop mode 2
        spec1 = segment_spectrum(m1.samples, Band.LOWER)
        spec2 = segment_spectrum(m2.samples, Band.LOWER)
        floor1 = 6.0 * np.median(spec1.bins)
        floor2 = 6.0 * np.median(spec2.bins)
        base = set(class_tone_bins(1, Band.LOWER, include_comb=False))
        comb1 = set(class_tone_bins(1, Band.LOWER)) - base
        comb2 = set(class_tone_bins(2, Band.LOWER)) - base
        assert base == set(class_tone_bins(2, Band.LOWER, include_comb=False))
        assert comb1.isdisjoint(comb2 - {min(comb2)}) or comb1 != comb2
        for b in base:
            assert spec1.bins[b] > floor1 and spec2.bins[b] > floor2
        assert all(spec1.bins[b] > floor1 for b in comb1)
        assert all(spec2.bins[b] > floor2 for b in comb2)
        assert not all(spec1.bins[b] > floor1 for b in comb2 - comb1)

    def test_length_validation(self):
        with pytest.raises(ConfigurationError):
            synth_segment(1, 0, length=100)

    @pytest.mark.parametrize("class_id", [0, 3, 9])
    def test_blocked_tones_match_one_full_length_pass(self, class_id):
        def reference(rng, tones, amp_scale, sigma, length):
            signal = rng.normal(0.0, sigma, length)
            phases = rng.uniform(0.0, 2.0 * np.pi, len(tones))
            t = np.arange(length)
            for (bin_index, amplitude), phase in zip(tones, phases):
                signal += amp_scale * amplitude * np.cos(
                    2.0 * np.pi * bin_index * t / dataset_mod.DEFAULT_FRAME_SIZE + phase
                )
            return signal

        length = 3 * dataset_mod._TONE_BLOCK + 1000
        for band in Band:
            tones = dataset_mod._class_tones(class_id, band, comb=True)
            rngs = [np.random.Generator(np.random.Philox(key=[5, class_id])) for _ in range(2)]
            blocked = dataset_mod._tone_signal(rngs[0], tones, 1.1, 0.95, length)
            expected = reference(rngs[1], tones, 1.1, 0.95, length)
            assert blocked.tobytes() == expected.tobytes()
            # Both generators drew the same numbers, so they are in the same state.
            assert rngs[0].random() == rngs[1].random()

    def test_memory_is_bounded_at_dronerf_length(self):
        length = 1 << 21
        tracemalloc.start()
        try:
            synth_segment(9, 1, length=length)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Both bands' samples (16 bytes per sample) and one block's temporaries.
        assert peak <= 24 * length


class TestSyntheticCorpus:
    def test_file_counts(self, tmp_path):
        manifest = write_synthetic_corpus(tmp_path / "c", n_per_class=5, seed=1, length=2048)
        assert len(manifest.entries) == 50
        files = sorted(p.name for p in (tmp_path / "c").glob("*.csv"))
        assert len(files) == 100
        assert (tmp_path / "c" / "manifest.json").exists()
        assert manifest.config["seed_data"] == 1

    def test_byte_identical_regeneration(self, tmp_path):
        first = tmp_path / "one"
        second = tmp_path / "two"
        write_synthetic_corpus(first, n_per_class=2, seed=3, length=2048)
        write_synthetic_corpus(second, n_per_class=2, seed=3, length=2048)
        for path in sorted(first.iterdir()):
            twin = second / path.name
            assert twin.read_bytes() == path.read_bytes(), path.name

    def test_round_trip_through_text_is_lossless(self, tmp_path):
        manifest = write_synthetic_corpus(tmp_path / "c", n_per_class=1, seed=2, length=2048)
        entry = manifest.entries[3]
        lb_path, _ = manifest.resolve(entry)
        reloaded = load_segment(lb_path)
        direct, _ = synth_segment(entry.case3, 2, length=2048, index=0)
        np.testing.assert_array_equal(reloaded, direct.samples)


class TestSegmentWriter:
    """``_write_segment_file`` writes each sample as its nearest 17-significant-digit
    decimal, or as repr outside [1e-4, 1e16), in bounded memory."""

    # sha256 of the lower band of synth_segment(0, 1, length=2048) as written.
    # Class 0 is noise alone, the same sample bits on every platform, so the
    # written bytes are the same everywhere too.
    PINNED_BAND = "b9a8aed67a6b28010f206f2618e38b54e42c9c8f268e8b6a565878550e8ed20c"

    @pytest.mark.parametrize("seed", [0, 7])
    def test_every_synthetic_class(self, seed, tmp_path, check_band_text):
        path = tmp_path / "band.csv"
        for class_id in range(len(DRONERF_CLASSES)):
            for record in synth_segment(class_id, seed, length=8192, index=1):
                dataset_mod._write_segment_file(path, record.samples)
                check_band_text(record.samples.tolist(), path.read_bytes())

    def test_random_bit_patterns(self, tmp_path, check_band_text):
        # Every exponent, both signs, subnormals, inf and nan; several chunks.
        samples = np.random.default_rng(8).integers(0, 1 << 64, 1 << 15, dtype=np.uint64)
        samples = samples.view(np.float64)
        path = tmp_path / "band.csv"
        dataset_mod._write_segment_file(path, samples)
        check_band_text(samples.tolist(), path.read_bytes())

    def test_every_fixed_exponent(self, tmp_path, check_band_text):
        # Values across each decade of [1e-4, 1e16), and the neighbours of its
        # powers of ten and two: the largest double below 10**(e + 1) is
        # still written at exponent e.
        rng = np.random.default_rng(9)
        edges = [10.0**p for p in range(-4, 17)] + [2.0**p for p in range(-14, 54)]
        edges += [math.nextafter(v, d) for v in edges for d in (0.0, math.inf)]
        samples = np.concatenate(
            [rng.uniform(10.0**e, 10.0**(e + 1), 500) for e in range(-4, 16)] + [np.array(edges)]
        )
        samples *= rng.choice([-1.0, 1.0], samples.size)
        path = tmp_path / "band.csv"
        dataset_mod._write_segment_file(path, samples)
        check_band_text(samples.tolist(), path.read_bytes())
        assert load_segment(path).tobytes() == samples.tobytes()

    def test_bytes_are_pinned(self, tmp_path):
        lb, _ = synth_segment(0, 1, length=2048)
        path = tmp_path / "band.csv"
        dataset_mod._write_segment_file(path, lb.samples)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_BAND

    def test_memory_is_bounded(self, tmp_path):
        # One 2^20-sample band file: ''.join over repr strings peaks near 110 MB.
        samples = np.random.default_rng(10).normal(size=1 << 20)
        path = tmp_path / "band.csv"
        tracemalloc.start()
        try:
            dataset_mod._write_segment_file(path, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert load_segment(path).tobytes() == samples.tobytes()


class TestBuildDataset:
    def test_shapes_and_labels_per_case(self, small_corpus):
        ds3 = build_dataset(small_corpus, BandMode.LOWER_ONLY, Case.III, FRAMES_1024)
        assert ds3.features.shape == (60, 512)
        assert ds3.case.n_classes == 10
        np.testing.assert_array_equal(np.bincount(ds3.labels), np.full(10, 6))
        ds2 = build_dataset(small_corpus, BandMode.UPPER_ONLY, Case.II, FRAMES_1024)
        assert ds2.case.n_classes == 4
        np.testing.assert_array_equal(np.bincount(ds2.labels), [6, 24, 24, 6])
        ds1 = build_dataset(small_corpus, BandMode.CONCATENATED, Case.I, FRAMES_1024)
        assert ds1.features.shape == (60, 1024)
        np.testing.assert_array_equal(np.bincount(ds1.labels), [6, 54])

    def test_rows_follow_manifest_order_and_rebuild_alone(self, small_corpus):
        ds = build_dataset(small_corpus, BandMode.CONCATENATED, Case.III, FRAMES_1024)
        for i in (0, 17, 59):
            single = Manifest(
                entries=(small_corpus.entries[i],),
                source="Synthetic",
                root=small_corpus.root,
            )
            alone = build_dataset(single, BandMode.CONCATENATED, Case.III, FRAMES_1024)
            np.testing.assert_array_equal(alone.features[0], ds.features[i])
            assert alone.labels[0] == ds.labels[i]

    def test_parallel_extraction_is_bit_identical(self, small_corpus):
        serial = build_dataset(small_corpus, BandMode.LOWER_ONLY, Case.I, FRAMES_1024)
        parallel = build_dataset(
            small_corpus, BandMode.LOWER_ONLY, Case.I, FRAMES_1024, jobs=3
        )
        np.testing.assert_array_equal(serial.features, parallel.features)
        np.testing.assert_array_equal(serial.labels, parallel.labels)

    def test_empty_manifest(self, tmp_path):
        manifest = Manifest(entries=(), source="Synthetic", root=tmp_path)
        with pytest.raises(InsufficientDataError):
            build_dataset(manifest, BandMode.LOWER_ONLY, Case.I)

    def test_failing_entry_aborts_with_id(self, small_corpus, tmp_path):
        entries = list(small_corpus.entries[:3])
        entries[1] = ManifestEntry("missing_lb.csv", "missing_ub.csv", 4)
        manifest = Manifest(entries=tuple(entries), source="Synthetic", root=small_corpus.root)
        with pytest.raises(DataError, match="entry 1"):
            build_dataset(manifest, BandMode.LOWER_ONLY, Case.III, FRAMES_1024)

    def test_bad_frame_size(self, small_corpus):
        with pytest.raises(ConfigurationError, match="power of two"):
            build_dataset(small_corpus, BandMode.LOWER_ONLY, Case.I, Extraction(frame_size=1000))

    def test_degenerate_upper_band_falls_back_to_unit_scale(self, tmp_path, caplog):
        lb_path = tmp_path / "seg_lb.csv"
        ub_path = tmp_path / "seg_ub.csv"
        rng = np.random.default_rng(30)
        lb_path.write_text(",".join(map(str, rng.normal(size=1024).tolist())))
        ub_path.write_text(",".join(["0.0"] * 1024))
        manifest = Manifest(
            entries=(ManifestEntry("seg_lb.csv", "seg_ub.csv", 0),),
            source="Synthetic",
            root=tmp_path,
        )
        with caplog.at_level("WARNING", logger="rfsentry.dataset"):
            ds = build_dataset(manifest, BandMode.CONCATENATED, Case.I, Extraction(frame_size=512))
        assert "degenerate upper band" in caplog.text
        np.testing.assert_array_equal(ds.features[0, 256:], np.zeros(256))
        assert ds.features[0, :256].any()

    def test_degenerate_lower_band_falls_back_to_unit_scale(self, tmp_path, caplog):
        # A zero lower tail would give scale 0; the pair joins at scale 1 instead.
        (tmp_path / "seg_lb.csv").write_text(",".join(["0.0"] * 1024))
        ub_samples = np.random.default_rng(31).normal(size=1024)
        (tmp_path / "seg_ub.csv").write_text(",".join(map(repr, ub_samples.tolist())))
        manifest = Manifest(
            entries=(ManifestEntry("seg_lb.csv", "seg_ub.csv", 0),),
            source="Synthetic",
            root=tmp_path,
        )
        with caplog.at_level("WARNING", logger="rfsentry.dataset"):
            ds = build_dataset(manifest, BandMode.CONCATENATED, Case.I, Extraction(frame_size=512))
        warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warned) == 1 and "degenerate lower band" in warned[0], warned
        ub = segment_spectrum(ub_samples, Band.UPPER, 512)
        assert ds.features[0].tobytes() == np.concatenate((np.zeros(256), ub.bins)).tobytes()


class TestMultiModeExtraction:
    def test_modes_match_single_mode_builds(self, small_corpus):
        modes = (BandMode.CONCATENATED, BandMode.UPPER_ONLY, BandMode.LOWER_ONLY)
        joint = build_datasets(small_corpus, modes, Case.II, FRAMES_1024)
        assert tuple(joint) == modes
        for mode in modes:
            alone = build_dataset(small_corpus, mode, Case.II, FRAMES_1024)
            np.testing.assert_array_equal(joint[mode].features, alone.features)
            np.testing.assert_array_equal(joint[mode].labels, alone.labels)
            assert joint[mode].band_mode is mode
        both = joint[BandMode.CONCATENATED].features
        np.testing.assert_array_equal(both[:, :512], joint[BandMode.LOWER_ONLY].features)
        _, ub_path = small_corpus.resolve(small_corpus.entries[0])
        ub = segment_spectrum(load_segment(ub_path), Band.UPPER, 1024)
        np.testing.assert_array_equal(joint[BandMode.UPPER_ONLY].features[0], ub.bins)

    def test_missing_lower_band_is_data_error(self, small_corpus, tmp_path):
        _, ub_path = small_corpus.resolve(small_corpus.entries[0])
        with pytest.raises(DataError, match="feature extraction failed for probe"):
            extract_pair(
                tmp_path / "absent.csv", ub_path, (BandMode.CONCATENATED,), name="probe"
            )
        rows = extract_pair(
            tmp_path / "absent.csv", ub_path, (BandMode.UPPER_ONLY,), FRAMES_1024
        )
        assert rows[BandMode.UPPER_ONLY].shape == (512,)

    def test_pool_workers_clamped(self):
        cpus = os.cpu_count() or 1
        assert pool_workers(10**9, 10**9) == cpus
        assert pool_workers(10**9, 3) == min(3, cpus)
        assert pool_workers(1, 10**9) == 1
        assert pool_workers(0, 5) == 1
        assert pool_workers(-4, 5) == 1


class TestFeatureCache:
    def roundtrip(self, tmp_path, ds):
        path = tmp_path / "cache.rfds"
        save_features(ds, path)
        return path, load_features(path)

    def test_round_trip_bit_exact(self, small_corpus, tmp_path):
        ds = build_dataset(small_corpus, BandMode.CONCATENATED, Case.II, FRAMES_1024)
        _, loaded = self.roundtrip(tmp_path, ds)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.case is ds.case
        assert loaded.band_mode is ds.band_mode
        assert loaded.extraction == Extraction(1024, hop=1024, q=8, window="rectangular")

    def test_window_round_trips(self, small_corpus, tmp_path):
        extraction = Extraction(frame_size=1024, window="hann")
        ds = build_dataset(small_corpus, BandMode.LOWER_ONLY, Case.I, extraction)
        assert ds.extraction.window == "hann"
        _, loaded = self.roundtrip(tmp_path, ds)
        assert loaded.extraction == extraction
        np.testing.assert_array_equal(loaded.features, ds.features)

    def test_version_1_cache_rejected(self, tmp_path):
        header = struct.pack("<4sHBBIIIII", b"RFDS", 1, 1, 0, 2, 4, 8, 8, 8)
        body = np.zeros(2, dtype="<u2").tobytes() + np.ones(8, dtype="<f8").tobytes()
        path = tmp_path / "old.rfds"
        path.write_bytes(header + body)
        with pytest.raises(FormatError, match="version 1"):
            load_features(path)

    def test_truncated_file(self, small_corpus, tmp_path):
        ds = build_dataset(small_corpus, BandMode.LOWER_ONLY, Case.I, FRAMES_1024)
        path, _ = self.roundtrip(tmp_path, ds)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError):
            load_features(path)

    def test_trailing_garbage(self, small_corpus, tmp_path):
        ds = build_dataset(small_corpus, BandMode.LOWER_ONLY, Case.I, FRAMES_1024)
        path, _ = self.roundtrip(tmp_path, ds)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_features(path)

    def test_no_feature_columns_rejected(self, tmp_path):
        header = struct.pack("<4sHBBBIIIII", b"RFDS", 2, 3, 0, 0, 20, 0, 2048, 2048, 8)
        path = tmp_path / "empty.rfds"
        path.write_bytes(header + np.zeros(20, dtype="<u2").tobytes())
        with pytest.raises(FormatError, match="no feature columns"):
            load_features(path)

    @pytest.mark.parametrize(
        "band_code, n_cols, width",
        [(0, 4, 1024), (0, 2048, 1024), (1, 1023, 1024), (2, 1024, 2048)],
        ids=["lower-4", "lower-2048", "upper-1023", "both-1024"],
    )
    def test_column_count_must_match_layout(self, band_code, n_cols, width, tmp_path):
        # A 2-row case-1 cache at frame size 2048 whose width is not its layout's.
        header = struct.pack("<4sHBBBIIIII", b"RFDS", 2, 1, band_code, 0, 2, n_cols, 2048, 2048, 8)
        body = np.zeros(2, dtype="<u2").tobytes() + np.ones(2 * n_cols, dtype="<f8").tobytes()
        path = tmp_path / "wide.rfds"
        path.write_bytes(header + body)
        with pytest.raises(FormatError, match=f"{n_cols} feature columns, .* has {width}$"):
            load_features(path)

    @pytest.mark.parametrize(
        "frame_size, hop, q",
        [(3, 3, 1), (2048, 0, 8), (2048, 2048, 0)],
        ids=["frame-size-3", "hop-0", "q-0"],
    )
    def test_bad_extraction_settings_rejected(self, tmp_path, frame_size, hop, q):
        # A hand-packed 2 x 4 case-1 cache whose header settings no extraction produces.
        header = struct.pack("<4sHBBBIIIII", b"RFDS", 2, 1, 0, 0, 2, 4, frame_size, hop, q)
        body = np.zeros(2, dtype="<u2").tobytes() + np.ones(8, dtype="<f8").tobytes()
        path = tmp_path / "bad.rfds"
        path.write_bytes(header + body)
        with pytest.raises(FormatError, match="bad extraction settings"):
            load_features(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "cache.rfds"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(FormatError, match="magic"):
            load_features(path)

    def test_version_bump_detected(self, small_corpus, tmp_path):
        ds = build_dataset(small_corpus, BandMode.LOWER_ONLY, Case.I, FRAMES_1024)
        path, _ = self.roundtrip(tmp_path, ds)
        data = bytearray(path.read_bytes())
        data[4:6] = (3).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version 3"):
            load_features(path)


class TestRecordsAndDatasets:
    def test_nearest_centroid_separability(self):
        # Resubstitution nearest-centroid on lower-band features; the
        # guarantee that keeps pipeline-level tests meaningful.
        rows, labels = [], []
        for class_id in range(10):
            for index in range(15):
                lb, _ = synth_segment(class_id, 77, length=4096, index=index)
                rows.append(segment_spectrum(lb.samples, Band.LOWER).bins)
                labels.append(0 if class_id == 0 else 1)
        features = np.array(rows)
        labels = np.array(labels)
        centroids = np.stack([features[labels == c].mean(axis=0) for c in (0, 1)])
        distance = np.linalg.norm(features[:, None, :] - centroids[None, :, :], axis=2)
        predicted = np.argmin(distance, axis=1)
        assert (predicted == labels).mean() >= 0.99
