"""Segment ingestion, the DroneRF classes, synthetic data, and feature assembly.

Recordings arrive as one comma- or newline-separated text file per band
per segment. A JSON manifest pairs the two band files and carries the
10-way class id. ``DRONERF_CLASSES`` describes the ten classes once, and
``Case`` projects an id onto the 2-, 4- or 10-class task. A feature
matrix carries the ``Extraction`` record that produced it. Feature
matrices are cached in a small self-describing binary container so
round-trips are bit-exact; its header stores the record, and a header
whose settings the record rejects is a ``FormatError``.
"""

from __future__ import annotations

import enum
import functools
import itertools
import json
import logging
import math
import os
import re
import struct
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    DegenerateSpectrumError,
    FormatError,
    InsufficientDataError,
    ParseError,
    RfSentryError,
    SchemaError,
    ShapeError,
)
from .spectrum import (
    DEFAULT_FRAME_SIZE,
    Band,
    BandMode,
    Extraction,
    compute_scaling_factor,
    concatenate_bands,
    decode_layout,
    layout_codes,
    segment_spectrum,
)

log = logging.getLogger(__name__)


class DroneRfClass(NamedTuple):
    """One of the ten DroneRF classes; its index in ``DRONERF_CLASSES`` is its 10-way id."""

    name: str
    code: str  # 5-digit code in DroneRF file stems
    published: int  # segments in the published dataset
    drone: str  # drone type, or "No Drone"
    mode: int  # flight-mode index within the drone type


# DroneRF file stems look like "10011L_42": the code names the class, L/H
# the band and the trailing integer the segment. Published counts are
# reported for comparison, never enforced (AR mode 4 ships with 18).
DRONERF_CLASSES = (
    DroneRfClass("No Drone", "00000", 41, "No Drone", 0),
    DroneRfClass("Bebop mode 1", "10000", 21, "Bebop", 0),
    DroneRfClass("Bebop mode 2", "10001", 21, "Bebop", 1),
    DroneRfClass("Bebop mode 3", "10010", 21, "Bebop", 2),
    DroneRfClass("Bebop mode 4", "10011", 21, "Bebop", 3),
    DroneRfClass("AR mode 1", "10100", 21, "AR", 0),
    DroneRfClass("AR mode 2", "10101", 21, "AR", 1),
    DroneRfClass("AR mode 3", "10110", 21, "AR", 2),
    DroneRfClass("AR mode 4", "10111", 18, "AR", 3),
    DroneRfClass("Phantom mode 1", "11000", 21, "Phantom", 0),
)
_DRONE_TYPES = tuple(dict.fromkeys(c.drone for c in DRONERF_CLASSES))


class Case(enum.Enum):
    """The three classification tasks: presence, presence+type, +mode.

    Each labels a segment by projecting its 10-way DroneRF class id.
    """

    I = 1
    II = 2
    III = 3

    @classmethod
    def for_n_classes(cls, n_classes: int) -> "Case":
        for case in cls:
            if case.n_classes == n_classes:
                return case
        raise SchemaError(f"no case with {n_classes} classes")

    @property
    def class_names(self) -> tuple[str, ...]:
        if self is Case.I:
            return (_DRONE_TYPES[0], "Drone")
        if self is Case.II:
            return _DRONE_TYPES
        return tuple(c.name for c in DRONERF_CLASSES)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def label(self, class_id: int) -> int:
        """This case's label for a 10-way class id; SchemaError outside 0..9."""
        if not 0 <= class_id < len(DRONERF_CLASSES):
            raise SchemaError(f"10-way class id must be in 0..9, got {class_id}")
        drone_type = _DRONE_TYPES.index(DRONERF_CLASSES[class_id].drone)
        if self is Case.I:
            return min(drone_type, 1)
        return drone_type if self is Case.II else int(class_id)


# Band-file grammar: a token is a maximal run of bytes other than commas
# and ASCII whitespace, and must be a decimal float literal (or inf/nan,
# which are then rejected as non-finite).
_SEPARATORS = b", \t\n\r\x0b\x0c"
_SEPARATORS_TO_SPACE = bytes.maketrans(_SEPARATORS, b" " * len(_SEPARATORS))
_TOKEN_BYTES = bytes(c for c in range(256) if c not in _SEPARATORS)
# Every separator is below '-' (45): by byte value, whether one is a separator.
_IS_SEPARATOR = np.array([c in _SEPARATORS for c in range(45)])
_TOKEN_RE = re.compile(r"[^,\s]+", re.ASCII)
_NUMBER_RE = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|(?i:inf|infinity|nan))"
)
# Bytes of band-file text read and parsed at a time.
_CHUNK_BYTES = 1 << 18
# The fast path divides a mantissa of at most 19 digits, leading zeros
# counted (10**19 < 2**64), by 10**f, f <= 19 (10**f = 2**f * 5**f and
# 5**19 < 2**64), in x87 long double, whose 64-bit significand holds both
# exactly: the quotient is correctly rounded, and so is its cast to float64
# unless it is a midpoint between two doubles. Elsewhere only _parse_piece runs.
_FAST_PARSE = bool(
    np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
    and np.little_endian and np.longdouble(1) + np.longdouble(2) ** -63 != 1
)
_MAX_DIGITS = 19  # digits of a mantissa read as uint64, leading zeros counted
_POW10 = np.cumprod(np.r_[1, np.full(_MAX_DIGITS, 10)].astype(np.longdouble))
_MAX_ODD_BYTES = 256  # a chunk with more letters is parsed whole
_E_PREFIX_BYTES = 1 << 13  # so is one with more 'e's in its first 8 KiB (~315 `%.18e` tokens)


def load_segment(path) -> np.ndarray:
    """Read one band file's samples: comma-separated and/or one value per line.

    Any run of commas and ASCII whitespace separates two tokens, and
    separators at either end are ignored. Each token must be a decimal
    float literal with a finite value; otherwise the ParseError names
    the first bad token by offset and line. A file without tokens is an
    InsufficientDataError, so the float64 array returned is never empty.

    Memory is bounded: the file is read ``_CHUNK_BYTES`` at a time and
    each chunk is parsed in C; only the few tokens ``_parse_fast`` sets
    apart become Python objects. Parsing holds two chunks of text (plus
    the longest token) and, for `repr` or `synth` text, about 4 bytes of
    temporaries per chunk byte besides the parsed values, which are
    joined once at the end: about 16 bytes per sample plus six chunks.
    """
    path = Path(path)
    samples = _parse_chunks(path)
    if samples is None:
        _raise_token_error(path)
    if samples.size == 0:
        raise InsufficientDataError(f"{path}: file contains no samples")
    return samples


def _parse_chunks(path: Path) -> np.ndarray | None:
    """All samples of a well-formed band file, uncopied from one chunk, or None at the first bad token."""
    pieces, tail, more = [], b"", True
    with open(path, "rb") as fh:
        while more:
            block = tail + fh.read(_CHUNK_BYTES)
            more = len(block) > len(tail)
            # Cut after the last separator; a token split by the chunk end carries over.
            text = block.rstrip(_TOKEN_BYTES) if more else block
            tail = block[len(text) :]
            del block
            piece = (_parse_fast if _FAST_PARSE else _parse_piece)(text)
            del text  # at most two chunks are alive while the next one is read
            if piece is None:
                return None
            if piece.size:
                pieces.append(piece)
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces or [np.empty(0)])


def _parse_piece(text: bytes) -> np.ndarray | None:
    """Parse separated float literals; None if one is bad or non-finite."""
    text = text.translate(_SEPARATORS_TO_SPACE)
    if not text or text.isspace():
        # np.fromstring reads a lone run of whitespace as one bogus value.
        return np.empty(0)
    with warnings.catch_warnings():
        # numpy < 2 warns and returns the values before an unparseable
        # token; numpy 2 raises ValueError.
        warnings.filterwarnings("error", "string or file could not be read", DeprecationWarning)
        try:
            values = np.fromstring(text, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    return values if np.isfinite(values).all() else None


def _parse_fast(block: bytes) -> np.ndarray | None:
    """``_parse_piece(block)``, reading ``[-]digits.digits`` tokens as m / 10**f.

    Tokens holding a letter (exponents, inf, nan) are set apart for
    _parse_piece and keep their places as '0.' placeholders; tokens of 20 or
    more digits, leading zeros counted, or with a midpoint quotient are
    re-parsed there. A chunk with over _MAX_ODD_BYTES letters, or any
    token of another shape ('+' included), goes whole.
    """
    # Exponent form or integers; the two byte searches are cheaper than any numpy pass.
    if block.count(b"e", 0, _E_PREFIX_BYTES) > _MAX_ODD_BYTES or b"." not in block:
        return _parse_piece(block)
    b = np.frombuffer(block, np.uint8)
    odd = np.flatnonzero(b > 57)  # letters
    seps = np.flatnonzero(b < 45)  # separators, '+' and bytes no float literal holds
    if odd.size > _MAX_ODD_BYTES or not _IS_SEPARATOR[b[seps]].all():
        return _parse_piece(block)
    edges = np.concatenate(([-1], seps, [b.size]))
    text = block
    if odd.size:
        # Tokens holding those bytes are parsed apart; their placeholders, digits
        # and a dot of the same length, keep every token's bounds and index.
        at = np.searchsorted(seps, odd)
        spans = sorted(set(zip((edges[at] + 1).tolist(), edges[at + 1].tolist())))
        odd_values = _parse_piece(b" ".join(block[i:j] for i, j in spans))
        if odd_values is None or odd_values.size != len(spans):
            return _parse_piece(block)
        text = bytearray(block)
        for i, j in spans:
            text[i:j] = b"0.".ljust(j - i, b"0")  # never longer: one-byte odd tokens have failed above
        text = bytes(text)
        b = np.frombuffer(text, np.uint8)
    gap = np.flatnonzero(np.diff(edges) > 1)
    starts, ends = edges[gap] + 1, edges[gap + 1]
    del edges, gap
    neg = b[starts] == 45
    first = starts + neg
    digits = ends - first - 1
    # Each token needs a digit and, once a dot is found in each, no byte below
    # '0' may be anything but a separator, that dot or a leading minus.
    if not (
        starts.size
        and (digits >= 1).all()
        and np.count_nonzero(b < 48) == seps.size + starts.size + np.count_nonzero(neg)
    ):
        return _parse_piece(block)
    del seps
    dots = _token_dots(b, first, ends)
    if dots is None:
        return _parse_piece(block)
    fraction = ends - dots - 1
    slow = digits > _MAX_DIGITS
    fraction[slow] = 0
    del first, digits, dots  # the peak below is then a few bytes per chunk byte
    quotient = _POW10[fraction]
    del fraction
    mantissa = np.fromstring(text.translate(_SEPARATORS_TO_SPACE, b".-"), dtype=np.uint64, sep=" ")
    np.divide(mantissa, quotient, out=quotient)
    del mantissa
    midpoint = (quotient.view(np.uint64)[::2] & 0x7FF) == 0x400  # low significand bits
    values = quotient.astype(np.float64) * np.where(neg, -1.0, 1.0)
    redo = np.flatnonzero(slow | midpoint)
    redone = _parse_piece(b" ".join(text[i:j] for i, j in zip(starts[redo].tolist(), ends[redo].tolist())))
    if redone is None:  # a long token beyond the float64 range
        return None
    values[redo] = redone
    if odd.size:  # each placeholder is the token that starts where its odd one did
        values[np.searchsorted(starts, [i for i, _ in spans])] = odd_values
    return values


def _token_dots(b: np.ndarray, first: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """Each token's '.', or None unless each token holds one.

    Most tokens have it one or two digits in, so one gather over all tokens
    looks there, and the rest step through the other offsets as one subset.
    If a token's dot is over _MAX_DIGITS digits in, one search finds every dot.
    """
    last = ends - 1
    dots = np.minimum(first + 1, last)  # inside the token, so a '.' there is its own
    rest = np.flatnonzero(b[dots] != 46)
    for k in itertools.chain((2, 0), range(3, _MAX_DIGITS + 1)):
        if not rest.size:
            return dots
        at = np.minimum(first[rest] + k, last[rest])
        dots[rest] = at
        rest = rest[b[at] != 46]
    dots = np.flatnonzero(b == 46)
    if dots.size == first.size and ((first <= dots) & (dots < ends)).all():
        return dots
    return None


def _raise_token_error(path: Path) -> None:
    """Re-read a file the chunked parser rejected and name the first bad token.

    An invalid token anywhere takes precedence over a non-finite one.
    """
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file: {exc}") from None
    non_finite = None
    for offset, match in enumerate(_TOKEN_RE.finditer(text), start=1):
        token = match.group()
        if not _NUMBER_RE.fullmatch(token):
            line = text.count("\n", 0, match.start()) + 1
            raise ParseError(
                f"{path}: invalid numeric token {token!r} at offset {offset} (line {line})"
            )
        if non_finite is None and not math.isfinite(float(token)):
            non_finite = (offset, match)
    if non_finite is not None:
        offset, match = non_finite
        line = text.count("\n", 0, match.start()) + 1
        raise ParseError(
            f"{path}: non-finite sample {match.group()!r} at offset {offset} (line {line})"
        )
    raise ParseError(f"{path}: could not parse numeric data")


@dataclass(frozen=True)
class ManifestEntry:
    lb_path: str
    ub_path: str
    case3: int

    @property
    def segment_id(self) -> str:
        return Path(self.lb_path).stem


@dataclass(frozen=True)
class Manifest:
    """Ordered list of segment entries; row order in datasets follows it.

    Manifest and ManifestEntry are plain records: load_manifest checks the
    paths, labels and source it reads.
    """

    entries: tuple[ManifestEntry, ...]
    source: str
    root: Path = Path(".")
    config: dict = field(default_factory=dict)

    def resolve(self, entry: ManifestEntry) -> tuple[Path, Path]:
        return self.root / entry.lb_path, self.root / entry.ub_path

    def class_counts(self) -> np.ndarray:
        return np.bincount([e.case3 for e in self.entries], minlength=len(DRONERF_CLASSES))

    def table_report(self) -> list[tuple[str, int, int | None]]:
        """Observed per-class counts, with the published ones for DroneRF."""
        dronerf = self.source == "DroneRF"
        return [
            (c.name, int(count), c.published if dronerf else None)
            for c, count in zip(DRONERF_CLASSES, self.class_counts())
        ]


def save_manifest(manifest: Manifest, path) -> None:
    payload = {
        "source": manifest.source,
        "entries": [
            {"lb_path": e.lb_path, "ub_path": e.ub_path, "label": e.case3}
            for e in manifest.entries
        ],
    }
    if manifest.config:
        payload["config"] = manifest.config
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_manifest(path) -> Manifest:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: not valid JSON text: {exc}") from None
    if not isinstance(payload, dict) or "entries" not in payload or "source" not in payload:
        raise SchemaError(f"{path}: manifest needs 'source' and 'entries' keys")
    if not isinstance(payload["entries"], list):
        raise SchemaError(f"{path}: manifest 'entries' must be a list")
    entries = []
    for i, raw in enumerate(payload["entries"]):
        try:
            label = raw["label"]
            if not isinstance(label, int) or isinstance(label, bool):
                raise SchemaError(f"label must be an integer, got {label!r}")
            paths = raw["lb_path"], raw["ub_path"]
            if not all(isinstance(p, str) and p and "\0" not in p for p in paths):
                raise SchemaError("manifest entry band paths must be non-empty strings without NUL")
            Case.III.label(label)
            entries.append(ManifestEntry(*paths, case3=label))
        except (KeyError, TypeError, SchemaError) as exc:
            raise SchemaError(f"{path}: bad manifest entry {i}: {exc}") from None
    if payload["source"] not in ("DroneRF", "Synthetic"):
        raise SchemaError(f"manifest source must be DroneRF or Synthetic, got {payload['source']!r}")
    return Manifest(
        entries=tuple(entries),
        source=payload["source"],
        root=path.parent,
        config=payload.get("config", {}),
    )


def build_dronerf_manifest(root) -> Manifest:
    """Scan a DroneRF download for <BUI>L_<n>.csv / <BUI>H_<n>.csv pairs."""
    root = Path(root)
    stem_re = re.compile(r"^(\d{5})L_(\d+)$")
    class_of_code = {c.code: class_id for class_id, c in enumerate(DRONERF_CLASSES)}
    found = []
    for lb in root.rglob("*L_*.csv"):
        match = stem_re.match(lb.stem)
        if not match:
            log.debug("skipping %s: not a DroneRF lower-band file name", lb)
            continue
        bui, seg = match.group(1), match.group(2)
        if bui not in class_of_code:
            raise SchemaError(f"{lb.name}: unknown DroneRF code {bui}")
        ub = lb.with_name(f"{bui}H_{seg}.csv")
        if not ub.exists():
            raise DataError(f"{lb.name}: missing upper-band counterpart {ub.name}")
        found.append((bui, int(seg), lb, ub))
    found.sort(key=lambda item: (item[0], item[1]))
    entries = tuple(
        ManifestEntry(
            lb_path=str(lb.relative_to(root)),
            ub_path=str(ub.relative_to(root)),
            case3=class_of_code[bui],
        )
        for bui, _, lb, ub in found
    )
    return Manifest(entries=entries, source="DroneRF", root=root)


# ---------------------------------------------------------------------------
# Synthetic desk-scale segments.
#
# All drone classes share a carrier tone per band (any drone occupies
# the channel), every drone type adds its own base tones, and the four
# modes of a type share those and differ only in the spacing of a weaker
# comb. The comb drops out of a random fraction of segments entirely,
# which is what makes the 10-way task genuinely harder than the 4-way
# one. All tone frequencies sit on exact analysis bins of the default
# frame size.
# ---------------------------------------------------------------------------

SYNTH_DEFAULT_LENGTH = 8192

_TONE_BLOCK = 1 << 16
_COMB_SPACINGS = (17, 23, 29, 35)  # by mode
_COMB_TEETH = 5


@dataclass(frozen=True)
class _BandTones:
    """One band's synthetic tones as (bin, amplitude) pairs: the carrier, the
    base tones of drone types 1-3, where each type's comb starts, the comb's
    amplitude, and the fraction of segments whose comb drops out."""

    carrier: tuple[tuple[int, float], ...]
    base: dict[int, tuple[tuple[int, float], ...]]
    comb_start: dict[int, int]
    comb_amp: float
    dropout: float


_TONES = {
    Band.LOWER: _BandTones(
        carrier=((950, 2.0),),
        base={
            1: ((120, 1.0), (340, 0.8), (560, 0.6)),
            2: ((180, 1.0), (420, 0.8), (700, 0.6)),
            3: ((260, 1.0), (500, 0.9), (840, 0.7)),
        },
        comb_start={1: 60, 2: 90, 3: 130},
        comb_amp=0.5,
        dropout=0.25,
    ),
    Band.UPPER: _BandTones(
        carrier=((100, 1.8),),
        base={
            1: ((150, 0.9), (410, 0.7)),
            2: ((220, 0.9), (530, 0.7)),
            3: ((300, 0.9), (660, 0.7)),
        },
        comb_start={1: 700, 2: 740, 3: 780},
        comb_amp=0.25,
        dropout=0.55,
    ),
}


def _class_tones(class_id: int, band: Band, comb: bool) -> tuple[tuple[int, float], ...]:
    """The (bin, amplitude) tones of one band of a synthetic class; none for
    class 0, and the comb only if ``comb``."""
    drone_type = Case.II.label(class_id)
    if drone_type == 0:
        return ()
    table = _TONES[band]
    tones = table.carrier + table.base[drone_type]
    if comb:
        start = table.comb_start[drone_type]
        spacing = _COMB_SPACINGS[DRONERF_CLASSES[class_id].mode]
        tones += tuple((start + spacing * (i + 1), table.comb_amp) for i in range(_COMB_TEETH))
    return tones


def class_tone_bins(class_id: int, band: Band, include_comb: bool = True) -> tuple[int, ...]:
    """Analysis bins carrying deliberate tones for a synthetic class."""
    return tuple(b for b, _ in _class_tones(class_id, band, include_comb))


def _tone_signal(rng, tones, amp_scale, sigma, length) -> np.ndarray:
    """Gaussian noise plus the tones. The tones are added _TONE_BLOCK samples at a
    time, so besides the signal only a block's temporaries are held."""
    signal = rng.normal(0.0, sigma, length)
    phases = rng.uniform(0.0, 2.0 * np.pi, len(tones))
    for start in range(0, length, _TONE_BLOCK):
        block = signal[start : start + _TONE_BLOCK]
        t = np.arange(start, start + block.shape[0])
        for (bin_index, amplitude), phase in zip(tones, phases):
            block += amp_scale * amplitude * np.cos(
                2.0 * np.pi * bin_index * t / DEFAULT_FRAME_SIZE + phase
            )
    return signal


@dataclass(frozen=True)
class SegmentRecord:
    """One synthetic band of one segment, as ``synth_segment`` makes it."""

    segment_id: str
    band: Band
    samples: np.ndarray


def _check_synth_settings(seed: int, length: int, index: int) -> None:
    if not (0 <= seed < 1 << 64 and 0 <= index < 1 << 32):
        raise ConfigurationError("seed must be in [0, 2^64) and index in [0, 2^32)")
    if length < DEFAULT_FRAME_SIZE:
        raise ConfigurationError(
            f"segment length {length} is below the frame size {DEFAULT_FRAME_SIZE}"
        )


def synth_segment(
    class_id: int,
    seed: int,
    length: int = SYNTH_DEFAULT_LENGTH,
    index: int = 0,
) -> tuple[SegmentRecord, SegmentRecord]:
    """Deterministic synthetic (lower, upper) segment pair for one class.

    The counter-based generator is keyed by (seed, class_id, index), so
    parallel generation order cannot change the output.
    """
    Case.II.label(class_id)  # an unknown class fails before the other arguments
    _check_synth_settings(seed, length, index)
    key = np.array([seed, (class_id << 32) | index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))

    amp_scale = rng.uniform(0.8, 1.25)
    sigma = rng.uniform(0.9, 1.1)
    # Band iterates lower, then upper: both comb draws come before both signals.
    comb_on = {band: rng.random() >= _TONES[band].dropout for band in Band}
    lb_samples, ub_samples = (
        _tone_signal(rng, _class_tones(class_id, band, comb_on[band]), amp_scale, sigma, length)
        for band in Band
    )
    stem = f"synth-c{class_id:02d}-i{index:04d}"
    return (
        SegmentRecord(f"{stem}-lb", Band.LOWER, lb_samples),
        SegmentRecord(f"{stem}-ub", Band.UPPER, ub_samples),
    )


def write_synthetic_corpus(
    out_dir,
    n_per_class: int,
    seed: int,
    length: int = SYNTH_DEFAULT_LENGTH,
) -> Manifest:
    """Write segment files for all ten classes plus a manifest referencing them.

    Every setting is checked before ``out_dir`` is made, so a refused run
    leaves nothing behind."""
    if n_per_class < 1:
        raise ConfigurationError(f"n_per_class must be >= 1, got {n_per_class}")
    _check_synth_settings(seed, length, n_per_class - 1)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = out_dir / ".write-probe"
    probe.write_text("")
    probe.unlink()

    entries = []
    for class_id in range(len(DRONERF_CLASSES)):
        for index in range(n_per_class):
            lb, ub = synth_segment(class_id, seed, length=length, index=index)
            lb_name = f"{class_id:02d}_{index:03d}_lb.csv"
            ub_name = f"{class_id:02d}_{index:03d}_ub.csv"
            _write_segment_file(out_dir / lb_name, lb.samples)
            _write_segment_file(out_dir / ub_name, ub.samples)
            entries.append(ManifestEntry(lb_path=lb_name, ub_path=ub_name, case3=class_id))
    manifest = Manifest(
        entries=tuple(entries),
        source="Synthetic",
        root=out_dir,
        config={
            "n_per_class": n_per_class,
            "seed_data": seed,
            "length": length,
            "frame_size": DEFAULT_FRAME_SIZE,
        },
    )
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest


# ---------------------------------------------------------------------------
# Band-file writing: each sample as its nearest 17-significant-digit decimal.
#
# A sample x with 1e-4 <= |x| < 1e16, in [10**e, 10**(e + 1)), is written in
# fixed notation without Python objects: |x| * 10**(16 - e) splits exactly
# (Dekker's product) into a 17-digit integer m and a remainder r, and m
# rounds up where r >= 0.5. The decimal is within 0.5 * 10**(e - 16) of x,
# below 2**-54 * 10**e, half the gap below any double in that decade, so a
# correctly rounded parse reads x back. ``repr`` writes the rest one value
# at a time: exponent form, zeros, subnormals and non-finite values.
# ---------------------------------------------------------------------------

_WRITE_VALUES = 1 << 12  # samples formatted at a time, under 1 MB of temporaries
# Built from Python numbers, so importing the module runs no numpy kernel.
_DOUBLE_POW10 = np.array([float(10**i) for i in range(23)])  # exact as doubles
_INT_POW10 = np.array([10**i for i in range(18)], dtype=np.int64)
_VELTKAMP = float(2**27 + 1)  # splits a double into two halves of 26 bits
_DOUBLE_POW10_HIGH = np.array([_VELTKAMP * p - (_VELTKAMP * p - p) for p in _DOUBLE_POW10.tolist()])
_DOUBLE_POW10_LOW = np.array([p - h for p, h in zip(_DOUBLE_POW10.tolist(), _DOUBLE_POW10_HIGH.tolist())])
_SIGN4 = np.frombuffer(b"\0\0\0" b"0" b"\0-\0" b"0", dtype=np.uint32)  # by x < 0
_ROW = 28  # bytes per value: seven groups of four


@functools.cache
def _row_tables() -> tuple[np.ndarray, ...]:
    """The four ASCII digits of 0..9999 as one group each, and three output-row
    masks by decimal exponent e in -4..15; built on the first write, so a
    process that only reads band files never holds them.

    A source row holds the sign at byte 1, '0000' at bytes 3-6 and digit i
    of m at byte 7 + i. Output byte c takes source byte c + 1 for the integer
    part (c <= 6 + e; for e < 0 the single '0' at 6 + e), is '.' at 7 + e,
    takes source byte c for the fraction up to m's last digit, and ends the
    row with ','. Zero bytes are deleted.
    """
    digits4 = bytes(itertools.chain.from_iterable(itertools.product(b"0123456789", repeat=4)))
    layouts = (
        lambda e: b"\xff" + bytes(5 + min(e, 0)) + b"\xff" * (1 + max(e, 0)) + bytes(_ROW - 7 - e),
        lambda e: bytes(8 + e) + b"\xff" * (16 - e) + bytes(_ROW - 24),
        lambda e: bytes(7 + e) + b"." + bytes(_ROW - 9 - e) + b",",
    )
    return (np.frombuffer(digits4, np.uint32),) + tuple(
        np.frombuffer(b"".join(map(row, range(-4, 16))), np.uint8).reshape(-1, _ROW) for row in layouts
    )


def _write_segment_file(path: Path, samples: np.ndarray) -> None:
    """Write the samples as comma-separated decimals and a newline, each of
    which reads back as its sample, the same bytes on every platform,
    ``_WRITE_VALUES`` samples at a time."""
    samples = np.asarray(samples, dtype=np.float64)
    with open(path, "wb") as fh:
        for start in range(0, samples.size, _WRITE_VALUES):
            text = _format_values(samples[start : start + _WRITE_VALUES])
            fh.write(text if start + _WRITE_VALUES < samples.size else memoryview(text)[:-1])
        fh.write(b"\n")


def _format_values(x: np.ndarray) -> bytes:
    """The decimal of each value, each followed by a comma."""
    digits4, keep_left, keep_right, punct = _row_tables()
    m, e, fixed = _seventeen_digits(np.abs(x))
    groups = np.zeros(x.size * 7 + 1, np.uint32)  # the spare group ends the shifted view
    rows = groups[:-1].reshape(-1, 7)
    rows[:, 0] = _SIGN4[(x < 0).view(np.uint8)]
    high = m // _INT_POW10[8]  # digits 0-8
    rows[:, 1] = digits4[high // _INT_POW10[8]]
    for col, part in ((2, high % _INT_POW10[8]), (4, m - high * _INT_POW10[8])):
        quad = part // 10000
        rows[:, col] = digits4[quad]
        rows[:, col + 1] = digits4[part - quad * 10000]
    source, size = groups.view(np.uint8), x.size * _ROW
    key = e + 4
    text = np.take(keep_left, key, axis=0)
    flat = text.reshape(-1)
    flat &= source[1 : size + 1]
    part = np.take(keep_right, key, axis=0).reshape(-1)
    part &= source[:size]
    flat |= part
    flat |= np.take(punct, key, axis=0).reshape(-1)
    for i in np.flatnonzero(~fixed).tolist():
        text[i] = np.frombuffer(f"{float(x[i])!r},".encode().ljust(_ROW, b"\0"), np.uint8)
    return text.tobytes().translate(None, b"\0")


def _seventeen_digits(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """The nearest 17-significant-digit decimal to each |x| = a, as (m, e, fixed).

    The decimal is m * 10**(e - 16), with 10**16 <= m < 10**17. Where
    ``fixed`` is false, repr must write the value instead.
    """
    fixed = (a >= 1e-4) & (a < 1e16)
    v = np.where(fixed, a, 1.5)  # a stand-in keeps the arithmetic finite
    e = np.floor(np.log10(v)).astype(np.int64)
    m, r = _scaled_by_pow10(v, 16 - e)
    # log10 may round across a power of ten: bring m into [10**16, 10**17).
    off = (m >= _INT_POW10[17]).astype(np.int64) - (m < _INT_POW10[16])
    redo = np.flatnonzero(off)
    if redo.size:
        e[redo] += off[redo]
        m[redo], r[redo] = _scaled_by_pow10(v[redo], 16 - e[redo])
    # No double below 10**(e + 1) lies within 8 last-digit units of it, so
    # rounding up never reaches 10**17.
    m += r >= 0.5
    return m, e, fixed


def _scaled_by_pow10(v: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v * 10**k as an int64 integer part and a remainder in [0, 1].

    Dekker's product gives v * 10**k exactly as hi + lo; hi is an integer
    (at least 2**53) and only lo - floor(lo) rounds.
    """
    p = _DOUBLE_POW10[k]
    hi = v * p
    t = _VELTKAMP * v
    v_high = t - (t - v)
    v_low = v - v_high
    p_high, p_low = _DOUBLE_POW10_HIGH[k], _DOUBLE_POW10_LOW[k]
    lo = ((v_high * p_high - hi) + v_high * p_low + v_low * p_high) + v_low * p_low
    floor = np.floor(lo)
    return hi.astype(np.int64) + floor.astype(np.int64), lo - floor


# ---------------------------------------------------------------------------
# Labeled feature matrices and their binary cache.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix plus integer labels under one case, and the
    extraction settings that produced the features. A plain record:
    ``build_datasets`` makes finite rows and in-range labels, and
    ``load_features`` checks both."""

    features: np.ndarray
    labels: np.ndarray
    case: Case
    band_mode: BandMode
    extraction: Extraction = Extraction()

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def pool_workers(jobs: int, tasks: int) -> int:
    """Worker processes for a pool: min(jobs, tasks, CPUs), at least one."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def pool_map(fn, jobs: int, tasks: int, *iterables) -> Iterable:
    """``map(fn, *iterables)`` over ``tasks`` calls, in order: lazily in this
    process if ``pool_workers(jobs, tasks)`` is 1, else in that many workers.
    A jobs below 1 is a ConfigurationError."""
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    workers = pool_workers(jobs, tasks)
    if workers == 1:
        return map(fn, *iterables)
    with ProcessPoolExecutor(workers) as pool:
        return list(pool.map(fn, *iterables))


def extract_pair(
    lb_path,
    ub_path,
    modes,
    extraction: Extraction = Extraction(),
    name: str = "segment pair",
) -> dict[BandMode, np.ndarray]:
    """One feature row per band mode for one (lower, upper) band-file pair.

    Each band file a mode needs is parsed once, the lower band first;
    its samples are released before the upper band is read. A band whose
    boundary mean at the seam is degenerate joins at scale 1, with a
    warning naming the band. Failures surface as DataError naming ``name``.
    """
    framing = (extraction.frame_size, extraction.hop, extraction.window)
    try:
        lb = ub = None
        if any(Band.LOWER in mode.bands for mode in modes):
            lb = segment_spectrum(load_segment(lb_path), Band.LOWER, *framing).bins
        if any(Band.UPPER in mode.bands for mode in modes):
            ub = segment_spectrum(load_segment(ub_path), Band.UPPER, *framing).bins
        rows = {}
        for mode in modes:
            if mode is BandMode.CONCATENATED:
                try:
                    scale = compute_scaling_factor(lb, ub, extraction.q)
                except DegenerateSpectrumError as exc:
                    log.warning("%s: %s; falling back to scale 1", name, exc)
                    scale = 1.0
                rows[mode] = concatenate_bands(lb, ub, scale)
            else:
                rows[mode] = lb if mode is BandMode.LOWER_ONLY else ub
        return rows
    except (RfSentryError, OSError) as exc:
        raise DataError(f"feature extraction failed for {name}: {exc}") from exc


def build_datasets(
    manifest: Manifest,
    modes,
    case: Case,
    extraction: Extraction = Extraction(),
    jobs: int = 1,
) -> dict[BandMode, LabeledDataset]:
    """One dataset per band mode from a single pass over the manifest.

    Rows follow manifest order. Any failing entry aborts the build; rows
    are never silently skipped.
    """
    if not manifest.entries:
        raise InsufficientDataError("manifest has no entries")
    modes = tuple(modes)
    n = len(manifest.entries)
    features = {m: np.empty((n, m.feature_length(extraction)), dtype=np.float64) for m in modes}
    paths = [manifest.resolve(entry) for entry in manifest.entries]
    args = (
        [str(lb) for lb, _ in paths],
        [str(ub) for _, ub in paths],
        itertools.repeat(modes),
        itertools.repeat(extraction),
        [f"entry {i} ({entry.segment_id})" for i, entry in enumerate(manifest.entries)],
    )
    for index, row in enumerate(pool_map(extract_pair, jobs, n, *args)):
        for mode in modes:
            features[mode][index] = row[mode]
    labels = np.array([case.label(e.case3) for e in manifest.entries], dtype=np.int64)
    return {
        mode: LabeledDataset(
            features=features[mode],
            labels=labels,
            case=case,
            band_mode=mode,
            extraction=extraction,
        )
        for mode in modes
    }


def build_dataset(
    manifest: Manifest,
    band_mode: BandMode,
    case: Case,
    extraction: Extraction = Extraction(),
    jobs: int = 1,
) -> LabeledDataset:
    """Extract one feature row per manifest entry, in manifest order."""
    return build_datasets(manifest, (band_mode,), case, extraction, jobs)[band_mode]


_FEATURES_MAGIC = b"RFDS"
_FEATURES_VERSION = 2
_FEATURES_HEADER = struct.Struct("<4sHBBBIIIII")


def save_features(dataset: LabeledDataset, path) -> None:
    """Write the dataset to the binary feature container (little-endian)."""
    band_code, window_code, *settings = layout_codes(dataset.band_mode, dataset.extraction)
    header = _FEATURES_HEADER.pack(
        _FEATURES_MAGIC,
        _FEATURES_VERSION,
        dataset.case.value,
        band_code,
        window_code,
        dataset.n_rows,
        dataset.n_features,
        *settings,
    )
    labels = np.ascontiguousarray(dataset.labels, dtype="<u2").tobytes()
    payload = np.ascontiguousarray(dataset.features, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(labels)
        fh.write(payload)


def load_features(path) -> LabeledDataset:
    """Read a feature container; the round-trip is bit-exact.

    A non-finite feature is a ShapeError, a label outside the case a SchemaError."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < _FEATURES_HEADER.size:
        raise FormatError(f"{path}: feature container is truncated")
    magic, version, case_value, band_code, window_code, n_rows, n_cols, frame_size, hop, q = (
        _FEATURES_HEADER.unpack_from(buf, 0)
    )
    if magic != _FEATURES_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {_FEATURES_MAGIC!r}")
    if version != _FEATURES_VERSION:
        raise FormatError(f"{path}: unsupported feature container version {version}")
    try:
        case = Case(case_value)
    except ValueError:
        raise FormatError(f"{path}: bad case code {case_value} in header") from None
    band_mode, extraction = decode_layout(path, band_code, window_code, frame_size, hop, q)
    width = band_mode.feature_length(extraction)
    if n_cols != width:
        raise FormatError(
            f"{path}: {n_cols or 'no'} feature columns, but a {band_mode.value}-band "
            f"cache at frame size {extraction.frame_size} has {width}"
        )
    expected = _FEATURES_HEADER.size + 2 * n_rows + 8 * n_rows * n_cols
    if len(buf) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes for {n_rows}x{n_cols}, found {len(buf)}"
        )
    offset = _FEATURES_HEADER.size
    labels = np.frombuffer(buf, dtype="<u2", count=n_rows, offset=offset).astype(np.int64)
    offset += 2 * n_rows
    features = (
        np.frombuffer(buf, dtype="<f8", count=n_rows * n_cols, offset=offset)
        .reshape(n_rows, n_cols)
        .copy()
    )
    if not np.isfinite(features).all():
        raise ShapeError("features contain non-finite values")
    if labels.size and labels.max() >= case.n_classes:
        raise SchemaError(f"labels out of range for the {case.n_classes}-class case")
    return LabeledDataset(
        features=features,
        labels=labels,
        case=case,
        band_mode=band_mode,
        extraction=extraction,
    )
