"""Property tests for the input boundaries: any input either loads or
raises an RfSentryError subclass, never another exception type."""

import contextlib
import io
import json
import math
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from rfsentry import dataset, gbdt
from rfsentry.cli import main
from rfsentry.dataset import load_features, load_manifest, load_segment
from rfsentry.errors import InsufficientDataError, ParseError, RfSentryError
from rfsentry.spectrum import Extraction

BOUNDARY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)
manifests = st.fixed_dictionaries(
    {
        "source": st.sampled_from(["Synthetic", "DroneRF"]) | json_values,
        "entries": st.lists(
            st.fixed_dictionaries(
                {"lb_path": json_values, "ub_path": json_values, "label": json_values}
            ),
            max_size=3,
        )
        | json_values,
    }
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@BOUNDARY
@given(data=st.binary(max_size=256))
def test_band_file_bytes(scratch, data):
    path = scratch / "band.csv"
    path.write_bytes(data)
    with contextlib.suppress(RfSentryError):
        load_segment(path)


@BOUNDARY
@given(data=st.binary(max_size=256))
def test_manifest_bytes(scratch, data):
    path = scratch / "manifest.json"
    path.write_bytes(data)
    with contextlib.suppress(RfSentryError):
        load_manifest(path)


@BOUNDARY
@given(payload=manifests)
def test_manifest_json(scratch, payload):
    path = scratch / "manifest.json"
    path.write_text(json.dumps(payload))
    with contextlib.suppress(RfSentryError):
        load_manifest(path)


separators = st.lists(st.sampled_from([",", " ", "\t", "\r\n", "\n"]), min_size=1, max_size=3).map(
    "".join
)
chunk_sizes = st.sampled_from([1, 2, 3, 7, 64, dataset._CHUNK_BYTES])


@BOUNDARY
@given(
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
    data=st.data(),
    chunk_bytes=chunk_sizes,
)
def test_band_file_round_trip(scratch, values, data, chunk_bytes):
    seps = data.draw(st.lists(separators, min_size=len(values) + 1, max_size=len(values) + 1))
    # Separators before the first and after the last value are optional.
    seps[0] = data.draw(st.sampled_from(["", seps[0]]))
    seps[-1] = data.draw(st.sampled_from(["", seps[-1]]))
    text = seps[0] + "".join(repr(v) + sep for v, sep in zip(values, seps[1:]))
    path = scratch / "band.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(dataset, "_CHUNK_BYTES", chunk_bytes):
        samples = load_segment(path)
    assert samples.tobytes() == np.array(values, dtype=np.float64).tobytes()


def reference_parse(text):
    """The band-file grammar spelled out: split on commas and whitespace, float() each token."""
    tokens = [(m.group(), text.count("\n", 0, m.start()) + 1) for m in re.finditer(r"[^,\s]+", text)]
    values = []
    for offset, (token, line) in enumerate(tokens, start=1):
        try:
            values.append(float(token))
        except ValueError:
            return f"invalid numeric token {token!r} at offset {offset} (line {line})"
    for offset, ((token, line), value) in enumerate(zip(tokens, values), start=1):
        if not math.isfinite(value):
            return f"non-finite sample {token!r} at offset {offset} (line {line})"
    return np.array(values, dtype=np.float64)


@BOUNDARY
@given(text=st.text(alphabet="0123456789+-.eEnaif, \n", max_size=40), chunk_bytes=chunk_sizes)
def test_band_file_matches_reference(scratch, text, chunk_bytes):
    path = scratch / "band.csv"
    path.write_bytes(text.encode())
    expected = reference_parse(text)
    with mock.patch.object(dataset, "_CHUNK_BYTES", chunk_bytes):
        if isinstance(expected, str):
            with pytest.raises(ParseError) as info:
                load_segment(path)
            assert str(info.value) == f"{path}: {expected}"
        elif expected.size == 0:
            with pytest.raises(InsufficientDataError):
                load_segment(path)
        else:
            assert load_segment(path).tobytes() == expected.tobytes()


def assert_fast_parse_matches(block):
    """The fast path returns exactly what _parse_piece returns: None, or the same bits."""
    expected, got = dataset._parse_piece(block), dataset._parse_fast(block)
    assert (got is None) == (expected is None)
    if expected is not None:
        assert got.tobytes() == expected.tobytes()


needs_fast_parse = pytest.mark.skipif(
    not dataset._FAST_PARSE, reason="long double here is not x87 extended precision"
)
WRITERS = {
    "repr": lambda v, k: repr(v),
    "%.17g": lambda v, k: "%.17g" % v,
    "%.kf": lambda v, k: f"%.{k}f" % v,
    "%.18e": lambda v, k: "%.18e" % v,
    "float32": lambda v, k: str(np.float32(v)) if abs(v) < 3e38 else repr(v),
}


@needs_fast_parse
@BOUNDARY
@given(text=st.text(alphabet="0123456789.-+eEnaif ", max_size=60))
def test_fast_parse_matches_piece_on_text(text):
    assert_fast_parse_matches(text.encode())


@needs_fast_parse
@BOUNDARY
@given(
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30),
    writer=st.sampled_from(sorted(WRITERS)),
    places=st.integers(0, 25),
)
def test_fast_parse_matches_piece_on_written_floats(values, writer, places):
    tokens = [WRITERS[writer](v, places) for v in values]
    assert_fast_parse_matches(" ".join(tokens).encode() + b" ")


# One chunk mixing every kind of token: written floats, integers, decimals of
# up to 400 integer digits (beyond the float64 range), signs, odd shapes.
mixed_tokens = st.one_of(
    st.builds(lambda w, v: WRITERS[w](v, 3), st.sampled_from(sorted(WRITERS)), st.floats()),
    st.integers(-(10**25), 10**25).map(str),
    st.builds(lambda sign, zeros, frac: f"{sign}1{'0' * zeros}.{frac}",
              st.sampled_from(["", "-"]), st.integers(0, 400), st.text("0123456789", max_size=25)),
    st.sampled_from(["+1.5", "+.5", "5.", ".5", "-.5", "-0.0", "1e400", "--1.0", "1.2.3", "-", "."]),
)


@needs_fast_parse
@BOUNDARY
@given(tokens=st.lists(mixed_tokens, max_size=40), tail=st.sampled_from(["", " "]))
def test_fast_parse_matches_piece_on_mixed_tokens(tokens, tail):
    assert_fast_parse_matches((" ".join(tokens) + tail).encode())


@st.composite
def seventeen_digit_ties(draw):
    """A double halfway between two 17-digit decimals, or one ulp from it.

    o / 2**k is exact and equals o * 5**k / 10**k, whose 18 digits end in 5
    when o is odd and o * 5**k lies in [10**17, 10**18)."""
    k = draw(st.integers(2, 24))
    low, high = -(-(10**17) // 5**k), min(10**18 // 5**k, 1 << 53)
    odd = 2 * draw(st.integers(low // 2, (high - 2) // 2)) + 1
    tie = math.ldexp(odd, -k)
    return draw(st.sampled_from([tie, math.nextafter(tie, -math.inf), math.nextafter(tie, math.inf)]))


EDGE_VALUES = [0.0, 5e-324, 2.2250738585072014e-308, 1e-4, 1e16, 0.125, 2.675, 0.1, 1.7976931348623157e308]
EDGE_VALUES += [math.nextafter(v, math.inf) for v in (1e-4, 1e16)]
EDGE_VALUES += [math.nextafter(v, 0.0) for v in (1e-4, 1e16)]
written_values = st.builds(
    lambda value, negative: -value if negative else value,
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(EDGE_VALUES),
        st.integers(-1074, 1023).map(lambda p: math.ldexp(1.0, p)),
        st.integers(0, 1 << 60).map(float),
        st.integers(0, 10**8).map(lambda i: i / 1000),
        seventeen_digit_ties(),
    ),
    st.booleans(),
)


@BOUNDARY
@given(values=st.lists(written_values, max_size=40), chunk=st.integers(1, 8))
def test_segment_writer_writes_repr(scratch, values, chunk):
    samples = np.array(values, dtype=np.float64)
    path = scratch / "written.csv"
    with mock.patch.object(dataset, "_WRITE_VALUES", chunk):
        dataset._write_segment_file(path, samples)
    assert path.read_bytes() == (",".join(map(repr, values)) + "\n").encode()


LOADERS = {"rfds": load_features, "rfgb": gbdt.load_model}


@pytest.fixture(scope="module")
def valid_containers(scratch):
    """One small valid feature cache and model, as bytes."""
    ds = dataset.LabeledDataset(
        features=np.arange(12.0).reshape(3, 4),
        labels=[0, 1, 0],
        case=dataset.Case.I,
        band_mode=dataset.BandMode.LOWER_ONLY,
        extraction=Extraction(frame_size=8, q=2),
    )
    dataset.save_features(ds, scratch / "valid.rfds")
    config = gbdt.TrainConfig(n_rounds=2, max_depth=2, min_child_weight=0.0, n_classes=3)
    x = np.arange(24.0).reshape(8, 3)
    model = gbdt.train(x, np.arange(8) % 3, config)
    model.band_mode, model.extraction = dataset.BandMode.CONCATENATED, Extraction(frame_size=4, q=2)
    gbdt.save_model(model, scratch / "valid.rfgb")
    return {kind: (scratch / f"valid.{kind}").read_bytes() for kind in LOADERS}


def mutated(valid, tail, edits, cut):
    """The valid magic and version then arbitrary bytes, or the valid file
    with bytes overwritten and the last ``cut`` removed."""
    if tail is not None:
        return valid[:6] + tail
    data = bytearray(valid[: len(valid) - cut])
    for position, value in edits:
        if data:
            data[position % len(data)] = value
    return bytes(data)


mutations = {
    "tail": st.none() | st.binary(max_size=256),
    "edits": st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=6),
    "cut": st.integers(0, 64),
}


# Where the model header's band code, window code, frame size, hop and q start.
LAYOUT_AT = struct.calcsize("<4sHididddi")


@pytest.mark.parametrize("kind", sorted(LOADERS))
@BOUNDARY
@given(**mutations)
@example(tail=None, edits=[(LAYOUT_AT, 3)], cut=0)  # band code 3
@example(tail=None, edits=[(LAYOUT_AT + 1, 2)], cut=0)  # window code 2
@example(tail=None, edits=[(LAYOUT_AT + 2, 3)], cut=0)  # frame size 3, from 4
@example(tail=None, edits=[(LAYOUT_AT + 6, 0)], cut=0)  # hop 0, from 4
def test_container_bytes(scratch, valid_containers, kind, tail, edits, cut):
    path = scratch / f"container.{kind}"
    path.write_bytes(mutated(valid_containers[kind], tail, edits, cut))
    with contextlib.suppress(RfSentryError):
        LOADERS[kind](path)


@pytest.fixture(scope="module")
def cli_containers(scratch):
    """A 12-row lower-band case-1 cache at frame size 8 and a model trained on it."""
    ds = dataset.LabeledDataset(
        features=np.random.default_rng(3).uniform(size=(12, 4)),
        labels=np.arange(12) % 2,
        case=dataset.Case.I,
        band_mode=dataset.BandMode.LOWER_ONLY,
        extraction=Extraction(frame_size=8, q=2),
    )
    dataset.save_features(ds, scratch / "cli.rfds")
    config = gbdt.TrainConfig(n_rounds=2, max_depth=2, min_child_weight=0.0, n_classes=2)
    model = gbdt.train(ds.features, ds.labels, config)
    model.band_mode, model.extraction = ds.band_mode, ds.extraction
    gbdt.save_model(model, scratch / "cli.rfgb")
    return {kind: scratch / f"cli.{kind}" for kind in LOADERS}


CLI_TRAIN = ["--rounds", "2", "--max-depth", "2", "--min-child-weight", "0"]


@pytest.mark.parametrize("command", ["cv", "train", "predict"])
@BOUNDARY
@given(**mutations)
def test_cli_on_mutated_containers(scratch, cli_containers, command, tail, edits, cut):
    """cv and train on a mutated cache, predict with a mutated model:
    exit 0, 2 or 3, an ``error:`` line when not 0, never a traceback."""
    kind = "rfgb" if command == "predict" else "rfds"
    path = scratch / f"mutated.{kind}"
    path.write_bytes(mutated(cli_containers[kind].read_bytes(), tail, edits, cut))
    out = scratch / "mutated.out"
    argv = {
        "cv": ["cv", "--features", str(path), "--k-folds", "2", *CLI_TRAIN],
        "train": ["train", "--features", str(path), *CLI_TRAIN],
        "predict": ["predict", "--model", str(path), "--features", str(cli_containers["rfds"])],
    }[command]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    event(f"exit {code}")
    assert code in (0, 2, 3)
    assert "Traceback" not in stderr.getvalue()
    if code:
        assert any(line.startswith("error: ") for line in stderr.getvalue().splitlines())


PAIR_SAMPLES = 4096


@pytest.fixture(scope="module")
def one_pair_manifest(scratch):
    """A one-entry manifest over two 4096-sample band files."""
    rng = np.random.default_rng(40)
    for band in ("lb", "ub"):
        values = rng.normal(size=PAIR_SAMPLES).tolist()
        (scratch / f"pair_{band}.csv").write_text(",".join(map(repr, values)))
    path = scratch / "pair.json"
    entry = {"lb_path": "pair_lb.csv", "ub_path": "pair_ub.csv", "label": 3}
    path.write_text(json.dumps({"source": "Synthetic", "entries": [entry]}))
    return path


def settings_rejected(frame_size, hop, q, window):
    """The extraction settings rule spelled out."""
    power_of_two = frame_size >= 1 and bin(frame_size).count("1") == 1
    return not (
        power_of_two
        and 2 <= frame_size <= 1 << 20
        and (hop is None or hop >= 1)
        and 1 <= q <= frame_size // 2
        and window in ("rectangular", "hann")
    )


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    frame_size=st.integers(0, 21).map(lambda k: 1 << k) | st.integers(-2, 1 << 21),
    hop=st.none() | st.integers(1, 1 << 13) | st.integers(-2, 1 << 13),
    q=st.integers(1, 16) | st.integers(-2, 1 << 21),
    window=st.sampled_from(["rectangular", "hann"]) | st.text(max_size=8),
    band=st.sampled_from(["lower", "upper", "both"]),
)
@example(frame_size=2048, hop=None, q=8, window="rectangular", band="both")
@example(frame_size=4096, hop=1, q=2048, window="hann", band="both")
@example(frame_size=8192, hop=8192, q=1, window="hann", band="lower")
@example(frame_size=1 << 20, hop=1, q=1 << 19, window="rectangular", band="both")
@example(frame_size=1 << 21, hop=1, q=1, window="rectangular", band="upper")
@example(frame_size=2, hop=0, q=1, window="rectangular", band="lower")
@example(frame_size=2048, hop=1, q=1025, window="hann", band="lower")
def test_features_exit_code_follows_settings_rule(
    scratch, one_pair_manifest, frame_size, hop, q, window, band
):
    out = scratch / "settings.rfds"
    out.unlink(missing_ok=True)
    argv = ["features", "--manifest", str(one_pair_manifest), "--band", band, "--case", "3"]
    argv += [f"--frame-size={frame_size}", f"--q={q}", f"--window={window}", f"--out={out}"]
    argv += [] if hop is None else [f"--hop={hop}"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an unknown --window
            code = exc.code
    event(f"exit {code}")
    assert "Traceback" not in stderr.getvalue()
    if settings_rejected(frame_size, hop, q, window):
        assert code == 2
        assert not out.exists()
    else:
        assert code == (3 if frame_size > PAIR_SAMPLES else 0)
        assert out.exists() == (code == 0)


def reference_tree(x, g, h, config):
    """Exact greedy growth spelled out in Python, as [feature, threshold, value, right] rows.

    Every feature and every midpoint between consecutive distinct values
    of the node's rows is tried in increasing order, and only a strictly
    better score replaces the best, so ties keep the lowest feature, then
    the lowest threshold. Candidates are ranked by the one term of the
    gain that depends on them, computed with the same expression as the
    gain, so equal inputs give equal bits.
    """
    lam, mcw = config.reg_lambda, config.min_child_weight
    nodes = []

    def grow(rows, depth):
        g_total = sum(g[r] for r in rows)
        h_total = sum(h[r] for r in rows)
        best = None
        for f in range(x.shape[1] if depth < config.max_depth else 0):
            values = sorted({x[r, f] for r in rows})
            for lo, hi in zip(values, values[1:]):
                threshold = 0.5 * (lo + hi)
                left = [r for r in rows if x[r, f] < threshold]
                gl = sum(g[r] for r in left)
                hl = sum(h[r] for r in left)
                gr, hr = g_total - gl, h_total - hl
                if not (threshold > lo and min(hl, hr) >= mcw and min(hl, hr) + lam > 0):
                    continue
                score = gl * gl / (hl + lam) + gr * gr / (hr + lam)
                if best is None or score > best[0]:
                    right = [r for r in rows if x[r, f] >= threshold]
                    best = (score, f, threshold, left, right)
        if best is not None:
            score, f, threshold, left, right = best
            if 0.5 * (score - g_total * g_total / (h_total + lam)) - config.gamma > 0:
                node = len(nodes)
                nodes.append([f, threshold, 0.0, -1])
                grow(left, depth + 1)
                nodes[node][3] = len(nodes)
                grow(right, depth + 1)
                return
        # A leaf with no hessian mass and lambda = 0 gets 0, as in XGBoost.
        nodes.append([-1, 0.0, -g_total / (h_total + lam) if h_total + lam > 0 else 0.0, -1])

    grow(list(range(x.shape[0])), 0)
    return nodes


def small_integers(n, d):
    """(n, d) features from the integers 0-3."""
    return st.lists(st.integers(0, 3), min_size=n * d, max_size=n * d).map(
        lambda v: np.array(v, dtype=float).reshape(n, d)
    )


ULP_BASES = (0.0, 5e-324, 2.0**-1022, 1.0, 2.0, 1e16, 1e308)


def ulp_chains(bases):
    """(n, d) features whose values lie one ulp apart: each column picks one
    or two signed bases, and each entry is one of them moved by 0-3
    np.nextafter steps up or down. The bases give signed zeros, subnormals,
    binade edges, ulps above 1 and, from 1e308, neighbours whose sum overflows."""
    signed = [s * b for b in bases for s in (1.0, -1.0)]

    @st.composite
    def draw_features(draw, n, d):
        columns = []
        for _ in range(d):
            own = draw(st.lists(st.sampled_from(signed), min_size=1, max_size=2))
            start = np.array(draw(st.lists(st.sampled_from(own), min_size=n, max_size=n)))
            steps = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
            for k in range(3):
                start = np.where(steps > k, np.nextafter(start, np.inf), start)
                start = np.where(steps < -k, np.nextafter(start, -np.inf), start)
            columns.append(start)
        return np.stack(columns, axis=1)

    return draw_features


@st.composite
def split_problems(draw, features=small_integers):
    """By default few distinct values, so ties and repeats are common; g
    and h are small multiples of 1/4, so every sum of them is exact. A
    constant hessian makes splits of exactly half the mass common. Up to
    32 rows, so min_child_weight can rule out several sorted positions at
    each end of a node."""
    n = draw(st.integers(2, 32))
    d = draw(st.integers(1, 4))
    x = draw(features(n, d))
    g = np.array(draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))) / 4.0
    h_units = st.lists(st.integers(0, 8), min_size=n, max_size=n)
    h = np.array(draw(h_units | st.integers(1, 8).map(lambda u: [u] * n))) / 4.0
    # min_child_weight near half the root's hessian, where the h_total
    # prune and the last valid balanced split meet, or well below it.
    half = draw(st.sampled_from([0.0, 0.25, 0.5])) * h.sum()
    mcw = max(0.0, half + draw(st.sampled_from([-0.25, 0.0, 0.25])))
    config = gbdt.TrainConfig(
        max_depth=draw(st.integers(1, 4)),
        reg_lambda=draw(st.sampled_from([0.0, 1.0])),
        gamma=draw(st.sampled_from([0.0, 0.5])),
        min_child_weight=mcw,
    )
    return x, g, h, config


def assert_tree_matches_reference(x, g, h, config):
    expected = gbdt.Tree.from_rows(reference_tree(x, g, h, config))
    tree = gbdt.build_tree(x, g, h, config)
    for name in ("feature", "threshold", "value", "right"):
        assert getattr(tree, name).tobytes() == getattr(expected, name).tobytes(), name


@BOUNDARY
@given(problem=split_problems())
def test_build_tree_matches_exact_greedy_reference(problem):
    assert_tree_matches_reference(*problem)


@BOUNDARY
@given(problem=split_problems(ulp_chains(ULP_BASES[:-1])))
def test_build_tree_matches_exact_greedy_reference_one_ulp_apart(problem):
    # The reference forms 0.5 * (lo + hi), which overflows past 8.9e307.
    assert_tree_matches_reference(*problem)


@BOUNDARY
@given(data=st.data())
def test_presort_subset_equals_fresh_stable_sort(data):
    # Few distinct values, signed zeros among them, so most sorts break ties.
    n, d = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 4))
    values = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])
    x = np.array(data.draw(st.lists(values, min_size=n * d, max_size=n * d))).reshape(n, d)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    subset = gbdt.Presort.of(x).subset(mask)
    order = np.argsort(x[mask], axis=0, kind="stable")
    got, want = subset.rows, order.T
    assert got.dtype == want.dtype and got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    # Filtered ranks are not dense, so only where they rise must match.
    fresh = gbdt.Presort.of(x[mask]).ranks
    assert subset.ranks.dtype == fresh.dtype and subset.ranks.flags.c_contiguous
    np.testing.assert_array_equal(np.diff(subset.ranks, axis=1) > 0, np.diff(fresh, axis=1) > 0)


@BOUNDARY
@given(data=st.data())
def test_cut_ranks_rise_exactly_where_a_threshold_fits(data):
    # For consecutive sorted rows a <= b of any subset, the rank rises
    # exactly when b > a and the midpoint lies above a, as a threshold must.
    n, d = data.draw(st.integers(2, 32)), data.draw(st.integers(1, 3))
    x = data.draw(ulp_chains(ULP_BASES)(n, d))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    subset = gbdt.Presort.of(x).subset(mask)
    values = np.take_along_axis(x[mask], subset.rows.T, 0).T
    a, b = values[:, :-1], values[:, 1:]
    fits = (b > a) & (gbdt._midpoint(a, b) > a)
    np.testing.assert_array_equal(subset.ranks[:, 1:] > subset.ranks[:, :-1], fits)


@BOUNDARY
@given(data=st.data())
def test_train_on_a_presort_subset_equals_a_fresh_fit(data):
    # Values one ulp apart, where whether a gap holds a threshold depends on
    # rounding, filtered by a random mask as cross-validation filters folds.
    n, d = data.draw(st.integers(2, 32)), data.draw(st.integers(1, 3))
    x = data.draw(ulp_chains(ULP_BASES)(n, d))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    mask[data.draw(st.integers(0, n - 1))] = True
    k = data.draw(st.integers(2, 3))
    y = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    config = gbdt.TrainConfig(n_rounds=3, max_depth=3, min_child_weight=0.0, n_classes=k)
    got = gbdt.train(x[mask], y[mask], config, presort=gbdt.Presort.of(x).subset(mask))
    want = gbdt.train(x[mask], y[mask], config)
    for name in ("feature", "threshold", "value", "right"):
        assert getattr(got.forest, name).tobytes() == getattr(want.forest, name).tobytes(), name
    assert got.trees == want.trees


@st.composite
def uniform_nodes(draw):
    """A node of 1 to 64 rows that all carry one (g, h), over tie-heavy
    integer features, with arbitrary float g and h >= 0 so that sums round."""
    m, d = draw(st.integers(1, 64)), draw(st.integers(1, 3))
    x = np.array(draw(st.lists(st.integers(0, 3), min_size=m * d, max_size=m * d)), dtype=float)
    g = draw(st.floats(-4.0, 4.0))
    h = draw(st.just(0.0) | st.floats(0.0, 4.0))
    config = gbdt.TrainConfig(
        reg_lambda=draw(st.just(0.0) | st.floats(0.0, 2.0)),
        gamma=draw(st.just(0.0) | st.floats(0.0, 1.0)),
        min_child_weight=draw(st.just(0.0) | st.floats(0.0, 8.0)),
    )
    return x.reshape(m, d), np.full(m, g), np.full(m, h), config


def scan_uniform_node(x, g, h, config):
    """worth_scanning's verdict and the full scan's split of the node."""
    state = gbdt._ScanState(x, gbdt.Presort.of(x))
    g_total, h_total = float(g.sum()), float(h.sum())
    rule = state.worth_scanning(np.arange(x.shape[0]), g, h, g_total, h_total, config)
    return rule, state.best_split(state.root_rows, state.root_ranks, g, h, g_total, h_total, config)


@BOUNDARY
@given(node=uniform_nodes())
def test_uniform_node_rule_skips_only_nodes_without_a_split(node):
    rule, found = scan_uniform_node(*node)
    event(f"rule {'scans' if rule else 'skips'}, scan {'splits' if found else 'finds nothing'}")
    assert rule or found is None


def test_uniform_node_split_by_rounding_is_scanned():
    # In exact arithmetic a node whose rows share one (g, h) gains nothing
    # from any cut; with lambda = 0 rounding can make the gain positive,
    # and the scan takes that split, so the rule must let it.
    x = np.arange(3.0)[:, None]
    config = gbdt.TrainConfig(reg_lambda=0.0, gamma=0.0, min_child_weight=0.0)
    assert scan_uniform_node(x, np.full(3, 0.1), np.full(3, 0.3), config) == (True, (0, 0.5))


def floats_array(m, elements):
    return st.lists(elements, min_size=m, max_size=m).map(np.array)


def signed_powers_of_ten(m, lo, hi):
    """m floats +-10^e, e uniform in [lo, hi], so every magnitude between is drawn."""
    signs = floats_array(m, st.sampled_from([-1.0, 1.0]))
    return st.tuples(signs, floats_array(m, st.floats(lo, hi))).map(lambda se: se[0] * 10.0 ** se[1])


def near_ulps(m, value):
    """m copies of value, each moved by -3 to +3 ulp."""
    return floats_array(m, st.integers(-3, 3)).map(lambda k: value + k * np.spacing(value))


@st.composite
def gain_bound_nodes(draw, max_rows):
    """(g, h) of 2 to max_rows rows near the edge of the gain bound: one (g, h)
    moved by up to 3 ulp per row; g a ratio of h within 3 ulp (parallel rows
    of different lengths, which the angular order must rank); |g| down to
    1e-300 against h up to 10; or g and h of magnitudes up to 1e150."""
    m = draw(st.integers(2, max_rows))
    kind = draw(st.sampled_from(["uniform", "parallel", "tiny", "wide"]))
    if kind == "uniform":
        g = draw(near_ulps(m, draw(st.floats(-4.0, 4.0))))
        h = np.maximum(draw(near_ulps(m, draw(st.floats(0.0, 4.0)))), 0.0)
    elif kind == "parallel":
        h = draw(floats_array(m, st.floats(0.0, 10.0)))
        g = h * draw(near_ulps(m, draw(st.floats(-2.0, 2.0))))
    elif kind == "tiny":
        g = draw(signed_powers_of_ten(m, -300.0, 0.0))
        h = draw(floats_array(m, st.floats(0.0, 10.0)))
    else:
        g = draw(signed_powers_of_ten(m, -150.0, 150.0))
        h = np.abs(draw(signed_powers_of_ten(m, -150.0, 150.0))) * draw(st.sampled_from([0.0, 1.0]))
    event(kind)
    return g, h


@BOUNDARY
@given(node=gain_bound_nodes(24), data=st.data())
def test_gain_bound_prunes_only_nodes_without_a_split(node, data):
    g, h = node
    m, d = g.size, data.draw(st.integers(1, 3))
    x = np.array(data.draw(st.lists(st.integers(0, 3), min_size=m * d, max_size=m * d)), float)
    config = gbdt.TrainConfig(
        reg_lambda=data.draw(st.just(0.0) | st.floats(1e-8, 5.0)),
        gamma=data.draw(st.sampled_from([0.0, 1e-12, 0.1])),
        min_child_weight=data.draw(st.sampled_from([0.0, 1e-3, 1.0])),
    )
    state = gbdt._ScanState(x.reshape(m, d), gbdt.Presort.of(x.reshape(m, d)))
    args = (g, h, float(g.sum()), float(h.sum()), config)
    pruned = gbdt._cannot_gain(*args)
    found = state.best_split(state.root_rows, state.root_ranks, *args)
    event(f"bound {'prunes' if pruned else 'keeps'}, scan {'splits' if found else 'finds nothing'}")
    assert not (pruned and found is not None)


def every_cut(m):
    """(m, 2^(m-1) - 1) 0/1 features, one per way to cut m rows in two:
    feature j sends row i right of the threshold 0.5 when bit i of j + 1 is set."""
    cuts = np.arange(1, 2 ** (m - 1))
    return ((cuts >> np.arange(m)[:, None]) & 1).astype(np.float64)


@BOUNDARY
@given(node=gain_bound_nodes(12), lam=st.floats(1e-8, 5.0))
def test_gain_bound_peak_covers_every_cut(node, lam):
    g, h = node
    m = g.size
    x = every_cut(m)
    left = x.T == 0.0
    g_total, h_total = float(g.sum()), float(h.sum())
    gl, hl = left @ g, left @ h
    with np.errstate(all="ignore"):
        psi = gl * gl / (hl + lam) + (g_total - gl) ** 2 / (np.maximum(h_total - hl, 0.0) + lam)
        s_g = np.abs(g).sum()
        s = s_g + h_total
        slack = 2.0**-46 * (m + 2) * s * (s_g / lam) * (1.0 + s / lam)
    if not np.isfinite([psi.max(), slack]).all():
        return
    peak = gbdt._peak_score(g, h, g_total, h_total, lam)
    assert peak >= psi.max() - slack
    # A gamma just under the best cut's gain leaves that cut a sliver of
    # gain, which the scan over every cut takes; the bound must not prune.
    best = 0.5 * (psi.max() - g_total * g_total / (h_total + lam))
    config = gbdt.TrainConfig(reg_lambda=lam, gamma=max(best * (1 - 2.0**-20), 0.0), min_child_weight=0.0)
    state = gbdt._ScanState(x, gbdt.Presort.of(x))
    args = (g, h, g_total, h_total, config)
    found = state.best_split(state.root_rows, state.root_ranks, *args)
    assert not (gbdt._cannot_gain(*args) and found is not None)


@pytest.fixture(scope="module")
def argv_inputs(scratch):
    """Paths a drawn argument list may name: a 2-per-class corpus, a lower-band
    case-3 cache and a model trained on it, a corrupt file and a missing one.
    Each flag maps to (usual, unusual) values, as ARGV_POOLS does."""
    corpus = scratch / "argv_corpus"
    dataset.write_synthetic_corpus(corpus, n_per_class=2, seed=2, length=2048)
    cache, model = scratch / "argv.rfds", scratch / "argv.rfgb"
    manifest = corpus / "manifest.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["features", "--manifest", str(manifest), "--case", "3", "--out", str(cache)]) == 0
        assert main(["train", "--features", str(cache), "--rounds", "1", "--out", str(model)]) == 0
    corrupt = scratch / "argv_corrupt"
    corrupt.write_bytes(b"RFGB\x01\x00 0.5,1x5\n\xff")
    (scratch / "argv_dir").mkdir()
    inputs = {
        "--manifest": manifest,
        "--features": cache,
        "--model": model,
        "--lb": corpus / "07_001_lb.csv",
        "--ub": corpus / "07_001_ub.csv",
    }
    others = [*inputs.values(), corrupt, scratch / "argv_missing"]
    pools = {flag: ([path], [p for p in others if p != path]) for flag, path in inputs.items()}
    # Outputs never overwrite an input: a file, or a directory or a missing parent.
    pools["--out"] = ([scratch / "argv_out.json"], [scratch / "argv_dir", scratch / "argv_missing" / "o"])
    pools["--out-dir"] = ([scratch / "argv_synth"], [corrupt / "sub"])
    return {flag: tuple([str(p) for p in paths] for paths in pair) for flag, pair in pools.items()}


# (usual, unusual) values per flag. Flags that set the amount of work are
# always given, and no value of theirs is large; --jobs stays at most 2.
WORK_FLAGS = ("--n-per-class", "--length", "--rounds", "--max-depth", "--k-folds", "--jobs")
ARGV_POOLS = {
    "--n-per-class": (["1"], ["-1", "0"]),
    "--length": (["2048", "1024"], ["-5", "0", "100"]),
    "--rounds": (["1", "2"], ["-1", "0"]),
    "--max-depth": (["1", "2"], ["-1", "0"]),
    "--k-folds": (["2", "3"], ["-1", "0", "1", "100"]),
    "--jobs": (["1", "2"], ["-1", "0"]),
    "--seed-data": (["0", "1"], ["-1", str(1 << 64)]),
    "--case": (["3"], ["1", "2"]),
    "--band": (["lower", "both"], ["upper"]),
    "--frame-size": (["1024", "2048"], ["512", "4096", "3", "0", str(1 << 21)]),
    "--hop": (["1024"], ["256", "0", "-1"]),
    "--q": (["8"], ["1", "0", "100000"]),
    "--window": (["rectangular"], ["hann"]),
    "--eta": (["0.3", "1"], ["0", "-1", "nan", "inf"]),
    "--lambda": (["1", "0"], ["-1", "nan"]),
    "--gamma": (["0", "1"], ["-1", "inf"]),
    "--min-child-weight": (["0", "1"], ["-1", "nan"]),
    "--alpha": (["0.05"], ["0", "1", "nan"]),
}
EXTRACTION_FLAGS = ["--frame-size", "--hop", "--q", "--window"]
TRAINING_FLAGS = ["--rounds", "--eta", "--max-depth", "--lambda", "--gamma", "--min-child-weight"]
COMMAND_FLAGS = {
    "synth": ["--out-dir", "--n-per-class", "--seed-data", "--length"],
    "features": ["--manifest", "--band", "--case", *EXTRACTION_FLAGS, "--jobs", "--out"],
    "cv": ["--features", "--case", *TRAINING_FLAGS, "--k-folds", "--seed-data", "--jobs", "--out"],
    "compare": [
        "--manifest", "--case", *EXTRACTION_FLAGS, *TRAINING_FLAGS,
        "--k-folds", "--alpha", "--seed-data", "--jobs", "--out",
    ],
    "train": ["--features", "--case", *TRAINING_FLAGS, "--out"],
    "predict": ["--model", "--features", "--lb", "--ub", "--band", "--out"],
}
REQUIRED_FLAGS = ("--out-dir", "--manifest", "--case", "--out", "--model")
# Weighted coin flips: True in 3 of 4 and in 9 of 10 entries.
OFTEN = st.sampled_from([True, True, True, False])
NEARLY_ALWAYS = st.sampled_from([True] * 9 + [False])
# Tokens argparse itself rejects or acts on: a flag of another command, a
# flag given twice or without its value, a value of the wrong type, --help.
STRAY_TOKENS = sorted(ARGV_POOLS) + ["--out", "--help", "--version", "bogus"]


def draw_value(data, pools, flag):
    usual, unusual = pools[flag]
    return data.draw(st.sampled_from(usual if data.draw(OFTEN) else unusual))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_argument_lists(scratch, argv_inputs, data):
    """Any argument list, run through one process's main: an exit code of
    0, 2, 3 or 4, or argparse's SystemExit 0 or 2, never another exception;
    a run refused with 2 creates no file and no directory."""
    pools = {**ARGV_POOLS, **argv_inputs}
    command = data.draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    for flag in COMMAND_FLAGS[command]:
        required = flag in REQUIRED_FLAGS or (flag == "--features" and command != "predict")
        if flag in WORK_FLAGS or data.draw(NEARLY_ALWAYS if required else st.booleans()):
            argv += [flag, draw_value(data, pools, flag)]
    if not data.draw(OFTEN):
        for token in data.draw(st.lists(st.sampled_from(STRAY_TOKENS), min_size=1, max_size=2)):
            argv.append(token)
            if token in pools and data.draw(st.booleans()):
                argv.append(data.draw(st.sampled_from(["x", draw_value(data, pools, token)])))
    stderr = io.StringIO()
    before = set(scratch.rglob("*"))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            outcome = f"exit {main(argv)}"
        except SystemExit as exc:
            outcome = f"SystemExit {exc.code}"
    event(f"{command}: {outcome}")
    assert outcome in {"exit 0", "exit 2", "exit 3", "exit 4", "SystemExit 0", "SystemExit 2"}
    assert "Traceback" not in stderr.getvalue()
    if outcome in {"exit 2", "SystemExit 2"}:  # a refused run creates nothing
        assert set(scratch.rglob("*")) == before
