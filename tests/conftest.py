import math
from fractions import Fraction

import pytest

from rfsentry.dataset import write_synthetic_corpus


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """Six synthetic segments per class, shared across test modules."""
    out_dir = tmp_path_factory.mktemp("corpus")
    manifest = write_synthetic_corpus(out_dir, n_per_class=6, seed=11, length=4096)
    return manifest


_TENS = {e: Fraction(10) ** e for e in range(-21, 19)}


def _check_band_text(values, text: bytes) -> None:
    """The band-file writer's rule, token by token: a sample with
    1e-4 <= |x| < 1e16 is written in fixed notation with exactly 17
    significant digits, within half a unit of its last digit, 10**(e - 16)
    for x in [10**e, 10**(e + 1)), and reads back as x; any other is repr."""
    assert text.endswith(b"\n")
    body = text[:-1].decode("ascii")
    tokens = body.split(",") if body else []
    assert len(tokens) == len(values)
    for value, token in zip(values, tokens):
        if not 1e-4 <= abs(value) < 1e16:
            assert token == repr(value)
            continue
        whole, dot, fraction = token.removeprefix("-").partition(".")
        digits = (whole + fraction).lstrip("0")
        assert dot and (whole + fraction).isdigit() and len(digits) == 17, (value, token)
        exact = Fraction(value)
        e = math.floor(math.log10(abs(value)))
        e += (_TENS[e + 1] <= abs(exact)) - (abs(exact) < _TENS[e])
        assert abs(Fraction(token) - exact) <= _TENS[e - 16] / 2, (value, token)
        assert float(token) == value, (value, token)


@pytest.fixture(scope="session")
def check_band_text():
    """Checks the bytes of a written band file against the samples it holds."""
    return _check_band_text
