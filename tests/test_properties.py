"""Property tests for the input boundaries: any input either loads or
raises an RfSentryError subclass, never another exception type."""

import contextlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfsentry.dataset import load_manifest, load_segment
from rfsentry.errors import RfSentryError
from rfsentry.spectrum import Band

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
        load_segment(path, Band.LOWER)


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
