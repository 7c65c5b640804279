"""Property-based laws of the manifest's one shape.

Every manifest read from outside -- a store's ``manifest.json``, a
federation source's, a daemon's ``GET /manifest`` -- passes
:meth:`ShardManifest.from_json`.  Hypothesis drives two laws:

* a valid manifest survives ``to_json``/``from_json`` exactly, and
  ``save`` writes it back byte for byte;
* any single-field corruption of one entry is refused with the one
  typed :class:`~repro.store.errors.ManifestError`, naming the entry and
  the field -- never a ``KeyError``, ``TypeError`` or ``ValueError``.
"""

from __future__ import annotations

import copy
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instrument.sampling import SamplingPlan
from repro.store import ManifestError, ShardEntry, ShardManifest, plan_to_json
from repro.store.manifest import shard_filename

pytestmark = pytest.mark.property

SETTINGS = settings(max_examples=60, deadline=None)

hex64 = st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)
labels = st.text(min_size=1, max_size=12)
plans = st.sampled_from(
    [
        plan_to_json(SamplingPlan.full()),
        plan_to_json(SamplingPlan.uniform(0.01)),
        plan_to_json(SamplingPlan.per_site([0.5, 1.0, 0.01])),
    ]
)


@st.composite
def entries(draw, seed_start):
    n_runs = draw(st.integers(1, 10**6))
    return ShardEntry(
        seed_start=seed_start,
        n_runs=n_runs,
        num_failing=draw(st.integers(0, n_runs)),
        sha256=draw(hex64),
        source=draw(st.none() | labels),
    )


@st.composite
def manifests(draw, min_shards=0):
    seeds = draw(
        st.lists(st.integers(0, 10**9), min_size=min_shards, max_size=6, unique=True)
    )
    return ShardManifest(
        subject=draw(labels),
        table_sha=draw(hex64),
        config_sha=draw(hex64),
        plan=draw(plans),
        shards=[draw(entries(seed)) for seed in seeds],
    )


def _corruptions(entry: dict):
    """``(field, change)`` pairs: each breaks exactly one field of
    ``entry`` (``change`` maps the entry dict to its corrupted copy)."""

    def setting(key, value):
        return key, lambda e: {**e, key: value}

    def deleting(key):
        return key, lambda e: {k: v for k, v in e.items() if k != key}

    n_runs = entry["n_runs"]
    for key in ("filename", "n_runs", "num_failing", "seed_start", "sha256"):
        yield deleting(key)
    for key in ("n_runs", "num_failing", "seed_start"):
        for bad in (True, None, 1.0, str(entry[key]), [entry[key]]):
            yield setting(key, bad)
    for key in ("filename", "sha256", "source"):
        for bad in (None, 7, False, {"x": 1}):
            yield setting(key, bad)
    yield setting("n_runs", 0)
    yield setting("n_runs", -n_runs)
    yield setting("num_failing", -1)
    yield setting("num_failing", n_runs + 1)
    yield setting("seed_start", -1)
    yield setting("sha256", entry["sha256"].upper())
    yield setting("sha256", entry["sha256"][:-1])
    yield setting("sha256", entry["sha256"] + "0")
    yield setting("sha256", "g" * 64)
    yield setting("filename", "../elsewhere/x.npz")
    yield setting("filename", shard_filename(entry["seed_start"] + 1))
    yield setting("filename", os.path.join("sub", entry["filename"]))
    yield repr("extra"), lambda e: {**e, "extra": 1}


@SETTINGS
@given(manifest=manifests())
def test_round_trip_is_exact_and_byte_stable(manifest):
    document = json.loads(json.dumps(manifest.to_json()))
    parsed = ShardManifest.from_json(document)
    assert parsed == manifest
    assert parsed.to_json() == manifest.to_json()
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "manifest.json")
        manifest.save(path)
        with open(path, "rb") as fh:
            first = fh.read()
        ShardManifest.load(path).save(path)
        with open(path, "rb") as fh:
            assert fh.read() == first


@SETTINGS
@given(manifest=manifests(min_shards=1), data=st.data())
def test_single_field_corruption_is_one_typed_error(manifest, data):
    document = manifest.to_json()
    index = data.draw(st.integers(0, len(document["shards"]) - 1))
    entry = document["shards"][index]
    for key, change in _corruptions(entry):
        if change(entry) == entry:
            continue  # e.g. upper() of a digest that has no letters
        corrupted = copy.deepcopy(document)
        corrupted["shards"][index] = change(entry)
        with pytest.raises(ManifestError) as info:
            ShardManifest.from_json(json.loads(json.dumps(corrupted)))
        assert info.value.field == key, corrupted["shards"][index]
        assert info.value.entry is not None


@SETTINGS
@given(manifest=manifests(min_shards=1))
def test_repeated_entry_refused(manifest):
    document = manifest.to_json()
    document["shards"].append(dict(document["shards"][0]))
    with pytest.raises(ManifestError) as info:
        ShardManifest.from_json(document)
    assert (info.value.field, info.value.entry) == (
        "filename", repr(manifest.shards[0].filename)
    )
