"""The partition-file codec: one writer, one reader, and every check.

:func:`~repro.storage.partition_store.write_columns` and
:func:`~repro.storage.partition_store.read_columns` own the on-disk
format.  A read must give what ``np.load`` gave for the same arrays saved
with ``np.savez_compressed`` — same dtypes, same bytes (NaN, ±inf and
−0.0 included), writable arrays — keep ``read_partition``'s projection
rule, and turn every truncation and every flipped byte into
``ValueError``, never into data.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.storage.partition_store import read_columns, write_columns

DTYPES = [np.dtype(code) for code in ("<i4", "<i8", "<f8", "|b1", "<U1", "<U6")]
NAMES = st.from_regex(r"c_[a-z0-9]{1,6}", fullmatch=True)


@st.composite
def tables(draw, max_len: int = 24) -> dict[str, np.ndarray]:
    names = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    return {
        name: draw(hnp.arrays(draw(st.sampled_from(DTYPES)), st.integers(0, max_len)))
        for name in names
    }


def np_load_of(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """What the ``.npz`` store read back for ``arrays``."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    buffer.seek(0)
    with np.load(buffer) as archive:
        return {name: archive[name] for name in archive.files}


def assert_round_trip(path, arrays: dict[str, np.ndarray], compress: bool) -> None:
    size = write_columns(path, arrays, compress)
    assert size == path.stat().st_size
    ours = read_columns(path)
    reference = np_load_of(arrays)
    assert list(ours) == list(reference) == list(arrays)
    for name, values in ours.items():
        assert values.dtype == reference[name].dtype
        assert values.shape == reference[name].shape
        assert values.tobytes() == reference[name].tobytes()
        assert values.flags.writeable
        values[:1] = values[:1]


@given(arrays=tables(), compress=st.booleans())
@settings(max_examples=150, deadline=None)
def test_round_trip_equals_np_load(tmp_path_factory, arrays, compress):
    assert_round_trip(tmp_path_factory.mktemp("codec") / "p.col", arrays, compress)


@pytest.mark.parametrize("compress", [True, False])
def test_special_values_and_empty_columns(tmp_path, compress):
    arrays = {
        "floats": np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324]),
        "ints": np.array([np.iinfo(np.int64).min, -1, 0, np.iinfo(np.int64).max]),
        "int32": np.array([np.iinfo(np.int32).min, 7], dtype=np.int32),
        "empty": np.zeros(0, dtype=np.int64),
        "flags": np.array([True, False, True]),
        "text": np.array(["", "ab", "héllo"]),
    }
    assert_round_trip(tmp_path / "p.col", arrays, compress)
    assert_round_trip(tmp_path / "none.col", {}, compress)
    assert read_columns(tmp_path / "none.col", set()) == {}


@given(arrays=tables(), compress=st.booleans(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_projection_rule(tmp_path_factory, arrays, compress, data):
    path = tmp_path_factory.mktemp("codec") / "p.col"
    write_columns(path, arrays, compress)
    held = list(arrays)
    requested = data.draw(st.sets(st.sampled_from([*held, "c_missing!"])))
    projected = read_columns(path, requested)
    expected = [name for name in held if name in requested] if requested else held[:1]
    assert list(projected) == expected
    full = read_columns(path)
    for name, values in projected.items():
        assert values.dtype == full[name].dtype
        assert values.tobytes() == full[name].tobytes()


def written(tmp_path, compress: bool) -> tuple:
    arrays = {
        "x": np.arange(6, dtype=np.int64),
        "y": np.linspace(0.0, 1.0, 6),
        "z": np.array(["a", "bc"] * 3),
    }
    path = tmp_path / "p.col"
    write_columns(path, arrays, compress)
    return path, path.read_bytes()


@pytest.mark.parametrize("compress", [True, False])
def test_every_truncation_raises(tmp_path, compress):
    path, data = written(tmp_path, compress)
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        for names in (None, ["x"], set()):
            with pytest.raises(ValueError):
                read_columns(path, names)
    path.write_bytes(data + b"\0")
    with pytest.raises(ValueError):
        read_columns(path, ["x"])


@pytest.mark.parametrize("compress", [True, False])
def test_every_flipped_byte_raises(tmp_path, compress):
    path, data = written(tmp_path, compress)
    for position in range(len(data)):
        damaged = bytearray(data)
        damaged[position] ^= 0xFF
        path.write_bytes(bytes(damaged))
        with pytest.raises(ValueError):
            read_columns(path)


@given(arrays=tables(), compress=st.booleans(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_random_damage_raises(tmp_path_factory, arrays, compress, data):
    path = tmp_path_factory.mktemp("codec") / "p.col"
    write_columns(path, arrays, compress)
    original = path.read_bytes()
    cut = data.draw(st.integers(0, len(original) - 1))
    path.write_bytes(original[:cut])
    with pytest.raises(ValueError):
        read_columns(path)
    damaged = bytearray(original)
    damaged[data.draw(st.integers(0, len(original) - 1))] ^= data.draw(st.integers(1, 255))
    path.write_bytes(bytes(damaged))
    with pytest.raises(ValueError):
        read_columns(path)


@pytest.mark.parametrize(
    "bad",
    [
        np.array([1, "x"], dtype=object),
        np.zeros((2, 2)),
        np.zeros(3, dtype=[("a", "<i4"), ("b", "<f8")]),
        np.zeros(3, dtype="V4"),
    ],
    ids=["object", "2-d", "structured", "void"],
)
def test_unsupported_columns_are_refused_at_write(tmp_path, bad):
    path = tmp_path / "p.col"
    with pytest.raises(ValueError, match="cannot store"):
        write_columns(path, {"ok": np.arange(3), "bad": bad}, True)
    assert not path.exists()


def test_legacy_archives_read_through_the_suffix_branch(tmp_path):
    arrays = {"x": np.arange(5, dtype=np.int64), "y": np.linspace(0.0, 1.0, 5)}
    path = tmp_path / "part-00000.npz"
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    full = read_columns(path)
    assert list(full) == ["x", "y"]
    for name, values in full.items():
        assert values.tobytes() == arrays[name].tobytes()
    assert list(read_columns(path, {"y", "nope"})) == ["y"]
    assert list(read_columns(path, set())) == ["x"]
    path.write_bytes(path.read_bytes()[:50])
    with pytest.raises(ValueError):
        read_columns(path)
