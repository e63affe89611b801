"""Unit tests for the ``.ckpt`` envelope and plain-tree validation."""

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    tree_equal,
    validate_tree,
)
from repro.checkpoint.serialize import MAGIC, dumps, loads


SAMPLE = {
    "format": "repro-checkpoint-v1",
    "nested": {"a": 1, "b": [1.5, "x", None, True]},
    "tuples": (1, (2, 3), "end"),
    "blob": b"\x00\xff",
    "array": np.arange(12, dtype=np.int64).reshape(3, 4),
}


def test_roundtrip_preserves_types(tmp_path):
    path = tmp_path / "t.ckpt"
    size = save_checkpoint(SAMPLE, path)
    assert size == path.stat().st_size
    tree = load_checkpoint(path)
    assert tree_equal(tree, SAMPLE)
    # tuples must come back as tuples, not lists
    assert isinstance(tree["tuples"], tuple)
    assert isinstance(tree["tuples"][1], tuple)
    assert tree["array"].dtype == np.int64


def test_validate_tree_normalises_numpy_scalars():
    tree = validate_tree({"i": np.int64(7), "f": np.float64(0.5),
                          "b": np.bool_(True)})
    assert type(tree["i"]) is int
    assert type(tree["f"]) is float
    assert type(tree["b"]) is bool


def test_validate_tree_rejects_non_plain_values():
    with pytest.raises(CheckpointError):
        validate_tree({"bad": object()})
    with pytest.raises(CheckpointError):
        validate_tree({"bad": {1: "non-string key"}})
    with pytest.raises(CheckpointError):
        validate_tree({"bad": lambda: None})


def test_validate_tree_copies_containers():
    arr = np.zeros(4)
    src = {"xs": [1, 2], "arr": arr}
    out = validate_tree(src)
    src["xs"].append(3)
    arr[0] = 9.0
    assert out["xs"] == [1, 2]
    assert out["arr"][0] == 0.0


def test_tampered_payload_fails_checksum(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(SAMPLE, path)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01
    with pytest.raises(CheckpointError, match="checksum"):
        loads(bytes(blob))


def test_truncated_and_wrong_magic_are_clean_errors(tmp_path):
    blob = dumps({"format": "x"})
    with pytest.raises(CheckpointError, match="truncated"):
        loads(blob[:10])
    with pytest.raises(CheckpointError, match="truncated"):
        loads(blob[:-5])
    bad = b"NOTACKPT" + blob[len(MAGIC):]
    with pytest.raises(CheckpointError, match="magic"):
        loads(bad)


def test_newer_format_version_is_rejected():
    blob = bytearray(dumps({"format": "x"}))
    blob[8] = 0xFF  # bump the little-endian u16 version field
    with pytest.raises(CheckpointError, match="newer"):
        loads(bytes(blob))


def test_version_zero_is_rejected():
    blob = bytearray(dumps({"format": "x"}))
    blob[8:10] = b"\x00\x00"  # no envelope was ever written as v0
    with pytest.raises(CheckpointError, match="v0 is unknown"):
        loads(bytes(blob))


def test_missing_file_is_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_save_is_atomic_no_tmp_left_behind(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(SAMPLE, path)
    save_checkpoint(SAMPLE, path)  # overwrite goes through the same dance
    assert [p.name for p in tmp_path.iterdir()] == ["t.ckpt"]


def test_tree_equal_distinguishes_shapes():
    assert tree_equal({"a": (1, 2)}, {"a": (1, 2)})
    assert not tree_equal({"a": (1, 2)}, {"a": [1, 2]})
    assert not tree_equal({"a": np.zeros(3)}, {"a": np.zeros(4)})
    assert tree_equal(np.zeros(3), np.zeros(3))
    assert not tree_equal(1, 1.0)
