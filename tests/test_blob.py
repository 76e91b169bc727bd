import numpy as np
import pytest

from tinymm.blob import (
    DTYPE_F32,
    DTYPE_I4,
    DTYPE_I8,
    Record,
    pack_i4,
    payload_size,
    read_blob,
    unpack_i4,
    write_blob,
)
from tinymm.errors import ChecksumMismatchError, ParseError, TinymmError


def test_i4_packing_low_nibble_first():
    raw = pack_i4(np.array([1, 2, -1, -8]))
    assert raw == bytes([0x21, 0x8F])
    assert unpack_i4(raw, 4).tolist() == [1, 2, -1, -8]


def test_i4_odd_count_pads_high_nibble():
    raw = pack_i4(np.array([7, -3, 5]))
    assert len(raw) == 2
    assert raw[1] >> 4 == 0
    assert unpack_i4(raw, 3).tolist() == [7, -3, 5]


def test_i4_range_check():
    with pytest.raises(ParseError):
        pack_i4(np.array([8]))


def test_blob_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    records = [
        Record("alpha.w", DTYPE_F32, (2, 3), rng.normal(size=6).astype(np.float32)),
        Record("beta.q", DTYPE_I8, (5,), rng.integers(-128, 128, size=5).astype(np.int32)),
        Record("gamma.q", DTYPE_I4, (3, 3), rng.integers(-8, 8, size=9).astype(np.int32)),
    ]
    path = tmp_path / "w.tmmw"
    write_blob(path, records)
    back = read_blob(path)
    assert set(back) == {"alpha.w", "beta.q", "gamma.q"}
    for rec in records:
        got = back[rec.name]
        assert got.dtype == rec.dtype
        assert got.shape == rec.shape
        assert np.array_equal(got.values.reshape(-1), np.asarray(rec.values).reshape(-1))


def test_blob_payload_sizes():
    recs = [
        Record("a", DTYPE_F32, (10,), np.zeros(10, dtype=np.float32)),
        Record("b", DTYPE_I8, (10,), np.zeros(10, dtype=np.int32)),
        Record("c", DTYPE_I4, (9,), np.zeros(9, dtype=np.int32)),
    ]
    assert payload_size(recs) == 40 + 10 + 5


def test_blob_crc_detects_corruption(tmp_path):
    path = tmp_path / "w.tmmw"
    write_blob(path, [Record("a", DTYPE_F32, (4,), np.ones(4, dtype=np.float32))])
    raw = bytearray(path.read_bytes())
    raw[-8] ^= 0xFF  # flip a payload byte
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumMismatchError):
        read_blob(path)


def test_blob_bad_magic_and_truncation(tmp_path):
    bad = tmp_path / "bad.tmmw"
    bad.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(ParseError):
        read_blob(bad)
    path = tmp_path / "w.tmmw"
    write_blob(path, [Record("a", DTYPE_F32, (4,), np.ones(4, dtype=np.float32))])
    trunc = tmp_path / "trunc.tmmw"
    trunc.write_bytes(path.read_bytes()[:-6])
    with pytest.raises(ParseError):
        read_blob(trunc)


def _small_blob(path):
    write_blob(path, [
        Record("a.w", DTYPE_F32, (2, 2), np.arange(4, dtype=np.float32)),
        Record("b.q", DTYPE_I8, (3,), np.array([-128, 0, 127], dtype=np.int32)),
        Record("c.q", DTYPE_I4, (3,), np.array([-8, 1, 7], dtype=np.int32)),
    ])
    return path.read_bytes()


def test_blob_non_utf8_record_name_is_parse_error(tmp_path):
    raw = bytearray(_small_blob(tmp_path / "w.tmmw"))
    raw[16] = 0xFF  # first byte of the first record's name
    bad = tmp_path / "bad.tmmw"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ParseError):
        read_blob(bad)


def test_blob_byte_mutations_fail_typed(tmp_path):
    raw = _small_blob(tmp_path / "w.tmmw")
    rng = np.random.default_rng(0)
    bad = tmp_path / "bad.tmmw"
    for _ in range(400):
        mutated = bytearray(raw)
        for pos in rng.integers(0, len(raw), size=int(rng.integers(1, 4))):
            mutated[pos] = int(rng.integers(0, 256))
        bad.write_bytes(bytes(mutated))
        try:
            read_blob(bad)
        except TinymmError:
            pass  # any other exception type fails the test
