import math
import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from pdcnn import tensor as T
from oracles import variance_loop


def test_rng_normal_rejects_negative_and_overflow():
    with pytest.raises(ValueError):
        T.Rng(0).normal([2, -1], 1.0)
    with pytest.raises(ValueError):
        T.Rng(0).normal([2**40, 2**40], 1.0)


def test_rng_normal_sigma_zero():
    t = T.Rng(3).normal([4, 4], 0.0)
    npt.assert_array_equal(t, np.zeros((4, 4)))


def test_rng_normal_sample_variance():
    # sigma 0.01 over 4096 elements: sample variance within [0.5e-4, 1.5e-4];
    # the bracket itself was sanity-checked with numpy's own normal sampler
    t = T.Rng(11).normal([4096], 0.01)
    v = variance_loop(t)
    assert 0.5e-4 <= v <= 1.5e-4
    reference = np.random.default_rng(123).normal(0, 0.01, 4096)
    assert 0.5e-4 <= np.var(reference) <= 1.5e-4


def test_rng_normal_deterministic():
    a = T.Rng(99).normal([32, 3, 7, 7], 0.01)
    b = T.Rng(99).normal([32, 3, 7, 7], 0.01)
    assert a.tobytes() == b.tobytes()


def test_rng_normal_rejects_negative_sigma():
    with pytest.raises(ValueError):
        T.Rng(0).normal([2], -1.0)


def test_row_major_index_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(10):
        shape = tuple(int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 4))))
        t = np.zeros(shape)
        flat = t.reshape(-1)
        flat[:] = np.arange(flat.size)
        for flat_i in rng.integers(0, flat.size, size=min(8, flat.size)):
            multi = np.unravel_index(int(flat_i), shape)
            assert t[multi] == flat_i
            assert np.ravel_multi_index(multi, shape) == flat_i


def test_pdt_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    t = rng.normal(0, 1, (3, 5, 4)).astype(np.float32)
    path = tmp_path / "t.pdt"
    T.write_pdt(path, t)
    back = T.read_pdt(path)
    npt.assert_array_equal(back, t)
    assert back.dtype == np.float32


def test_pdt_layout_bytes(tmp_path):
    path = tmp_path / "t.pdt"
    T.write_pdt(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    raw = path.read_bytes()
    assert raw[:4] == b"PDT1"
    assert raw[4:8] == (2).to_bytes(4, "little")          # rank
    assert raw[8:16] == (2).to_bytes(4, "little") * 2     # extents
    npt.assert_array_equal(np.frombuffer(raw[16:], dtype="<f4"),
                           np.array([1, 2, 3, 4], dtype=np.float32))


def test_pdt_scalar(tmp_path):
    path = tmp_path / "s.pdt"
    T.write_pdt(path, np.float32(2.5))
    assert float(T.read_pdt(path)) == 2.5


def test_pdt_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pdt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        T.read_pdt(path)


def test_mix_seed_distinct_and_stable():
    seen = {T.mix_seed(1, 2, i) for i in range(1000)}
    assert len(seen) == 1000
    assert T.mix_seed(42, 7, 9) == T.mix_seed(42, 7, 9)
    assert T.mix_seed(42, 7, 9) != T.mix_seed(42, 9, 7)


def test_check_finite():
    T.check_finite(np.ones(3))
    with pytest.raises(ValueError):
        T.check_finite(np.array([1.0, np.nan]))


def test_pdt_truncated_payload(tmp_path):
    path = tmp_path / "t.pdt"
    T.write_pdt(path, np.ones((2, 3), dtype=np.float32))
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])  # drop the final float
    with pytest.raises(ValueError, match="truncated"):
        T.read_pdt(path)


def test_pdt_rejects_extents_beyond_file(tmp_path):
    # 16 bytes declaring (2^32-1) x (2^32-1) floats: rejected before reading
    path = tmp_path / "huge.pdt"
    path.write_bytes(T.PDT1_MAGIC + struct.pack("<III", 2, 2**32 - 1, 2**32 - 1))
    with pytest.raises(ValueError) as err:
        T.read_pdt(path)
    assert str(err.value).startswith(f"{path}: ")


def test_pdt_rejects_bytes_after_the_record(tmp_path):
    # a (3,4,4) image whose first extent is corrupted to 1 would otherwise
    # read back as a (1,4,4) prefix of its own payload
    path = tmp_path / "img.pdt"
    T.write_pdt(path, np.ones((3, 4, 4), dtype=np.float32))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 8, 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as err:
        T.read_pdt(path)
    assert str(err.value) == f"{path}: 128 bytes after the PDT1 record"


def test_pdt_rejects_rank_beyond_file(tmp_path):
    # the extents a rank declares are checked against the bytes left, and
    # the error names the first extent the file cuts short
    path = tmp_path / "rank.pdt"
    path.write_bytes(T.PDT1_MAGIC + struct.pack("<I", 2**32 - 1) + b"\0" * 6)
    with pytest.raises(ValueError) as err:
        T.read_pdt(path)
    assert str(err.value) == f"{path}: truncated file (needed 4 bytes, got 2)"


def test_pdm_round_trip(tmp_path):
    path = tmp_path / "m.bin"
    named = [(b"a", np.arange(6, dtype=np.float32).reshape(2, 3)),
             (b"b/c", np.float32(1.5))]
    T.write_pdm(path, b"depths=4\n", named)
    meta, names, arrays = T.read_pdm(path)
    assert (meta, names) == (b"depths=4\n", [b"a", b"b/c"])
    for (_, want), got in zip(named, arrays):
        assert (got.dtype, got.shape) == (np.float32, np.shape(want))
        npt.assert_array_equal(got, want)


def _pdt_reference(raw):
    """(shape, payload bytes) of the PDT1 record that raw holds, or None
    when raw holds no complete record or bytes follow it."""
    if len(raw) < 8 or raw[:4] != T.PDT1_MAGIC:
        return None
    rank = int.from_bytes(raw[4:8], "little")
    start = 8 + 4 * rank
    if len(raw) < start:
        return None
    shape = tuple(int.from_bytes(raw[8 + 4 * i:12 + 4 * i], "little")
                  for i in range(rank))
    end = start + 4 * math.prod(shape)
    if len(raw) != end:
        return None
    return shape, raw[start:end]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_pdt_read_fuzz_returns_record_or_names_path(tmp_path_factory, data):
    # a cut or corrupted file either reads back exactly the record its bytes
    # declare or raises a ValueError naming the file; an untouched file
    # reads back the written float32 bytes
    shape = tuple(data.draw(st.lists(st.integers(0, 4), max_size=4)))
    payload = data.draw(st.binary(min_size=4 * math.prod(shape),
                                  max_size=4 * math.prod(shape)))
    path = tmp_path_factory.mktemp("fuzz") / "t.pdt"
    T.write_pdt(path, np.frombuffer(payload, dtype="<f4").reshape(shape))
    raw = bytearray(path.read_bytes())
    kind = data.draw(st.sampled_from(["none", "magic", "rank", "extent"]))
    if kind == "magic":
        i = data.draw(st.integers(0, 3))
        raw[i] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[i]))
    elif kind == "rank" or (kind == "extent" and shape):
        at = 4
        if kind == "extent":
            at = 8 + 4 * data.draw(st.integers(0, len(shape) - 1))
        value = data.draw(st.one_of(st.integers(0, 6), st.integers(0, 2**32 - 1)))
        raw[at:at + 4] = struct.pack("<I", value)
    cut = data.draw(st.one_of(st.none(), st.integers(0, len(raw))))
    if cut is not None:
        del raw[cut:]
    path.write_bytes(bytes(raw))
    expected = _pdt_reference(bytes(raw))
    if expected is None:
        with pytest.raises(ValueError) as err:
            T.read_pdt(path)
        assert str(err.value).startswith(f"{path}: ")
    else:
        back = T.read_pdt(path)
        assert back.dtype == np.float32
        assert (back.shape, back.tobytes()) == expected
    if kind == "none" and cut is None:
        assert expected == (shape, payload)
