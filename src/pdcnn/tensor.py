"""Dense row-major arrays, seeded randomness, and the PDT1 tensor file format.

Tensors are plain numpy arrays in C (row-major) order. Double precision is
used on every verification path; training may run in single precision, chosen
once per model. Randomness is never ambient: every stochastic operation takes
an explicit Rng, and independent streams are derived with mix_seed.
"""

import math
import struct

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

PDT1_MAGIC = b"PDT1"


def _splitmix64(state: int) -> int:
    # Finalizer from the splitmix64 generator; full-period 64-bit mixer.
    z = (state + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def mix_seed(seed: int, *keys: int) -> int:
    """Derive an independent 64-bit seed from a root seed and integer keys.

    Deterministic and platform-independent; used to split one run seed into
    per-epoch, per-sample, and per-candidate streams.
    """
    state = _splitmix64(seed & MASK64)
    for k in keys:
        state = _splitmix64(state ^ (k & MASK64))
    return state


class Rng:
    """Deterministic random stream: numpy PCG64 under an explicit 64-bit seed.

    Identical seeds give identical streams on every platform. An Rng is
    single-owner; derive independent streams' seeds with mix_seed instead of
    sharing.
    """

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape, sigma: float, dtype=np.float64) -> np.ndarray:
        """i.i.d. Normal(0, sigma^2); numpy rejects a negative sigma/extent."""
        out = self._gen.normal(0.0, sigma, size=shape)
        return np.asarray(out, dtype=dtype)

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in the half-open range [low, high)."""
        return int(self._gen.integers(low, high))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def check_finite(t: np.ndarray, what: str = "tensor") -> np.ndarray:
    if not np.all(np.isfinite(t)):
        raise ValueError(f"{what} contains non-finite elements")
    return t


def write_pdt_stream(f, t: np.ndarray) -> None:
    """Write one PDT1 record to an open binary file: magic, u32 LE rank,
    u32 LE extents, f32 LE data.

    Data is row-major (last axis fastest). Writing is byte-deterministic for
    equal inputs.
    """
    t = np.asarray(t)
    f.write(PDT1_MAGIC)
    f.write(struct.pack("<I", t.ndim))
    for s in t.shape:
        f.write(struct.pack("<I", s))
    f.write(np.ascontiguousarray(t, dtype="<f4").tobytes())


def read_exact(f, n: int, path) -> bytes:
    """The next n bytes of f; ValueError naming path if the file ends first."""
    data = f.read(n)
    if len(data) != n:
        raise ValueError(f"{path}: truncated file (needed {n} bytes, got {len(data)})")
    return data


def read_u32(f, path) -> int:
    """One little-endian u32 from f, checked like read_exact."""
    return struct.unpack("<I", read_exact(f, 4, path))[0]


def read_pdt_stream(f, path) -> np.ndarray:
    """Read one PDT1 record from an open, seekable binary file as a float32
    array; path names the file in errors. Extents whose data would run past
    the end of the file are rejected before any data is read."""
    magic = read_exact(f, 4, path)
    if magic != PDT1_MAGIC:
        raise ValueError(f"{path}: not a PDT1 record (magic {magic!r})")
    rank = read_u32(f, path)
    shape = tuple(read_u32(f, path) for _ in range(rank))
    count = math.prod(shape)
    here = f.tell()
    left = f.seek(0, 2) - here
    f.seek(here)
    if 4 * count > left:
        raise ValueError(f"{path}: truncated file (header declares {count} "
                         f"floats, {left} bytes left)")
    data = np.empty(shape, dtype="<f4")
    got = f.readinto(data)
    if got != 4 * count:
        raise ValueError(f"{path}: truncated file (needed {4 * count} bytes, "
                         f"got {got})")
    return data.astype(np.float32, copy=False)


def expect_end(f, path, what: str) -> None:
    """ValueError naming path if the seekable f has bytes left after `what`."""
    here = f.tell()
    extra = f.seek(0, 2) - here
    if extra:
        raise ValueError(f"{path}: {extra} bytes after {what}")


def write_pdt(path, t: np.ndarray) -> None:
    """Write a tensor as a PDT1 file holding one record (see write_pdt_stream)."""
    with open(path, "wb") as f:
        write_pdt_stream(f, t)


def read_pdt(path) -> np.ndarray:
    """Read a one-record PDT1 file as a float32 array (cast it if needed)."""
    with open(path, "rb") as f:
        t = read_pdt_stream(f, path)
        expect_end(f, path, "the PDT1 record")
    return t
