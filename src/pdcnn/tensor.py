"""Dense row-major arrays, seeded randomness, and the PDT1/PDM1 file formats.

Tensors are plain numpy arrays in C (row-major) order. Double precision is
used on every verification path; training may run in single precision, chosen
once per model. Randomness is never ambient: every stochastic operation takes
an explicit Rng, and independent streams are derived with mix_seed.

Every binary read checks each declared length against the bytes the file has
left before it reads or allocates; a file that is not a regular one is refused.
"""

import math
import os
import stat
import struct

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

PDT1_MAGIC = b"PDT1"
PDM1_MAGIC = b"PDM1"
PDM1_VERSION = 1


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


class _Reader:
    """A regular file read front to back: each declared length is checked
    against the bytes left (one fstat) before it is read or allocated."""

    def __init__(self, f, path):
        st = os.fstat(f.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise ValueError(f"{path}: not a regular file")
        self.f, self.path, self.left = f, path, st.st_size

    def _check(self, needed: int, got: int) -> None:
        if got < needed:
            raise ValueError(f"{self.path}: truncated file (needed {needed} "
                             f"bytes, got {got})")

    def take(self, n: int) -> bytes:
        self._check(n, self.left)
        data = self.f.read(n)
        self._check(n, len(data))  # the file may have shrunk since the fstat
        self.left -= n
        return data

    def u32s(self, n: int) -> tuple:
        return struct.unpack(f"<{n}I", self.take(4 * n))

    def pdt(self) -> np.ndarray:
        """The next PDT1 record as a float32 array."""
        magic = self.take(4)
        if magic != PDT1_MAGIC:
            raise ValueError(f"{self.path}: not a PDT1 record (magic {magic!r})")
        (rank,) = self.u32s(1)
        if 4 * rank > self.left:  # name the first extent the file cuts short
            self._check(4, self.left % 4)
        shape = self.u32s(rank)
        n = 4 * math.prod(shape)
        if n > self.left:
            raise ValueError(f"{self.path}: truncated file (header declares "
                             f"{n // 4} floats, {self.left} bytes left)")
        try:  # numpy refuses a rank above its limit (32 before numpy 2, then
            # 64), or extents it cannot index, before it allocates
            data = np.empty(shape, dtype="<f4")
        except ValueError as err:
            raise ValueError(f"{self.path}: {err}") from None
        self._check(n, self.f.readinto(data))
        self.left -= n
        return data.astype(np.float32, copy=False)

    def done(self, result, what: str):
        """result, once the file is known to end with `what`."""
        if self.left:
            raise ValueError(f"{self.path}: {self.left} bytes after {what}")
        return result


def _write_pdt_record(f, t: np.ndarray) -> None:
    t = np.asarray(t)
    f.write(PDT1_MAGIC + struct.pack(f"<{t.ndim + 1}I", t.ndim, *t.shape))
    f.write(np.ascontiguousarray(t, dtype="<f4").tobytes())


def write_pdt(path, t: np.ndarray) -> None:
    """Write a tensor as a PDT1 file: magic, u32 LE rank, u32 LE extents, then
    row-major f32 LE data. Byte-deterministic for equal inputs."""
    with open(path, "wb") as f:
        _write_pdt_record(f, t)


def read_pdt(path) -> np.ndarray:
    """Read a one-record PDT1 file as a float32 array (cast it if needed)."""
    with open(path, "rb") as f:
        r = _Reader(f, path)
        return r.done(r.pdt(), "the PDT1 record")


def write_pdm(path, meta: bytes, named) -> None:
    """Write a PDM1 file: magic, u32 LE version, u32 LE-length-prefixed meta,
    u32 LE count, that many length-prefixed names, then their PDT1 records."""
    with open(path, "wb") as f:
        f.write(PDM1_MAGIC + struct.pack("<II", PDM1_VERSION, len(meta)) + meta)
        f.write(struct.pack("<I", len(named)) + b"".join(
            struct.pack("<I", len(name)) + name for name, _ in named))
        for _, array in named:
            _write_pdt_record(f, array)


def read_pdm(path):
    """(meta bytes, name bytes list, float32 arrays) from a PDM1 file, read
    as a frame only: the caller gives meta and names their meaning."""
    with open(path, "rb") as f:
        r = _Reader(f, path)
        if r.take(min(4, r.left)) != PDM1_MAGIC:
            raise ValueError(f"{path}: not a PDM1 model file")
        (version,) = r.u32s(1)
        if version != PDM1_VERSION:
            raise ValueError(f"{path}: unsupported model version {version}")
        meta = r.take(*r.u32s(1))
        names = [r.take(*r.u32s(1)) for _ in range(*r.u32s(1))]
        return r.done((meta, names, [r.pdt() for _ in names]), "the last tensor")
