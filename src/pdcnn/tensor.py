"""Dense row-major arrays, seeded randomness, and every file format: binary
PDT1/PDM1 and UTF-8 text (comma lists, key=value lines, CSV tables).

Tensors are plain numpy arrays in C (row-major) order. Double precision is
used on every verification path; training may run in single precision, chosen
once per model. Randomness is never ambient: every stochastic operation takes
an explicit Rng, and independent streams are derived with mix_seed.

Every input file is read through _Reader: it refuses all but a regular file (a
FIFO at once) and checks each declared length before it reads or allocates.
"""

import csv
import io
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


class _Reader(io.BufferedReader):
    """A regular file read front to back, as a context manager: each declared
    length is checked against the bytes left before it is read or allocated."""

    def __init__(self, path):
        super().__init__(io.FileIO(path, "rb", opener=lambda p, flags: os.open(
            p, flags | getattr(os, "O_NONBLOCK", 0))))  # a FIFO opens at once
        st = os.fstat(self.fileno())
        if not stat.S_ISREG(st.st_mode):
            self.close()
            raise OSError(f"{path}: not a regular file")
        self.path, self.left = path, st.st_size

    def _check(self, needed: int, got: int) -> None:
        if got < needed:
            raise ValueError(f"{self.path}: truncated file (needed {needed} "
                             f"bytes, got {got})")

    def take(self, n: int) -> bytes:
        self._check(n, self.left)
        data = self.read(n)
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
        self._check(n, self.readinto(data))
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
    with _Reader(path) as r:
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
    with _Reader(path) as r:
        if r.take(min(4, r.left)) != PDM1_MAGIC:
            raise ValueError(f"{path}: not a PDM1 model file")
        (version,) = r.u32s(1)
        if version != PDM1_VERSION:
            raise ValueError(f"{path}: unsupported model version {version}")
        meta = r.take(*r.u32s(1))
        names = [r.take(*r.u32s(1)) for _ in range(*r.u32s(1))]
        return r.done((meta, names, [r.pdt() for _ in names]), "the last tensor")


# --- text formats: UTF-8 files, comma lists, key=value lines, CSV tables ---

def read_text(path) -> str:
    """A UTF-8 regular file's text; ValueError naming the file on a bad byte."""
    with _Reader(path) as r:
        raw = r.take(r.left)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text (byte {err.start})") from None


def parse_int_list(text: str) -> list:
    """'4,3,4' -> [4, 3, 4]; empty items are skipped."""
    return [int(v) for v in text.split(",") if v.strip()]


def parse_rate(text: str) -> float:
    """A float in [0, 1], such as an error rate; NaN and infinities fail."""
    if not 0.0 <= float(text) <= 1.0:
        raise ValueError(f"must be in [0, 1], got {text!r}")
    return float(text)


def format_int_list(values) -> str:
    return ",".join(str(v) for v in values)


def _parsed(parse, text, where, name):
    """parse(text); a ValueError from it is re-raised naming where and name."""
    try:
        return parse(text)
    except ValueError as err:
        raise ValueError(f"{where}: {name}: {err}") from None


def parse_kv_lines(lines, where, parsers) -> dict:
    """Flat key=value text: one pair per line, '#' comments, blank lines ignored.

    Keys not in parsers (key -> callable) are errors and each value goes
    through its key's parser. Errors name `where`, the line and the key."""
    out = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{where}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in parsers:
            raise ValueError(f"{where}:{lineno}: unknown key {key!r}")
        out[key] = _parsed(parsers[key], value, f"{where}:{lineno}", key)
    return out


def format_kv_lines(d: dict) -> str:
    """Inverse of parse_kv_lines; lists are written as comma lists."""
    return "".join(f"{k}={format_int_list(v) if isinstance(v, list) else v}\n"
                   for k, v in d.items())


def parse_kv_file(path, parsers) -> dict:
    """parse_kv_lines over a UTF-8 text file."""
    return parse_kv_lines(read_text(path).splitlines(), path, parsers)


def read_table(path, header, parsers) -> list:
    """The rows of a UTF-8 CSV file whose first row is the list `header`,
    blank rows skipped; each value goes through its column's parser. Errors
    read '{path}:{line}: ...' and name the column of a bad value."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    rows = []
    try:
        got = next(reader, None)
        if got != header:
            raise ValueError(f"{path}:1: expected header {header}, got {got}")
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: expected {len(header)} columns, "
                                 f"got {len(row)}")
            rows.append([_parsed(parse, text, where, name)
                         for name, parse, text in zip(header, parsers, row)])
    except csv.Error as err:
        raise ValueError(f"{path}:{reader.line_num}: {err}") from None
    return rows


def write_table(path, header, rows) -> None:
    """Write a CSV file, UTF-8 with LF line endings: the header, then rows."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
