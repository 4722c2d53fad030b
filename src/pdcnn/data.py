"""Dataset ingestion and augmentation.

Datasets are manifest CSVs (`path,label,category`) pointing at PDT1 image
tensors of shape (3, S, S) with values in [0, 1]. Offline augmentation
rotates every image by 90/180/270 degrees before the random 4-way batch
split (three batches train, one tests). Online augmentation crops a
(crop x crop) patch at a random offset with an optional horizontal flip;
for S=256 and crop 224 that is 32*32*2 = 2048 distinct choices. Test-time
input is always the deterministic center crop, no flip.

Images are read from their files on each access and nothing is kept, so
the image memory a run holds is one batch, whatever the dataset size.
"""

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import tensor as T

STREAM_SYNTH = 7  # seed-mixing tag for the synthetic generator


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    label: int
    category: str
    rotation: int = 0  # quarter turns clockwise applied on load


@dataclass(frozen=True)
class AugmentationChoice:
    offset_y: int
    offset_x: int
    flip: bool


def rotate90cw(img: np.ndarray) -> np.ndarray:
    """Quarter turn clockwise: pixel (y, x) moves to (x, S-1-y). Returns a
    view of img."""
    return img.swapaxes(-2, -1)[..., ::-1]


class Dataset:
    """Ordered records; each image is read from its file on every access and
    nothing is kept, so image memory is what the current batch holds."""

    def __init__(self, records, crop_size: int = 224):
        self.records = list(records)
        self.crop_size = crop_size

    def __len__(self):
        return len(self.records)

    def image(self, i: int) -> np.ndarray:
        """Record i's image, read from its file and turned by its rotation
        (a view of the read array)."""
        record = self.records[i]
        img = T.read_pdt(record.path)
        if img.ndim != 3:
            raise ValueError(f"{record.path}: expected a rank-3 image tensor, "
                             f"got shape {img.shape}")
        T.check_finite(img, record.path)
        if record.rotation % 4:
            if img.shape[1] != img.shape[2]:
                raise ValueError(f"{record.path}: rotation requires a square "
                                 f"image, got {img.shape[1]}x{img.shape[2]}")
            for _ in range(record.rotation % 4):
                img = rotate90cw(img)
        if img.shape[1] < self.crop_size or img.shape[2] < self.crop_size:
            raise ValueError(
                f"{record.path}: image {img.shape[1]}x{img.shape[2]} "
                f"smaller than crop size {self.crop_size}")
        return img

    @property
    def labels(self) -> np.ndarray:
        return np.array([r.label for r in self.records], dtype=np.int64)


MANIFEST_HEADER = ["path", "label", "category"]


def _label(text: str) -> int:
    if text not in ("0", "1"):
        raise ValueError(f"must be 0 or 1, got {text!r}")
    return int(text)


def load_manifest(path, crop_size: int = 224) -> Dataset:
    """Parse a manifest CSV; image paths resolve against its directory (an
    absolute path stays as it is). Labels must be 0 or 1; image tensors are
    read and validated on each access."""
    path = Path(path)
    rows = T.read_table(path, MANIFEST_HEADER, (str, _label, str))
    return Dataset([ManifestRecord(str(path.parent / image), label, category)
                    for image, label, category in rows], crop_size=crop_size)


def write_manifest(path, records) -> None:
    T.write_table(path, MANIFEST_HEADER,
                  ([r.path, r.label, r.category] for r in records))


def rotate_augment(d: Dataset) -> Dataset:
    """Quadruple the dataset: each original followed by its 90/180/270-degree
    rotations, labels and categories preserved. Applied before the batch
    split, so rotated copies of one photo may land on both sides of it."""
    records = []
    for r in d.records:
        for k in range(4):
            records.append(replace(r, rotation=(r.rotation + k) % 4))
    return Dataset(records, crop_size=d.crop_size)


def split_batches(d: Dataset, rng: T.Rng):
    """Shuffle, partition into 4 nearly equal batches (sizes differ by <= 1,
    larger batches first), and return batches 1-3 as train, batch 4 as test."""
    n = len(d)
    if n < 4:
        raise ValueError(f"need at least 4 samples to split, got {n}")
    batches = [[d.records[j] for j in part]
               for part in np.array_split(rng.permutation(n), 4)]
    train = batches[0] + batches[1] + batches[2]
    return (Dataset(train, crop_size=d.crop_size),
            Dataset(batches[3], crop_size=d.crop_size))


def apply_choice(image: np.ndarray, choice: AugmentationChoice,
                 crop: int) -> np.ndarray:
    patch = image[:, choice.offset_y:choice.offset_y + crop,
                  choice.offset_x:choice.offset_x + crop]
    if choice.flip:
        patch = patch[..., ::-1]
    return np.ascontiguousarray(patch)


def sample_patch(image: np.ndarray, crop: int, rng: T.Rng,
                 mode: str = "train") -> np.ndarray:
    """Train mode: uniform random offset in [0, H-crop) on y and [0, W-crop)
    on x plus a fair horizontal-flip coin (draw order: offset_y, offset_x,
    flip). Test mode: deterministic center crop, no flip."""
    h, w = image.shape[-2:]
    if crop > h or crop > w:
        raise ValueError(f"crop {crop} exceeds source size {h}x{w}")
    if mode == "test":
        center = AugmentationChoice((h - crop) // 2, (w - crop) // 2, False)
        return apply_choice(image, center, crop)
    if mode != "train":
        raise ValueError(f"mode must be 'train' or 'test', got {mode!r}")
    oy = rng.integers(0, h - crop) if h > crop else 0
    ox = rng.integers(0, w - crop) if w > crop else 0
    flip = rng.integers(0, 2) == 1
    return apply_choice(image, AugmentationChoice(oy, ox, flip), crop)


def _bilinear_upsample(coarse: np.ndarray, size: int) -> np.ndarray:
    """(C, g, g) -> (C, size, size), corner-aligned bilinear interpolation."""
    g = coarse.shape[1]
    pos = np.linspace(0.0, g - 1.0, size)
    i0 = np.floor(pos).astype(int)
    i1 = np.minimum(i0 + 1, g - 1)
    frac = pos - i0
    rows = (coarse[:, i0, :] * (1.0 - frac)[None, :, None]
            + coarse[:, i1, :] * frac[None, :, None])
    return (rows[:, :, i0] * (1.0 - frac)[None, None, :]
            + rows[:, :, i1] * frac[None, None, :])


SMOOTH_GRID = 5
SMOOTH_AMPLITUDE = 0.15
NOISE_AMPLITUDE = 0.25


def gen_synthetic(n_per_class: int, size: int, difficulty: float, seed: int,
                  out_dir) -> Dataset:
    """Write a balanced synthetic dataset of 2*n_per_class PDT1 images plus
    manifest.csv into out_dir and return it as a Dataset.

    Label 1 images are smooth low-frequency fields; label 0 adds per-pixel
    noise with amplitude 0.25*(1 - difficulty), so difficulty 0 is maximally
    separable and difficulty 1 makes the classes indistinguishable. Byte
    deterministic for a fixed seed.
    """
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")
    if size < 8:
        raise ValueError(f"size must be >= 8, got {size}")
    if not 0.0 <= difficulty <= 1.0:
        raise ValueError(f"difficulty must be in [0, 1], got {difficulty}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    noise_amp = NOISE_AMPLITUDE * (1.0 - difficulty)
    for i in range(2 * n_per_class):
        label = 1 if i % 2 == 0 else 0
        rng = T.Rng(T.mix_seed(seed, STREAM_SYNTH, i))
        coarse = rng.normal((3, SMOOTH_GRID, SMOOTH_GRID), 1.0)
        img = 0.5 + SMOOTH_AMPLITUDE * _bilinear_upsample(coarse, size)
        if label == 0:
            noise = rng.normal((3, size, size), 1.0)
            img = img + noise_amp * np.clip(noise, -2.0, 2.0) * 0.5
        img = np.clip(img, 0.0, 1.0)
        name = f"img_{i:05d}.pdt"
        T.write_pdt(out_dir / name, img.astype(np.float32))
        records.append(ManifestRecord(path=name, label=label,
                                      category="synthetic"))
    write_manifest(out_dir / "manifest.csv", records)
    return load_manifest(out_dir / "manifest.csv", crop_size=size)
