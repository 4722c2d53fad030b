import hashlib
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from pdcnn import tensor as T
from pdcnn.data import (AugmentationChoice, Dataset, ManifestRecord,
                        apply_choice, gen_synthetic, load_manifest,
                        rotate90cw, rotate_augment, sample_patch,
                        split_batches, write_manifest)
from oracles import (all_choices, highpass_energy, highpass_energy_fast,
                     rotate90cw_naive)


def _write_image(path, shape=(3, 8, 8), seed=0):
    rng = np.random.default_rng(seed)
    T.write_pdt(path, rng.random(shape, dtype=np.float32))


def _manifest(tmp_path, rows):
    path = tmp_path / "manifest.csv"
    path.write_text("path,label,category\n"
                    + "".join(",".join(str(c) for c in r) + "\n" for r in rows),
                    encoding="utf-8")
    return path


# --- load_manifest ---

def test_header_only_manifest(tmp_path):
    ds = load_manifest(_manifest(tmp_path, []))
    assert len(ds) == 0


def test_manifest_rows_in_order(tmp_path):
    _write_image(tmp_path / "a.pdt", seed=1)
    _write_image(tmp_path / "b.pdt", seed=2)
    ds = load_manifest(_manifest(tmp_path, [("a.pdt", 1, "Animal"),
                                            ("b.pdt", 0, "Night")]),
                       crop_size=8)
    assert [r.label for r in ds.records] == [1, 0]
    assert [r.category for r in ds.records] == ["Animal", "Night"]
    assert ds.image(0).shape == (3, 8, 8)


def test_manifest_bad_label_names_line(tmp_path):
    path = _manifest(tmp_path, [("a.pdt", 1, "x"), ("b.pdt", 2, "x")])
    with pytest.raises(ValueError, match=":3"):
        load_manifest(path)


def test_manifest_wrong_column_count(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("path,label,category\na.pdt,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="3 columns"):
        load_manifest(path)


def test_manifest_requires_header(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("a.pdt,1,x\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_manifest(path)


def test_manifest_relative_paths_resolve(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    _write_image(sub / "img.pdt")
    ds = load_manifest(_manifest(sub, [("img.pdt", 0, "x")]), crop_size=8)
    assert Path(ds.records[0].path).parent == sub
    assert ds.image(0).shape == (3, 8, 8)


def test_missing_image_errors_on_access(tmp_path):
    ds = load_manifest(_manifest(tmp_path, [("gone.pdt", 0, "x")]), crop_size=8)
    with pytest.raises(OSError):
        ds.image(0)


# --- rotation ---

def test_rotate90cw_hand_example():
    img = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    npt.assert_array_equal(rotate90cw(img),
                           np.array([[[3.0, 1.0], [4.0, 2.0]]]))


def test_rotate90cw_matches_index_permutation_oracle():
    rng = np.random.default_rng(3)
    img = rng.random((3, 5, 5))
    npt.assert_array_equal(rotate90cw(img), rotate90cw_naive(img))


def test_rotation_group_action():
    rng = np.random.default_rng(4)
    img = rng.random((3, 6, 6))
    out = img
    for _ in range(4):
        out = rotate90cw(out)
    npt.assert_array_equal(out, img)
    npt.assert_array_equal(rotate90cw(rotate90cw(rotate90cw(rotate90cw(img)))),
                           img)


def test_rotate180_twice_is_identity():
    rng = np.random.default_rng(5)
    img = rng.random((3, 4, 4))
    r180 = rotate90cw(rotate90cw(img))
    npt.assert_array_equal(rotate90cw(rotate90cw(r180)), img)


def test_rotate_augment_quadruples(tmp_path):
    for i in range(5):
        _write_image(tmp_path / f"i{i}.pdt", seed=i)
    ds = load_manifest(_manifest(tmp_path, [(f"i{i}.pdt", i % 2, "c")
                                            for i in range(5)]), crop_size=8)
    out = rotate_augment(ds)
    assert len(out) == 20
    # per-class ratio preserved exactly
    assert sum(r.label for r in out.records) == 4 * sum(r.label for r in ds.records)
    # rotations of record 0: identity, then three quarter turns
    base = ds.image(0)
    npt.assert_array_equal(out.image(0), base)
    npt.assert_array_equal(out.image(1), rotate90cw(base))
    npt.assert_array_equal(out.image(2), rotate90cw(rotate90cw(base)))
    npt.assert_array_equal(out.image(3),
                           rotate90cw(rotate90cw(rotate90cw(base))))


def test_rotate_augment_nonsquare_errors(tmp_path):
    _write_image(tmp_path / "rect.pdt", shape=(3, 4, 6))
    ds = load_manifest(_manifest(tmp_path, [("rect.pdt", 0, "c")]), crop_size=4)
    out = rotate_augment(ds)
    npt.assert_array_equal(out.image(0), ds.image(0))  # identity copy loads
    with pytest.raises(ValueError, match="square"):
        out.image(1)


def test_dataset_keeps_no_image(tmp_path):
    # each access reads the file; dropping the returned array (a view for a
    # rotated record) frees the decoded image
    _write_image(tmp_path / "a.pdt")
    ds = rotate_augment(load_manifest(_manifest(tmp_path, [("a.pdt", 1, "c")]),
                                      crop_size=8))
    for i in range(4):
        img = ds.image(i)
        refs = [weakref.ref(a) for a in (img, img.base) if a is not None]
        del img
        assert all(ref() is None for ref in refs)


def test_rotated_view_patches_match_contiguous_copy(tmp_path):
    _write_image(tmp_path / "a.pdt", shape=(3, 12, 12), seed=5)
    ds = rotate_augment(load_manifest(_manifest(tmp_path, [("a.pdt", 1, "c")]),
                                      crop_size=8))
    base = ds.image(0)
    for k in range(4):
        turned = base
        for _ in range(k):
            turned = rotate90cw(turned)
        copy = np.ascontiguousarray(turned)
        view = ds.image(k)
        assert view.flags.c_contiguous == (k == 0)  # turned images are views
        assert sample_patch(view, 8, None, "test").tobytes() == \
            sample_patch(copy, 8, None, "test").tobytes()
        for seed in range(32):
            patch = sample_patch(view, 8, T.Rng(seed), "train")
            assert patch.tobytes() == \
                sample_patch(copy, 8, T.Rng(seed), "train").tobytes()
        for choice in all_choices(12, 8):  # every offset, flipped or not
            assert apply_choice(view, choice, 8).tobytes() == \
                apply_choice(copy, choice, 8).tobytes()


# --- split ---

def _dataset_of(n, tmp_path):
    for i in range(n):
        _write_image(tmp_path / f"s{i}.pdt", seed=i)
    return load_manifest(_manifest(tmp_path, [(f"s{i}.pdt", i % 2, "c")
                                              for i in range(n)]), crop_size=8)


def test_split_exact_quarters(tmp_path):
    ds = _dataset_of(8, tmp_path)
    train, test = split_batches(ds, T.Rng(1))
    assert len(train) == 6 and len(test) == 2


def test_split_remainder_rule(tmp_path):
    ds = _dataset_of(10, tmp_path)
    train, test = split_batches(ds, T.Rng(1))
    # batch sizes 3,3,2,2: train takes the first three, test the last
    assert len(train) == 8 and len(test) == 2


def test_split_is_partition(tmp_path):
    ds = _dataset_of(11, tmp_path)
    train, test = split_batches(ds, T.Rng(9))
    all_paths = sorted(r.path for r in ds.records)
    split_paths = sorted(r.path for r in train.records + test.records)
    assert all_paths == split_paths


def test_split_deterministic(tmp_path):
    ds = _dataset_of(9, tmp_path)
    t1, e1 = split_batches(ds, T.Rng(42))
    t2, e2 = split_batches(ds, T.Rng(42))
    assert [r.path for r in t1.records] == [r.path for r in t2.records]
    assert [r.path for r in e1.records] == [r.path for r in e2.records]


def test_split_too_small(tmp_path):
    ds = _dataset_of(3, tmp_path)
    with pytest.raises(ValueError):
        split_batches(ds, T.Rng(0))


# --- patches ---

def test_apply_choice_top_left_no_flip():
    img = np.arange(3 * 6 * 6, dtype=np.float64).reshape(3, 6, 6)
    patch = apply_choice(img, AugmentationChoice(0, 0, False), 4)
    npt.assert_array_equal(patch, img[:, :4, :4])


def test_choice_counts():
    assert len(all_choices(8, 8)) == 2
    assert len(all_choices(12, 8)) == 32
    assert len(all_choices(256, 224)) == 2048
    assert len(set(all_choices(256, 224))) == 2048


def test_all_choices_small_patches_distinct():
    img = np.arange(1 * 12 * 12, dtype=np.float64).reshape(1, 12, 12)
    patches = {apply_choice(img, c, 8).tobytes() for c in all_choices(12, 8)}
    assert len(patches) == 32


def test_sample_patch_train_stays_in_offset_range():
    img = np.arange(3 * 12 * 12, dtype=np.float64).reshape(3, 12, 12)
    seen = set()
    for seed in range(200):
        patch = sample_patch(img, 8, T.Rng(seed), "train")
        assert patch.shape == (3, 8, 8)
        # values never synthesized: every patch value comes from the image
        assert np.isin(patch, img).all()
        seen.add(patch.tobytes())
    # offsets live in [0, S - crop): the top-left patch value must come from
    # a corner reachable with oy, ox <= 3 (flip mirrors the corner column)
    allowed = {float(img[0, oy, ox]) for oy in range(4) for ox in range(4)}
    allowed |= {float(img[0, oy, ox + 7]) for oy in range(4) for ox in range(4)}
    corners = {float(sample_patch(img, 8, T.Rng(s), "train")[0, 0, 0])
               for s in range(200)}
    assert corners <= allowed


def test_sample_patch_degenerate_full_image_or_flip():
    img = np.arange(3 * 8 * 8, dtype=np.float64).reshape(3, 8, 8)
    outcomes = {sample_patch(img, 8, T.Rng(s), "train").tobytes()
                for s in range(64)}
    expected = {img.tobytes(),
                np.ascontiguousarray(img[..., ::-1]).tobytes()}
    assert outcomes == expected


def test_sample_patch_test_mode_center_crop():
    img = np.arange(3 * 12 * 12, dtype=np.float64).reshape(3, 12, 12)
    patch = sample_patch(img, 8, None, "test")
    npt.assert_array_equal(patch, img[:, 2:10, 2:10])
    npt.assert_array_equal(patch, sample_patch(img, 8, None, "test"))


@pytest.mark.parametrize("shape", [(3, 40, 24), (3, 24, 40)])
def test_sample_patch_non_square_offsets_per_axis(shape):
    img = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
    h, w = shape[1:]
    center = sample_patch(img, 20, None, "test")
    top, left = (h - 20) // 2, (w - 20) // 2
    npt.assert_array_equal(center, img[:, top:top + 20, left:left + 20])
    reachable = {apply_choice(img, AugmentationChoice(oy, ox, flip), 20).tobytes()
                 for oy in range(h - 20) for ox in range(w - 20)
                 for flip in (False, True)}
    for seed in range(100):
        patch = sample_patch(img, 20, T.Rng(seed), "train")
        assert patch.shape == (3, 20, 20)
        assert patch.tobytes() in reachable


def test_sample_patch_crop_too_large():
    img = np.zeros((3, 8, 8))
    with pytest.raises(ValueError):
        sample_patch(img, 9, T.Rng(0), "train")


def test_sample_patch_bad_mode():
    with pytest.raises(ValueError):
        sample_patch(np.zeros((3, 8, 8)), 4, T.Rng(0), "half")


# --- synthetic generator ---

def test_gen_synthetic_balanced(tmp_path):
    ds = gen_synthetic(10, 16, 0.5, seed=3, out_dir=tmp_path)
    assert len(ds) == 20
    assert int(ds.labels.sum()) == 10
    assert (tmp_path / "manifest.csv").exists()
    img = ds.image(0)
    assert img.shape == (3, 16, 16)
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_gen_synthetic_deterministic(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    gen_synthetic(4, 16, 0.25, seed=9, out_dir=d1)
    gen_synthetic(4, 16, 0.25, seed=9, out_dir=d2)
    for f in sorted(p.name for p in d1.iterdir()):
        h1 = hashlib.sha256((d1 / f).read_bytes()).hexdigest()
        h2 = hashlib.sha256((d2 / f).read_bytes()).hexdigest()
        assert h1 == h2, f


def test_gen_synthetic_difficulty_zero_separable(tmp_path):
    # a 3x3 high-pass energy threshold classifies >= 99% at difficulty 0
    ds = gen_synthetic(50, 16, 0.0, seed=12, out_dir=tmp_path)
    energies = np.array([highpass_energy_fast(ds.image(i).astype(np.float64))
                         for i in range(len(ds))])
    labels = ds.labels
    threshold = float(np.median(energies))
    pred = (energies < threshold).astype(int)  # smooth (low energy) = class 1
    accuracy = float((pred == labels).mean())
    assert accuracy >= 0.99


def test_highpass_oracles_agree():
    rng = np.random.default_rng(0)
    img = rng.random((2, 8, 8))
    assert highpass_energy(img) == pytest.approx(highpass_energy_fast(img),
                                                 rel=1e-12)


def test_gen_synthetic_validates_args(tmp_path):
    with pytest.raises(ValueError):
        gen_synthetic(0, 16, 0.5, 1, tmp_path)
    with pytest.raises(ValueError):
        gen_synthetic(1, 4, 0.5, 1, tmp_path)
    with pytest.raises(ValueError):
        gen_synthetic(1, 16, 1.5, 1, tmp_path)


def test_write_manifest_format(tmp_path):
    path = tmp_path / "m.csv"
    write_manifest(path, [ManifestRecord("x.pdt", 1, "Plant")])
    assert path.read_text(encoding="utf-8") == \
        "path,label,category\nx.pdt,1,Plant\n"
