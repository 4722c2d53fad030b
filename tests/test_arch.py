import itertools

import pytest

from pdcnn.arch import (ARCH_KEYS, ArchConfig, arch_dict_from_spec, build_arch,
                        build_pdcnn, param_count, shape_check,
                        spec_from_arch_dict)
from pdcnn.layers import ShapeError
from pdcnn.tensor import parse_kv_file


def _names(arch):
    return [layer.name for layer in arch.layers]


def _conv_layers(arch):
    return [layer for layer in arch.layers if layer.kind == "conv"]


def test_depth3_layout():
    arch = build_arch(3)
    names = _names(arch)
    assert "conv3" in names and "conv4" not in names
    # each stage pools before its ReLU; no branch fc: the head replaces it
    assert names[-4:] == ["conv3", "pool3", "relu3", "rnorm3"]
    assert [c.filters for c in _conv_layers(arch)] == [64, 96, 96]


def test_depth4_canonical_filters_and_kernels():
    arch = build_arch(4)
    convs = _conv_layers(arch)
    assert [c.filters for c in convs] == [64, 96, 96, 64]
    assert [c.kernel for c in convs] == [7, 5, 3, 3]
    names = _names(arch)
    assert names.index("rnorm3") < names.index("conv4")
    assert names[-2:] == ["conv4", "relu4"]


def test_depth5_extends_with_conv5():
    arch = build_arch(5)
    convs = _conv_layers(arch)
    assert [c.filters for c in convs] == [64, 96, 96, 64, 64]
    assert convs[4].kernel == 3


def test_variant1_changes_conv1_kernel():
    arch = build_arch(4, variant=1)
    convs = _conv_layers(arch)
    assert convs[0].kernel == 5
    assert convs[1].kernel == 3
    assert [c.filters for c in convs] == [64, 96, 96, 64]
    assert _names(arch) == _names(build_arch(4, variant=0))


def test_relu_follows_every_conv_not_fc():
    # conv1-3 are each followed by their pool, then the ReLU; conv4 and
    # conv5 have no pool, so their ReLU follows them directly
    for depth in (3, 4, 5):
        arch = build_arch(depth)
        names = _names(arch)
        for i in range(1, depth + 1):
            conv = names.index(f"conv{i}")
            if i <= 3:
                assert names.index(f"pool{i}") == conv + 1
                assert names.index(f"relu{i}") == conv + 2
            else:
                assert names.index(f"relu{i}") == conv + 1
        kinds = [layer.kind for layer in arch.layers]
        assert kinds.count("relu") == kinds.count("conv") == depth
        assert set(kinds) == {"conv", "relu", "pool", "lrn"}  # no fc


def test_unsupported_depth():
    with pytest.raises(ValueError):
        build_arch(2)
    with pytest.raises(ValueError):
        build_arch(6)


def test_build_pdcnn_single_branch_degenerates():
    for depth in (3, 4, 5):
        spec = build_pdcnn([depth])
        assert len(spec.branches) == 1
        assert spec.branches[0] == build_arch(depth, 0)
        # identical shape tables: the shared head replaces the branch fc
        rows = shape_check(spec)
        again = shape_check(build_pdcnn([depth], input_shape=(3, 224, 224)))
        assert rows == again
        assert rows[-1].shape == (2,)


def test_build_pdcnn_duplicate_depth_variants():
    spec = build_pdcnn([4, 3, 4])
    assert [a.depth for a in spec.branches] == [4, 3, 4]
    assert [a.variant for a in spec.branches] == [0, 0, 1]
    conv1_kernels = [_conv_layers(a)[0].kernel for a in spec.branches]
    assert conv1_kernels == [7, 7, 5]


def test_build_pdcnn_branch_count_bounds():
    with pytest.raises(ValueError):
        build_pdcnn([])
    with pytest.raises(ValueError):
        build_pdcnn([3, 3, 4, 4, 5])


def test_duplicate_depths_always_differ_in_kernel():
    # every multiset of depths up to 4 branches keeps same-depth branches
    # structurally distinct in at least one kernel size
    for n in range(1, 5):
        for depths in itertools.combinations_with_replacement((3, 4, 5), n):
            spec = build_pdcnn(list(depths))
            seen = {}
            for arch in spec.branches:
                key = (arch.depth,
                       tuple(c.kernel for c in _conv_layers(arch)))
                assert key not in seen, f"duplicate branch {key} in {depths}"
                seen[key] = arch


def test_shape_check_full_scale():
    spec = build_pdcnn([4], input_shape=(3, 224, 224))
    rows = shape_check(spec)
    table = {(r.branch, r.layer): r.shape for r in rows}
    assert table[("branch1", "conv1")] == (64, 56, 56)
    assert table[("branch1", "pool1")] == (64, 27, 27)
    assert table[("branch1", "conv2")] == (96, 27, 27)
    assert table[("branch1", "conv4")] == (64, 6, 6)
    assert table[("fusion", "concat")] == (2304,)
    assert table[("head", "fc2")] == (2,)
    assert all(all(v >= 1 for v in r.shape) for r in rows)


def test_shape_check_collapse_names_layer():
    spec = build_pdcnn([4], input_shape=(3, 1, 1))
    with pytest.raises(ShapeError, match="conv1"):
        shape_check(spec)


@pytest.mark.parametrize("name", ["conv1_stride", "pool_stride"])
def test_arch_config_rejects_stride_zero(name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0$"):
        ArchConfig(**{name: 0})


def test_arch_config_accepts_each_lower_bound():
    config = ArchConfig(conv1_stride=1, conv1_padding=0, pool_window=1,
                        pool_stride=1, lrn_radius=0, lrn_alpha=0.0,
                        init_sigma=0.0)
    assert shape_check(build_pdcnn([3], input_shape=(3, 20, 20),
                                   config=config))


@pytest.mark.parametrize("scale", [float("inf"), float("-inf"), float("nan")])
def test_build_arch_rejects_non_finite_filter_scale(scale):
    with pytest.raises(ValueError, match="filter_scale must be finite"):
        build_arch(4, config=ArchConfig(filter_scale=scale))


# the other float fields; filter_scale is the test above
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("name", ["lrn_k", "lrn_alpha", "lrn_beta",
                                  "init_sigma"])
def test_arch_config_rejects_non_finite_float_fields(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        ArchConfig(**{name: value})


def test_shape_check_fusion_additivity():
    two = build_pdcnn([4, 3])
    single4 = build_pdcnn([4])
    single3 = build_pdcnn([3])
    fused = [shape_check(s)[-2].shape[0] for s in (two, single4, single3)]
    assert fused[0] == fused[1] + fused[2]


def test_shape_check_rejects_bad_input_shape():
    with pytest.raises(ShapeError):
        shape_check(build_pdcnn([4], input_shape=(3, 224)))
    with pytest.raises(ShapeError):
        shape_check(build_pdcnn([4], input_shape=(3, 0, 224)))


def test_shape_check_deterministic():
    spec = build_pdcnn([4, 3, 4])
    assert shape_check(spec) == shape_check(spec)


def _conv_params(spec):
    """The parameters of every branch conv: all rows but the head's."""
    return sum(row.params for row in shape_check(spec)[:-1])


def test_param_count_conv1():
    rows = shape_check(build_pdcnn([4]))
    assert rows[0].layer == "conv1"
    assert rows[0].params == 64 * 3 * 49 + 64 == 9472


def test_param_count_parameterless_layers():
    spec = build_pdcnn([4])
    rows = shape_check(spec)
    for layer, row in zip(spec.branches[0].layers, rows):
        assert row.layer == layer.name
        assert (row.params == 0) == (layer.kind != "conv")
    assert rows[-2].params == 0  # the concatenation
    assert rows[-1].params == 2 * rows[-2].shape[0] + 2  # the shared head


def test_param_count_additive_over_branches():
    spec = build_pdcnn([4, 3])
    fused = shape_check(spec)[-2].shape[0]
    expected = (_conv_params(build_pdcnn([4])) + _conv_params(build_pdcnn([3]))
                + 2 * fused + 2)
    assert param_count(spec) == expected


def test_param_count_invariant_under_reordering():
    a = param_count(build_pdcnn([4, 3, 5]))
    b = param_count(build_pdcnn([5, 4, 3]))
    c = param_count(build_pdcnn([3, 5, 4]))
    assert a == b == c


def test_arch_file_round_trip(tmp_path):
    path = tmp_path / "arch.txt"
    path.write_text(
        "# desk-scale preset\n"
        "depths=4,3,4\n"
        "conv1_stride=2\n"
        "conv1_padding=3\n"
        "filter_scale=0.25\n"
        "init_sigma=0.06\n"
        "input_size=56\n",
        encoding="utf-8")
    d = parse_kv_file(path, ARCH_KEYS)
    spec = spec_from_arch_dict(d)
    assert [a.depth for a in spec.branches] == [4, 3, 4]
    assert spec.config.conv1_stride == 2
    assert spec.config.conv1_padding == 3
    assert spec.branches[0].layers[0].padding == 3
    assert spec.input_shape == (3, 56, 56)
    back = arch_dict_from_spec(spec)
    assert back["depths"] == [4, 3, 4]
    assert back["conv1_stride"] == 2
    assert back["conv1_padding"] == 3
    assert back["filter_scale"] == 0.25


def test_arch_file_unknown_key(tmp_path):
    path = tmp_path / "arch.txt"
    path.write_text("depths=4\nlearning_rate=0.1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="learning_rate"):
        parse_kv_file(path, ARCH_KEYS)


@pytest.mark.parametrize("line,key", [("conv1_stride=x", "conv1_stride"),
                                      ("init_sigma=wide", "init_sigma"),
                                      ("depths=4,x", "depths")])
def test_arch_file_bad_value_names_line_and_key(tmp_path, line, key):
    path = tmp_path / "arch.txt"
    path.write_text(f"depths=4\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        parse_kv_file(path, ARCH_KEYS)
    assert str(err.value).startswith(f"{path}:2: {key}: "), err.value


def test_kv_file_comments_and_errors(tmp_path):
    path = tmp_path / "kv.txt"
    path.write_text("a=1  # trailing comment\n\n# full comment\nb=2\n",
                    encoding="utf-8")
    assert parse_kv_file(path, {"a": str, "b": str}) == {"a": "1", "b": "2"}
    path.write_text("oops\n", encoding="utf-8")
    with pytest.raises(ValueError, match="key=value"):
        parse_kv_file(path, {"a": str, "b": str})


def test_explicit_variants_override():
    spec = build_pdcnn([4, 4], variants=[0, 2])
    assert [a.variant for a in spec.branches] == [0, 2]
    with pytest.raises(ValueError):
        build_pdcnn([4, 4], variants=[0])
