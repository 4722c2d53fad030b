"""Declarative branch architectures and their parallel composition.

A branch of depth 3, 4 or 5 runs three conv -> pool -> ReLU -> LRN stages,
then conv -> ReLU for conv4 and conv5; the 4-layer branch uses filter counts
(64, 96, 96, 64) and kernels (7, 5, 3, 3). A paralleled network runs 1..4
branches on the same input, concatenates the flattened final feature maps,
and classifies with one shared 2-way fully connected head. Branches sharing a
depth get distinct conv1/conv2 kernel sizes by a deterministic variant rule.
"""

import math
from dataclasses import dataclass, field, fields

from .layers import ShapeError, conv_extent
from .tensor import parse_int_list

DEPTHS = (3, 4, 5)  # the conv depths a branch may have
FILTERS = (64, 96, 96, 64, 64)  # a depth-d branch takes the first d
KERNELS = (7, 5, 3, 3, 3)
CONV_PADS = (2, 1, 1, 1)  # conv2 on; conv1's is ArchConfig.conv1_padding
NUM_CLASSES = 2
MAX_BRANCHES = 4

# variant v > 0 re-kernels conv1/conv2 so same-depth branches differ;
# the (v + v // 3) phase keeps all four possible duplicates distinct
CONV1_CYCLE = (7, 5, 9)
CONV2_CYCLE = (5, 3, 5)

# the least value of each ArchConfig field; the fields not named must be > 0
_CONFIG_MINIMUM = {"conv1_stride": 1, "conv1_padding": 0, "pool_window": 1,
                   "pool_stride": 1, "lrn_radius": 0, "lrn_alpha": 0,
                   "init_sigma": 0}


@dataclass(frozen=True)
class ArchConfig:
    """Tunable constants shared by every branch of one network.

    init_sigma 0.01 suits the full-scale filter counts; scaled-down networks
    (filter_scale < 1) have smaller fan-ins and need a proportionally larger
    sigma to keep activations alive through the stack.
    """
    conv1_stride: int = 4
    conv1_padding: int = 2
    pool_window: int = 3
    pool_stride: int = 2
    lrn_radius: int = 2
    lrn_k: float = 2.0
    lrn_alpha: float = 1e-4
    lrn_beta: float = 0.75
    filter_scale: float = 1.0
    init_sigma: float = 0.01

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            low = _CONFIG_MINIMUM.get(f.name)
            if low is None and not value > 0:
                raise ValueError(f"{f.name} must be > 0, got {value}")
            if low is not None and value < low:
                raise ValueError(f"{f.name} must be >= {low}, got {value}")


DEFAULT_CONFIG = ArchConfig()


@dataclass(frozen=True)
class LayerSpec:
    kind: str            # conv | pool | lrn | relu; pool/lrn use ArchConfig's
    name: str
    filters: int = 0     # conv
    kernel: int = 0      # conv
    stride: int = 1      # conv
    padding: int = 0     # conv


@dataclass(frozen=True)
class ArchitectureSpec:
    depth: int
    variant: int
    layers: tuple


@dataclass(frozen=True)
class PdcnnSpec:
    branches: tuple
    input_shape: tuple = (3, 224, 224)
    config: ArchConfig = field(default_factory=ArchConfig)


def build_arch(depth: int, variant: int = 0,
               config: ArchConfig = DEFAULT_CONFIG) -> ArchitectureSpec:
    """Single-branch layout for the given conv depth (3, 4, or 5), each pool
    before its ReLU (the paper's order swapped: max(0, .) commutes with a
    window max). Variant 0 is canonical; higher variants cycle the
    conv1/conv2 kernel sizes so equal-depth branches stay distinct.
    """
    if depth not in DEPTHS:
        raise ValueError(f"unsupported depth {depth}; expected one of "
                         f"{', '.join(map(str, DEPTHS))}")
    if variant < 0:
        raise ValueError(f"variant must be >= 0, got {variant}")
    kernels = list(KERNELS[:depth])
    if variant > 0:
        kernels[0] = CONV1_CYCLE[variant % 3]
        kernels[1] = CONV2_CYCLE[(variant + variant // 3) % 3]
    layers = []
    for i in range(depth):
        filters = max(1, round(FILTERS[i] * config.filter_scale))
        stride = config.conv1_stride if i == 0 else 1
        padding = config.conv1_padding if i == 0 else CONV_PADS[i - 1]
        layers.append(LayerSpec(kind="conv", name=f"conv{i + 1}",
                                filters=filters, kernel=kernels[i],
                                stride=stride, padding=padding))
        if i < 3:
            layers.append(LayerSpec(kind="pool", name=f"pool{i + 1}"))
        layers.append(LayerSpec(kind="relu", name=f"relu{i + 1}"))
        if i < 3:
            norm_name = "norm1" if i == 0 else f"rnorm{i + 1}"
            layers.append(LayerSpec(kind="lrn", name=norm_name))
    return ArchitectureSpec(depth=depth, variant=variant, layers=tuple(layers))


def branch_count(n: int, name: str = "branch count") -> int:
    """n if a network may have n branches, else a ValueError naming `name`."""
    if not 1 <= n <= MAX_BRANCHES:
        raise ValueError(f"{name} must be in [1, {MAX_BRANCHES}], got {n}".lstrip())
    return n


def build_pdcnn(depths, variants=None, input_shape=(3, 224, 224),
                config: ArchConfig = DEFAULT_CONFIG) -> PdcnnSpec:
    """Parallel composition: branch i gets variant = count of earlier branches
    with the same depth, so duplicate depths differ in kernel size."""
    depths = list(depths)
    branch_count(len(depths))
    if variants is None:
        variants = [depths[:i].count(d) for i, d in enumerate(depths)]
    elif len(variants) != len(depths):
        raise ValueError("variants list must match depths list length")
    branches = tuple(build_arch(d, v, config) for d, v in zip(depths, variants))
    return PdcnnSpec(branches=branches, input_shape=tuple(input_shape),
                     config=config)


@dataclass(frozen=True)
class ShapeRow:
    branch: str
    layer: str
    shape: tuple
    params: int = 0  # trainable scalars: a conv's or the head's


def shape_check(spec: PdcnnSpec):
    """Dry-run forward shape propagation of spec.input_shape through every
    branch and the concatenation: the one walk over a spec's geometry.

    Returns a ShapeRow for each branch layer, the fused feature vector, and
    the shared classifier that replaces a branch's own fc; raises ShapeError
    naming the first offending layer.
    """
    input_shape = tuple(int(v) for v in spec.input_shape)
    if len(input_shape) != 3 or any(v < 1 for v in input_shape):
        raise ShapeError(f"input shape must be 3 positive extents, got {input_shape}")
    window, stride = spec.config.pool_window, spec.config.pool_stride
    rows = []
    fused = 0
    for i, arch in enumerate(spec.branches):
        c, h, w = input_shape
        for layer in arch.layers:
            where = f"branch{i + 1}/{layer.name}"
            params = 0
            if layer.kind == "conv":
                oh = conv_extent(h, layer.kernel, layer.stride, layer.padding)
                ow = conv_extent(w, layer.kernel, layer.stride, layer.padding)
                if oh < 1 or ow < 1:
                    raise ShapeError(f"{where}: output extent {oh}x{ow} "
                                     f"collapsed (input {c}x{h}x{w})")
                params = layer.filters * (c * layer.kernel ** 2 + 1)
                c, h, w = layer.filters, oh, ow
            elif layer.kind == "pool":
                if window > h or window > w:
                    raise ShapeError(f"{where}: pool window {window} "
                                     f"exceeds input {h}x{w}")
                h = conv_extent(h, window, stride, 0)
                w = conv_extent(w, window, stride, 0)
            # relu / lrn preserve shape
            rows.append(ShapeRow(f"branch{i + 1}", layer.name, (c, h, w), params))
        fused += c * h * w
    rows.append(ShapeRow("fusion", "concat", (fused,)))
    rows.append(ShapeRow("head", "fc2", (NUM_CLASSES,),
                         NUM_CLASSES * (fused + 1)))
    return rows


def param_count(spec: PdcnnSpec) -> int:
    """Total trainable scalars: all branch convolutions plus the shared head."""
    return sum(row.params for row in shape_check(spec))


# Every architecture-description key and its parser: the four spec keys, then
# the ArchConfig fields in declaration order (the order model files use).
ARCH_KEYS = {"depths": parse_int_list, "variants": parse_int_list,
             "input_channels": int, "input_size": int,
             **{f.name: f.type for f in fields(ArchConfig)}}


def spec_from_arch_dict(d: dict) -> PdcnnSpec:
    """Build a PdcnnSpec from an architecture description, as
    tensor.parse_kv_file(path, ARCH_KEYS) reads one; the ArchConfig fields d
    omits keep their defaults."""
    if "depths" not in d:
        raise ValueError("architecture description must name a depths list")
    size = d.get("input_size", 224)
    config = ArchConfig(**{f.name: d[f.name] for f in fields(ArchConfig)
                           if f.name in d})
    return build_pdcnn(d["depths"], variants=d.get("variants"),
                       input_shape=(d.get("input_channels", 3), size, size),
                       config=config)


def arch_dict_from_spec(spec: PdcnnSpec) -> dict:
    """Inverse of spec_from_arch_dict, for embedding in model files; keys come
    in ARCH_KEYS order and ArchConfig fields only where they differ from the
    default."""
    if spec.input_shape[1] != spec.input_shape[2]:
        raise ValueError("only square inputs serialize to an arch description")
    d = {
        "depths": [a.depth for a in spec.branches],
        "variants": [a.variant for a in spec.branches],
        "input_channels": spec.input_shape[0],
        "input_size": spec.input_shape[1],
    }
    for f in fields(ArchConfig):
        value = getattr(spec.config, f.name)
        if value != f.default:
            d[f.name] = value
    return d
