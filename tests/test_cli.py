import ctypes
import glob
import io
import os
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdcnn import tensor as T
from pdcnn.arch import ArchConfig, build_pdcnn
from pdcnn.cli import main
from pdcnn.network import PdcnnNet, save_model

DESK_ARCH = (
    "conv1_stride=2\n"
    "pool_window=2\n"
    "pool_stride=2\n"
    "filter_scale=0.05\n"
    "init_sigma=0.3\n"
    "input_size=20\n"
)

FIXTURE_CSV = (
    "depths,error\n"
    "3,0.09916\n"
    "4,0.08571\n"
    "5,0.09832\n"
    '"4,3",0.082353\n'
    '"4,4",0.088235\n'
    '"4,5",0.107653\n'
    '"4,3,3",0.081513\n'
    '"4,3,4",0.079832\n'
    '"4,3,5",0.089916\n'
    '"4,3,4,3",0.094118\n'
    '"4,3,4,4",0.083193\n'
    '"4,3,4,5",0.089916\n'
)


def _gendata(tmp_path, name="data", n=6, size=20, seed=3):
    out = tmp_path / name
    code = main(["gendata", "--out", str(out), "--n-per-class", str(n),
                 "--size", str(size), "--difficulty", "0", "--seed", str(seed)])
    assert code == 0
    return out


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


# --- gendata ---

def test_gendata_prints_record_count(tmp_path, capsys):
    out = _gendata(tmp_path, n=10)
    assert "records=20" in capsys.readouterr().out
    files = sorted(p.name for p in out.iterdir())
    assert len([f for f in files if f.endswith(".pdt")]) == 20
    assert "manifest.csv" in files


def test_gendata_missing_out_is_usage_error(tmp_path, capsys):
    assert main(["gendata", "--n-per-class", "2"]) == 2
    assert "--out" in capsys.readouterr().err


# the options each command requires, and the arguments that carry it on to
# its next step once they are given: gendata writes a tiny set, train and eval
# fail reading their missing input files
_REQUIRED = {
    "gendata": (("out",), ["--n-per-class", "1", "--size", "16"], 0),
    "train": (("manifest", "out"), ["--depths", "4"], 1),
    "eval": (("model", "manifest"), [], 1),
}


@pytest.mark.parametrize("command,key", [
    (command, key) for command, (keys, _, _) in _REQUIRED.items()
    for key in keys])
def test_required_option_is_checked_for_flag_and_config_file(tmp_path, capsys,
                                                             command, key):
    keys, extra, code = _REQUIRED[command]
    value = {k: str(tmp_path / k) for k in keys}
    others = [f"--{k}={value[k]}" for k in keys if k != key]
    assert main([command, *others, *extra]) == 2
    assert capsys.readouterr().err == (
        f"usage error: {command} requires --{key} (flag or config file)\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value[key]}\n", encoding="utf-8")
    assert main([command, *others, *extra, "--config", str(cfg)]) == code
    assert "requires" not in capsys.readouterr().err


def test_config_file_can_supply_paths(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out={tmp_path / 'd'}\nn_per_class=3\nsize=16\n"
                   "difficulty=0\nseed=1\n", encoding="utf-8")
    assert main(["gendata", "--config", str(cfg)]) == 0
    assert "records=6" in capsys.readouterr().out
    assert (tmp_path / "d" / "manifest.csv").exists()


def test_gendata_reruns_identically(tmp_path):
    a = _gendata(tmp_path, "a")
    b = _gendata(tmp_path, "b")
    assert _dir_bytes(a) == _dir_bytes(b)


# --- train ---

def _train(tmp_path, out_name="run", extra=(), epochs=2, depths="3"):
    data = tmp_path / "data"
    if not data.exists():
        _gendata(tmp_path)
    arch = tmp_path / "arch.txt"
    arch.write_text(DESK_ARCH, encoding="utf-8")
    out = tmp_path / out_name
    argv = ["train", "--manifest", str(data / "manifest.csv"),
            "--depths", depths, "--arch", str(arch), "--epochs", str(epochs),
            "--seed", "5", "--out", str(out), "--batch-size", "4",
            *extra]
    return main(argv), out


def test_train_writes_artifacts(tmp_path, capsys):
    code, out = _train(tmp_path)
    assert code == 0
    curve = (out / "curve.csv").read_text(encoding="utf-8").splitlines()
    assert curve[0] == "epoch,train_loss,train_error,test_error,seconds"
    assert len(curve) == 3  # header + 2 epochs
    assert (out / "model.bin").exists()
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert "param_count=" in report and "best_test_error=" in report
    assert "test_protocol=center_crop_no_flip" in report
    assert "trained depths=3" in capsys.readouterr().out


def test_train_zero_epochs(tmp_path):
    code, out = _train(tmp_path, out_name="zero", epochs=0)
    assert code == 0
    lines = (out / "curve.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1  # header only
    assert (out / "model.bin").exists()


def test_train_deterministic_artifacts(tmp_path):
    code1, out1 = _train(tmp_path, "r1", extra=["--dtype", "float64"])
    code2, out2 = _train(tmp_path, "r2", extra=["--dtype", "float64"])
    assert code1 == code2 == 0
    assert (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()
    assert (out1 / "model.bin").read_bytes() == (out2 / "model.bin").read_bytes()
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_train_bytes_do_not_depend_on_the_blas_thread_setting(tmp_path):
    # pdcnn pins BLAS to one thread before numpy loads, so a desk 4,3,4 run
    # that leaves the thread count to OpenBLAS (one per core) writes the
    # bytes of a run with OPENBLAS_NUM_THREADS=1
    data = tmp_path / "data"
    assert main(["gendata", "--out", str(data), "--n-per-class", "40",
                 "--size", "64", "--seed", "7"]) == 0
    arch = tmp_path / "desk.arch"
    arch.write_text("conv1_stride=2\nfilter_scale=0.25\ninit_sigma=0.06\n"
                    "input_size=56\n", encoding="utf-8")
    unset = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    runs = []
    for name, env in (("unset", unset),
                      ("one", {**unset, "OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "pdcnn.cli", "train", "--manifest",
             str(data / "manifest.csv"), "--arch", str(arch), "--depths",
             "4,3,4", "--epochs", "2", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        runs.append([(out / f).read_bytes() for f in ("model.bin", "curve.csv")])
    assert runs[0] == runs[1]


def test_tests_run_on_one_blas_thread():
    # tests/conftest.py imports pdcnn before any test module loads numpy, so
    # the pin holds here too, read back from the OpenBLAS numpy bundles
    if os.environ["OPENBLAS_NUM_THREADS"] != "1":
        pytest.skip("the test run set its own BLAS thread count")
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    getters = [getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_",
                       None) for lib in libs]
    getters = [get for get in getters if get is not None]
    if not getters:
        pytest.skip("numpy's build exports no scipy_openblas_get_num_threads64_")
    assert [get() for get in getters] == [1]


def test_train_shape_error_exit_1(tmp_path, capsys):
    data = _gendata(tmp_path)
    out = tmp_path / "bad"
    # default full-scale strides collapse on 20-pixel inputs
    arch = tmp_path / "size20.arch"
    arch.write_text("input_size=20\n", encoding="utf-8")
    code = main(["train", "--manifest", str(data / "manifest.csv"),
                 "--depths", "4", "--arch", str(arch), "--epochs", "1",
                 "--out", str(out)])
    assert code == 1
    assert "pool" in capsys.readouterr().err


def test_train_rotate_flag(tmp_path):
    code, out = _train(tmp_path, "rot", extra=["--rotate"], epochs=1)
    assert code == 0
    # 6 per class -> 12 images -> 48 after rotation -> 36 train samples


def test_train_rotate_from_config_file_matches_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rotate=yes\n", encoding="utf-8")
    runs = {name: _train(tmp_path, name, extra=extra, epochs=1)
            for name, extra in (("flag", ["--rotate"]),
                                ("config", ["--config", str(cfg)]),
                                ("plain", []))}
    assert all(code == 0 for code, _ in runs.values())
    model = {name: (out / "model.bin").read_bytes()
             for name, (_, out) in runs.items()}
    assert model["config"] == model["flag"]
    assert model["plain"] != model["flag"]


def test_train_three_branch_winner_shape(tmp_path):
    code, out = _train(tmp_path, "multi", depths="4,3,4", epochs=1)
    assert code == 0
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert "param_count=" in report
    from pdcnn.network import load_model
    net = load_model(out / "model.bin")
    assert [a.depth for a in net.spec.branches] == [4, 3, 4]
    assert [a.variant for a in net.spec.branches] == [0, 0, 1]


def test_train_missing_depths_usage_error(tmp_path, capsys):
    data = _gendata(tmp_path)
    code = main(["train", "--manifest", str(data / "manifest.csv"),
                 "--epochs", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "depths" in capsys.readouterr().err


@pytest.mark.parametrize("depths,message", [
    ("6", "unsupported depth 6; expected one of 3, 4, 5"),
    ("4,3,4,3,4", "branch count must be in [1, 4], got 5"),
], ids=["depth", "count"])
@pytest.mark.parametrize("with_arch", [False, True], ids=["flag", "arch"])
def test_bad_depths_flag_is_usage_error_not_blamed_on_arch(tmp_path, capsys,
                                                           depths, message,
                                                           with_arch):
    # checked when parsed, before the --arch file or the manifest is read
    arch = tmp_path / "tiny.arch"
    arch.write_text(DESK_ARCH, encoding="utf-8")
    extra = ["--arch", str(arch)] if with_arch else []
    code = main(["train", "--depths", depths, *extra, "--manifest",
                 str(tmp_path / "missing.csv"), "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"usage error: argument --depths: {message}\n")


@pytest.mark.parametrize("source", ["arch", "flag", "replay", "config"])
def test_bad_candidates_is_usage_error_not_blamed_on_arch(tmp_path, capsys,
                                                          source):
    # each candidate depth is checked alone when parsed, before the --arch
    # file, the replay fixture or the manifest is read
    arch = tmp_path / "desk.arch"
    arch.write_text(DESK_ARCH, encoding="utf-8")
    fixture = tmp_path / "fixture.csv"
    fixture.write_text(FIXTURE_CSV, encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=3\ncandidates=3,6\n", encoding="utf-8")
    manifest = ["--manifest", str(tmp_path / "missing.csv")]
    argv, where = {
        "arch": (["--candidates", "3,6", "--arch", str(arch), *manifest],
                 "argument --candidates"),
        "flag": (["--candidates", "3,6", *manifest], "argument --candidates"),
        "replay": (["--candidates", "3,6", "--replay", str(fixture)],
                   "argument --candidates"),
        "config": (["--config", str(cfg), *manifest], f"{cfg}:2: candidates"),
    }[source]
    out = tmp_path / "s"
    code = main(["search", *argv, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"usage error: {where}: unsupported depth 6; expected one of 3, 4, 5\n")
    assert not out.exists()


def test_train_arch_bad_value_names_file_line_and_key(tmp_path, capsys):
    data = _gendata(tmp_path)
    arch = tmp_path / "arch.txt"
    arch.write_text("# preset\nconv1_stride=x\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["train", "--manifest", str(data / "manifest.csv"),
                 "--depths", "4", "--arch", str(arch), "--epochs", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {arch}:2: conv1_stride: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("line,message", [
    ("conv1_stride=0", "conv1_stride must be >= 1, got 0"),
    ("conv1_padding=-1", "conv1_padding must be >= 0, got -1"),
    ("pool_window=0", "pool_window must be >= 1, got 0"),
    ("lrn_radius=-1", "lrn_radius must be >= 0, got -1"),
    ("lrn_k=0", "lrn_k must be > 0, got 0.0"),
    ("lrn_alpha=-5", "lrn_alpha must be >= 0, got -5.0"),
    ("lrn_beta=0", "lrn_beta must be > 0, got 0.0"),
    ("filter_scale=-3", "filter_scale must be > 0, got -3.0"),
    ("init_sigma=-1", "init_sigma must be >= 0, got -1.0"),
    ("filter_scale=inf", "filter_scale must be finite, got inf"),
    ("lrn_k=-inf", "lrn_k must be finite, got -inf"),
    ("lrn_alpha=inf", "lrn_alpha must be finite, got inf"),
    ("lrn_beta=nan", "lrn_beta must be finite, got nan"),
    ("init_sigma=nan", "init_sigma must be finite, got nan"),
])
def test_train_arch_impossible_value_is_one_line_error(tmp_path, capsys, line,
                                                       message):
    # the manifest does not exist: the arch file is checked before it is read
    arch = tmp_path / "arch.txt"
    arch.write_text(f"input_size=20\n{line}\n", encoding="utf-8")
    code = main(["train", "--manifest", str(tmp_path / "missing.csv"),
                 "--depths", "3", "--arch", str(arch), "--epochs", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {arch}: {message}\n"


@pytest.mark.parametrize("argv", [
    ["train", "--depths", "4"],
    ["search", "--candidates", "3,4"],
], ids=["train", "search"])
def test_bad_arch_is_reported_before_manifest_is_read(tmp_path, capsys, argv):
    arch = tmp_path / "arch.txt"
    arch.write_text("conv1_stride=0\n", encoding="utf-8")
    code = main([*argv, "--arch", str(arch), "--manifest",
                 str(tmp_path / "missing.csv"), "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {arch}: conv1_stride must be >= 1, got 0\n")


def _source_argv(tmp_path, source):
    """A command line for `source` whose manifest is missing, or, for
    search-replay, whose replay fixture is valid."""
    fixture = tmp_path / "fixture.csv"
    fixture.write_text(FIXTURE_CSV, encoding="utf-8")
    manifest = ["--manifest", str(tmp_path / "missing.csv")]
    return {"train": ["train", "--depths", "4", *manifest],
            "search": ["search", "--candidates", "3,4", *manifest],
            "search-replay": ["search", "--replay", str(fixture)]}[source]


SOURCES = ["train", "search", "search-replay"]


@pytest.mark.parametrize("source", SOURCES)
def test_bad_dtype_is_usage_error_before_manifest_is_read(tmp_path, capsys, source):
    out = tmp_path / "x"
    code = main([*_source_argv(tmp_path, source), "--dtype", "int8",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: dtype must be float32 or float64")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("flag,value,message", [
    ("--batch-size", "-1", "batch_size must be >= 1, got -1"),
    ("--batch-size", "0", "batch_size must be >= 1, got 0"),
    ("--epochs", "-1", "max_epochs must be >= 0, got -1"),
    ("--lr", "nan", "learning_rate must be finite, got nan"),
    ("--momentum", "inf", "momentum must be finite, got inf"),
    ("--lr-drop", "-inf", "lr_drop must be finite, got -inf"),
    ("--lr", "-0.5", "learning_rate must be >= 0, got -0.5"),
    ("--momentum", "1.5", "momentum must be in [0, 1), got 1.5"),
    ("--momentum", "1", "momentum must be in [0, 1), got 1.0"),
    ("--weight-decay", "-1", "weight_decay must be >= 0, got -1.0"),
    ("--lr-drop", "-2", "lr_drop must be in (0, 1], got -2.0"),
    ("--lr-drop", "0", "lr_drop must be in (0, 1], got 0.0"),
    ("--lr-patience", "-3", "lr_patience must be >= 1, got -3"),
])
def test_bad_sgd_option_is_usage_error_before_manifest_is_read(
        tmp_path, capsys, source, flag, value, message):
    out = tmp_path / "x"
    code = main([*_source_argv(tmp_path, source), f"{flag}={value}",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


def test_bad_sgd_config_file_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("batch_size=0\n", encoding="utf-8")
    code = main(["train", "--depths", "4", "--config", str(cfg), "--manifest",
                 str(tmp_path / "missing.csv"), "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == "usage error: batch_size must be >= 1, got 0\n"


def test_out_of_memory_is_one_line_error(tmp_path, capsys, monkeypatch):
    # numpy's MemoryError names the allocation; Python's own has no text
    for error, line in [
            (MemoryError("Unable to allocate 4.12 GiB for an array"),
             "error: Unable to allocate 4.12 GiB for an array\n"),
            (MemoryError(), "error: out of memory\n")]:
        def out_of_memory(*args, **kwargs):
            raise error

        monkeypatch.setattr("pdcnn.cli.train", out_of_memory)
        code, _ = _train(tmp_path)
        assert code == 1
        assert capsys.readouterr().err == line


# --- eval ---

def test_eval_prints_error_rate(tmp_path, capsys):
    _, out = _train(tmp_path)
    data = tmp_path / "data"
    capsys.readouterr()
    code = main(["eval", "--model", str(out / "model.bin"),
                 "--manifest", str(data / "manifest.csv")])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("error_rate=")
    value = float(text.strip().split("=")[1])
    assert 0.0 <= value <= 1.0

    code = main(["eval", "--model", str(out / "model.bin"),
                 "--manifest", str(data / "manifest.csv")])
    assert code == 0
    assert capsys.readouterr().out == text  # deterministic


def test_eval_empty_manifest_exit_1(tmp_path, capsys):
    _, out = _train(tmp_path)
    empty = tmp_path / "empty.csv"
    empty.write_text("path,label,category\n", encoding="utf-8")
    code = main(["eval", "--model", str(out / "model.bin"),
                 "--manifest", str(empty)])
    assert code == 1


def test_eval_truncated_model_exit_1(tmp_path, capsys):
    _, out = _train(tmp_path)
    model = out / "model.bin"
    model.write_bytes(model.read_bytes()[:-3])  # cut inside the last tensor
    capsys.readouterr()
    code = main(["eval", "--model", str(model),
                 "--manifest", str(tmp_path / "data" / "manifest.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: truncated")
    assert err.count("\n") == 1


def test_eval_bad_model_dtype_exit_1(tmp_path, capsys):
    _, out = _train(tmp_path)
    model = out / "model.bin"
    raw = model.read_bytes()
    size = struct.unpack_from("<I", raw, 8)[0]
    meta = raw[12:12 + size].replace(b"dtype=float32", b"dtype=foo")
    assert b"dtype=foo" in meta
    model.write_bytes(raw[:8] + struct.pack("<I", len(meta)) + meta
                      + raw[12 + size:])
    capsys.readouterr()
    code = main(["eval", "--model", str(model),
                 "--manifest", str(tmp_path / "data" / "manifest.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: ")
    assert err.count("\n") == 1


def _tiny_net():
    config = ArchConfig(conv1_stride=2, pool_window=2, pool_stride=2,
                        filter_scale=0.05, init_sigma=0.3)
    return PdcnnNet(build_pdcnn([4, 3], input_shape=(3, 20, 20), config=config),
                    T.Rng(1), dtype=np.float32)


def test_eval_non_finite_model_tensor_exit_1(tmp_path, capsys):
    net = _tiny_net()
    net.branches[0][0].weights[0, 0, 0, 0] = np.nan
    model = tmp_path / "model.bin"
    save_model(net, model)
    data = _gendata(tmp_path, n=4)
    capsys.readouterr()
    code = main(["eval", "--model", str(model),
                 "--manifest", str(data / "manifest.csv")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {model}: tensor branch1/conv1/weights contains non-finite "
        "elements\n")


@pytest.mark.parametrize("record", [
    struct.pack("<III", 2, 2**32 - 1, 2**32 - 1),
    struct.pack("<66I", 65, *[1] * 65) + bytes(4),
    struct.pack("<5I", 4, 0, *[2**32 - 1] * 3),
], ids=["extents-beyond-file", "rank-65", "zero-extent-beside-huge-ones"])
def test_eval_unreadable_image_header_exit_1(tmp_path, capsys, record):
    # the last two fit the file but not numpy (rank 65 is above its limit in
    # every version; a zero extent makes no payload beside extents it cannot
    # index), which refuses them before allocating
    _, out = _train(tmp_path)
    image = tmp_path / "huge.pdt"
    image.write_bytes(b"PDT1" + record)
    manifest = tmp_path / "huge.csv"
    manifest.write_text(f"path,label,category\n{image},0,t\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["eval", "--model", str(out / "model.bin"),
                 "--manifest", str(manifest)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {image}: ")
    assert err.count("\n") == 1


_CAPPED_EVAL = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from pdcnn.cli import main
sys.exit(main(["eval", "--model", sys.argv[1], "--manifest", sys.argv[2]]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS caps the address space only on Linux")
@pytest.mark.parametrize("raw,left", [
    (b"PDM1" + struct.pack("<II", 1, 0xFFFFFFF0) + b"depths=4", 8),
    (b"PDM1" + struct.pack("<IIII", 1, 0, 1, 0xFFFFFFF0) + b"branch", 6),
], ids=["meta-length", "name-length"])
def test_eval_model_declaring_4_gib_is_one_line_error(tmp_path, raw, left):
    # under a 2 GiB address-space cap a length read before it is checked
    # fails to allocate, which would print a bare "error: "
    model = tmp_path / "bad.bin"
    model.write_bytes(raw)
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_EVAL, str(model),
         str(tmp_path / "missing.csv")],
        capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == (f"error: {model}: truncated file "
                           f"(needed 4294967280 bytes, got {left})\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
@pytest.mark.parametrize("role", ["model", "image", "manifest", "arch"])
def test_fifo_input_is_one_line_error(tmp_path, role):
    # nothing opens the FIFO's other end, so a reader that waited for a
    # writer would never return: the run gets a timeout, not the suite
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    model, manifest = _tiny_model(tmp_path), tmp_path / "m.csv"
    manifest.write_text(f"path,label,category\n{fifo},0,t\n",
                        encoding="utf-8")
    argv = {
        "model": ["eval", "--model", fifo, "--manifest", manifest],
        "image": ["eval", "--model", model, "--manifest", manifest],
        "manifest": ["eval", "--model", model, "--manifest", fifo],
        "arch": ["train", "--arch", fifo, "--depths", "3",
                 "--manifest", manifest, "--out", tmp_path / "out"],
    }[role]
    proc = subprocess.run([sys.executable, "-m", "pdcnn.cli", *map(str, argv)],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {fifo}: not a regular file\n"
    assert not (tmp_path / "out").exists()


def _tiny_model(tmp_path):
    model = tmp_path / "model.bin"
    save_model(_tiny_net(), model)
    return model


def _version_2(raw):
    return raw[:4] + struct.pack("<I", 2) + raw[8:]


def _conv3_bias_named_conv2(raw):
    # same total size: conv2 and conv3 of branch 1 have equal filter counts
    assert raw.count(b"branch1/conv3/bias") == 1
    return raw.replace(b"branch1/conv3/bias", b"branch1/conv2/bias")


def _meta_without_depths(raw):
    size = struct.unpack_from("<I", raw, 8)[0]
    lines = raw[12:12 + size].decode().splitlines(keepends=True)
    meta = "".join(line for line in lines
                   if not line.startswith("depths=")).encode()
    return raw[:8] + struct.pack("<I", len(meta)) + meta + raw[12 + size:]


@pytest.mark.parametrize("edit,message", [
    (_version_2, "unsupported model version 2"),
    (_conv3_bias_named_conv2, "model/arch mismatch: tensor 'branch1/conv2/bias' "
                              "given 2 times, expected once"),
    (_meta_without_depths, "architecture description must name a depths list"),
], ids=["version-2", "tensor-named-twice", "meta-without-depths"])
def test_eval_bad_model_file_is_one_line_error(tmp_path, capsys, edit, message):
    model = _tiny_model(tmp_path)
    model.write_bytes(edit(model.read_bytes()))
    code = main(["eval", "--model", str(model),
                 "--manifest", str(tmp_path / "missing.csv")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {model}: {message}\n"


@pytest.mark.parametrize("shape,message", [
    ((20, 20), "expected a rank-3 image tensor, got shape (20, 20)"),
    ((3, 12, 20), "image 12x20 smaller than crop size 20"),
], ids=["rank-2", "smaller-than-crop"])
def test_eval_bad_image_is_one_line_error(tmp_path, capsys, shape, message):
    model = _tiny_model(tmp_path)
    image = tmp_path / "img.pdt"
    T.write_pdt(image, np.full(shape, 0.5, dtype=np.float32))
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"path,label,category\n{image},0,t\n", encoding="utf-8")
    code = main(["eval", "--model", str(model), "--manifest", str(manifest)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {image}: {message}\n"


# --- search ---

def test_search_replay_full(tmp_path, capsys):
    fixture = tmp_path / "fixture.csv"
    fixture.write_text(FIXTURE_CSV, encoding="utf-8")
    out = tmp_path / "search"
    code = main(["search", "--replay", str(fixture), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "chose 4 " in printed
    assert "chose 4,3 " in printed
    assert "chose 4,3,4 " in printed
    assert "stop" in printed
    assert "winner=4,3,4" in printed
    trace = (out / "search.csv").read_text(encoding="utf-8")
    assert trace.splitlines()[0] == "round,candidate_depths,error,chosen"
    assert 'winner,"4,3,4",0.079832,' in trace


def test_search_replay_max_branches_one(tmp_path, capsys):
    fixture = tmp_path / "fixture.csv"
    fixture.write_text(FIXTURE_CSV, encoding="utf-8")
    code = main(["search", "--replay", str(fixture),
                 "--out", str(tmp_path / "s1"), "--max-branches", "1"])
    assert code == 0
    assert "winner=4" in capsys.readouterr().out


@pytest.mark.parametrize("source", ["flag", "config", "replay", "manifest"])
def test_bad_max_branches_is_usage_error(tmp_path, capsys, source):
    # checked when parsed, before the replay fixture or the manifest is read
    fixture = tmp_path / "fixture.csv"
    fixture.write_text(FIXTURE_CSV, encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=3\nmax_branches=0\n", encoding="utf-8")
    argv, message = {
        "flag": (["--max-branches", "9"],
                 "argument --max-branches: must be in [1, 4], got 9"),
        "config": (["--config", str(cfg), "--replay", str(fixture)],
                   f"{cfg}:2: max_branches: must be in [1, 4], got 0"),
        "replay": (["--max-branches", "5", "--replay", str(fixture)],
                   "argument --max-branches: must be in [1, 4], got 5"),
        "manifest": (["--max-branches", "0", "--manifest",
                      str(tmp_path / "missing.csv")],
                     "argument --max-branches: must be in [1, 4], got 0"),
    }[source]
    out = tmp_path / "s"
    assert main(["search", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


def test_search_replay_missing_row_exit_1(tmp_path, capsys):
    fixture = tmp_path / "fixture.csv"
    fixture.write_text("depths,error\n3,0.09916\n4,0.08571\n5,0.09832\n",
                       encoding="utf-8")
    out = tmp_path / "partial"
    code = main(["search", "--replay", str(fixture), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr() == (
        "", "search failed: no recorded error for depth list [4, 3]\n")
    trace = (out / "search.csv").read_text(encoding="utf-8")
    assert "1,4,0.08571,4" in trace


@pytest.mark.parametrize("row", ['"4,x",0.2', "4,abc", "4,nan", "4,inf",
                                 "4,-3", "4,1.5", "3,0.1", '" 3",0.1'])
def test_search_replay_bad_value_names_file_and_line(tmp_path, capsys, row):
    fixture = tmp_path / "fixture.csv"
    fixture.write_text(f"depths,error\n3,0.09916\n{row}\n", encoding="utf-8")
    code = main(["search", "--replay", str(fixture), "--out", str(tmp_path / "s")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fixture}:3: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "s").exists()


def test_search_without_inputs_usage_error(tmp_path, capsys):
    code = main(["search", "--out", str(tmp_path / "s")])
    assert code == 2


def test_search_trained_oracle(tmp_path, capsys):
    data = _gendata(tmp_path, n=4)
    arch = tmp_path / "arch.txt"
    arch.write_text(DESK_ARCH, encoding="utf-8")
    out = tmp_path / "ts"
    code = main(["search", "--manifest", str(data / "manifest.csv"),
                 "--arch", str(arch), "--candidates", "3",
                 "--max-branches", "1", "--epochs", "1",
                 "--batch-size", "4", "--out", str(out)])
    assert code == 0
    assert "winner=3" in capsys.readouterr().out


# --- diag ---

def test_diag_time_rows(tmp_path, capsys):
    assert main(["diag", "--time", "8.32633,3,967"]) == 0
    assert "T=24155" in capsys.readouterr().out
    assert main(["diag", "--time", "10.78233,3,988"]) == 0
    assert "T=31959" in capsys.readouterr().out
    assert main(["diag", "--time", "6.26900,3,923"]) == 0
    assert "T=17359" in capsys.readouterr().out


def test_diag_time_writes_report(tmp_path):
    out = tmp_path / "diag"
    assert main(["diag", "--time", "8.32633,3,967", "--out", str(out)]) == 0
    lines = (out / "convergence.csv").read_text(encoding="utf-8").splitlines()
    assert lines == ["t,n,e,T", "8.32633,3,967,24155"]


def test_diag_model_variance(tmp_path, capsys):
    _, run = _train(tmp_path, depths="3,3", epochs=1)
    out = tmp_path / "diag"
    capsys.readouterr()
    code = main(["diag", "--model", str(run / "model.bin"), "--out", str(out)])
    assert code == 0
    assert "mean_variance=" in capsys.readouterr().out
    lines = (out / "variance.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "branch,layer,variance"
    assert len(lines) == 4  # two branches + mean row
    assert lines[-1].startswith("mean,,")


def test_diag_curve_detection(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    curve.write_text(
        "epoch,train_loss,train_error,test_error,seconds\n"
        "1,0.7,0.5,0.5,0\n2,0.6,0.4,0.3,0\n3,0.5,0.3,0.2,0\n"
        "4,0.5,0.3,0.2,0\n5,0.5,0.3,0.2,0\n",
        encoding="utf-8")
    code = main(["diag", "--curve", str(curve), "--window", "3",
                 "--tol", "0.01"])
    assert code == 0
    assert "convergence_epoch=3" in capsys.readouterr().out


def test_diag_without_inputs_usage_error(capsys):
    assert main(["diag"]) == 2


@pytest.mark.parametrize("flag,value", [("--window", "0"), ("--window", "-3"),
                                        ("--tol", "-0.1"), ("--tol", "nan")])
def test_diag_bad_window_or_tol_is_usage_error(tmp_path, capsys, flag, value):
    # checked as parsed: a flag's error names the flag, a config file's its
    # file, line and key
    curve = tmp_path / "curve.csv"
    curve.write_text("epoch,train_loss,train_error,test_error,seconds\n"
                     "1,0.7,0.5,0.5,0\n", encoding="utf-8")
    key = flag[2:]
    message = f"must be >= {1 if key == 'window' else 0}, got {value}"
    assert main(["diag", "--curve", str(curve), flag, value]) == 2
    assert capsys.readouterr().err == (
        f"usage error: argument {flag}: {message}\n")
    cfg = tmp_path / "diag.cfg"
    cfg.write_text(f"{key}={value}\n", encoding="utf-8")
    assert main(["diag", "--curve", str(curve), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"usage error: {cfg}:1: {key}: {message}\n"


def test_diag_bad_time_format(capsys):
    assert main(["diag", "--time", "1,2"]) == 2


@pytest.mark.parametrize("value", ["1.5,x,3", "x,2,3", "1.5,2,3.5"])
def test_diag_bad_time_number_is_usage_error(tmp_path, capsys, value):
    assert main(["diag", "--time", value, "--out", str(tmp_path / "d")]) == 2
    assert value in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("value", [
    "-1,3,967", "inf,3,967", "nan,3,967", "1e300,100000,100000",
    pytest.param(f"1,{10**400},2", id="400-digit-n"),
    pytest.param(f"1,2,{10**400}", id="400-digit-e"),
])
def test_diag_time_out_of_range_is_one_error_line(tmp_path, capsys, value):
    assert main(["diag", f"--time={value}", "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: convergence_time inputs must be >= 0 ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "d").exists()


_TIME_PART = st.one_of(
    st.integers(-10**400, 10**400).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(str),
    st.text(max_size=6))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(parts=st.lists(_TIME_PART, min_size=1, max_size=4))
def test_diag_time_ends_in_an_exit_code_whatever_the_text(parts):
    # huge ints, infinities, NaN and junk end in exit 0, 1 or 2 with at most
    # one stderr line, never a traceback
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["diag", f"--time={','.join(parts)}"])
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1


def test_diag_missing_model_is_one_error_line(tmp_path, capsys):
    model = tmp_path / "missing.bin"
    out = tmp_path / "d"
    assert main(["diag", "--model", str(model), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(model) in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--depths", "3", "--manifest", "missing.csv"],
    ["search", "--manifest", "missing.csv"],
    ["search", "--replay", "missing.csv"],
    ["diag", "--model", "missing.bin"],
    ["diag", "--time", "8.32633,3,967"],
    ["gendata"],
], ids=["train", "search", "search-replay", "diag-model", "diag-time",
        "gendata"])
def test_out_naming_a_file_fails_before_any_input(tmp_path, capsys, argv):
    # the inputs do not exist: the --out check comes first, and no command
    # runs to its end only to fail on the write
    out = tmp_path / "out"
    out.write_text("keep\n", encoding="utf-8")
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"error: --out {out}: exists and is not a directory\n")
    assert out.read_text(encoding="utf-8") == "keep\n"


# --- config files ---

def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("not_a_key=1\n", encoding="utf-8")
    code = main(["gendata", "--out", str(tmp_path / "d"),
                 "--config", str(cfg)])
    assert code == 2
    assert "not_a_key" in capsys.readouterr().err


@pytest.mark.parametrize("line,key", [("epochs=x", "epochs"),
                                      ("rotate=maybe", "rotate")])
def test_config_file_bad_value_names_file_line_and_key(tmp_path, capsys, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# preset\nseed=3\n{line}\n", encoding="utf-8")
    code = main(["train", "--depths", "4", "--manifest", "m.csv",
                 "--out", str(tmp_path / "o"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"usage error: {cfg}:3: {key}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command,key", [("train", "depths"),
                                         ("search", "candidates")])
def test_config_file_bad_depth_list_names_file_line_and_key(tmp_path, capsys,
                                                            command, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed=3\n{key}=4,x\n", encoding="utf-8")
    code = main([command, "--manifest", "m.csv", "--out", str(tmp_path / "o"),
                 "--config", str(cfg)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"usage error: {cfg}:2: {key}: "
        "invalid literal for int() with base 10: 'x'\n")


@pytest.mark.parametrize("argv,needs", [
    (["train", "--depths", ","], "--depths or --arch"),
    (["search", "--candidates", ""], "--candidates"),
], ids=["train-depths", "search-candidates"])
def test_empty_depth_list_is_usage_error(tmp_path, capsys, argv, needs):
    assert main(argv + ["--manifest", "m.csv", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and needs in err
    assert len(err.splitlines()) == 1


def test_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_per_class=2\nsize=20\nseed=3\ndifficulty=0\n",
                   encoding="utf-8")
    code = main(["gendata", "--out", str(tmp_path / "d1"),
                 "--config", str(cfg), "--n-per-class", "5"])
    assert code == 0
    assert "records=10" in capsys.readouterr().out
    code = main(["gendata", "--out", str(tmp_path / "d2"),
                 "--config", str(cfg)])
    assert code == 0
    assert "records=4" in capsys.readouterr().out


# --- malformed text inputs: one line naming the file and line ---

_CURVE_HEAD = "epoch,train_loss,train_error,test_error,seconds\n"


def _text_argv(kind, path, tmp):
    out = str(tmp / "out")
    return {
        "arch": ["train", "--arch", path, "--depths", "3",
                 "--manifest", str(tmp / "m.csv"), "--out", out],
        "config": ["gendata", "--config", path, "--out", out],
        "manifest": ["train", "--manifest", path, "--depths", "3",
                     "--out", out],
        "fixture": ["search", "--replay", path, "--out", out],
        "curve": ["diag", "--curve", path],
    }[kind]


@pytest.mark.parametrize("kind,content,code,tail", [
    ("arch", b"conv1_stride=2\n\xff\n", 1, ": not UTF-8 text (byte 15)"),
    ("config", b"seed=1\n\xfe\n", 2, ": not UTF-8 text (byte 7)"),
    ("manifest", b"path,label,category\n\xffa.pdt,0,x\n", 1,
     ": not UTF-8 text (byte 20)"),
    ("fixture", b"depths,error\n3,0.1\xff\n", 1, ": not UTF-8 text (byte 18)"),
    ("curve", _CURVE_HEAD.encode() + b"1,0.5,0.5,\xff,0\n", 1,
     ": not UTF-8 text (byte 58)"),
    ("curve", _CURVE_HEAD.encode() + b"1,0.5,0.5,0.5,0\n2,0.5,0.5\n", 1,
     ":3: expected 5 columns, got 3"),
    ("curve", _CURVE_HEAD.encode() + b"1,0.5,0.5,0.5,0,9\n", 1,
     ":2: expected 5 columns, got 6"),
    ("curve", _CURVE_HEAD.encode() + b"1,0.5,0.5,x,0\n", 1,
     ":2: test_error: could not convert string to float: 'x'"),
    ("curve", _CURVE_HEAD.encode() + b"1,0.5,0.5,nan,0\n2,0.5,0.5,0.5,0\n",
     1, ":2: test_error: must be in [0, 1], got 'nan'"),
    ("curve", _CURVE_HEAD.encode() + b"1,0.5,0.5,-4,0\n2,0.5,0.5,0.5,0\n",
     1, ":2: test_error: must be in [0, 1], got '-4'"),
    ("curve", _CURVE_HEAD.encode() + b"1,0.5,1.5,0.5,0\n", 1,
     ":2: train_error: must be in [0, 1], got '1.5'"),
    ("curve", _CURVE_HEAD.encode() + b"1,0.5,0.5,0.5,0\n1,0.5,0.5,0.5,0\n",
     1, ":3: epoch: expected epoch 2, got '1'"),
    ("curve", _CURVE_HEAD.encode() + b"2,0.5,0.5,0.5,0\n", 1,
     ":2: epoch: expected epoch 1, got '2'"),
    ("manifest", b"path,label,category\na.pdt,2,x\n", 1,
     ":2: label: must be 0 or 1, got '2'"),
    ("config", b"# preset\nrotate=1\n", 2, ":2: unknown key 'rotate'"),
], ids=["arch-utf8", "config-utf8", "manifest-utf8", "fixture-utf8",
        "curve-utf8", "curve-short-row", "curve-long-row",
        "curve-bad-test-error", "curve-nan-test-error",
        "curve-negative-test-error", "curve-train-error-above-1",
        "curve-repeated-epoch", "curve-first-epoch-2", "manifest-label-2",
        "gendata-config-rotate"])
def test_malformed_text_input_is_one_line_error(tmp_path, capsys, kind,
                                                content, code, tail):
    path = tmp_path / f"{kind}.txt"
    path.write_bytes(content)
    assert main(_text_argv(kind, str(path), tmp_path)) == code
    err = capsys.readouterr().err
    prefix = "usage error: " if code == 2 else "error: "
    assert err == f"{prefix}{path}{tail}\n"


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
@pytest.mark.parametrize("kind", ["arch", "config", "manifest", "fixture",
                                  "curve"])
def test_text_input_not_a_regular_file_is_one_line_error(tmp_path, capsys,
                                                         kind):
    # /dev/null would read as empty text; a --config file that cannot be
    # read is an error like a missing one, not a usage error
    assert main(_text_argv(kind, "/dev/null", tmp_path)) == 1
    assert capsys.readouterr().err == "error: /dev/null: not a regular file\n"
    assert not (tmp_path / "out").exists()


def test_search_timing_is_usage_error(tmp_path, capsys):
    assert main(["search", "--timing", "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == \
        "usage error: unrecognized arguments: --timing\n"


@pytest.mark.parametrize("argv,message", [
    (["train", "--epochs", "x"], "argument --epochs: invalid int value: 'x'"),
    (["train", "--depths", "4,x"],
     "argument --depths: invalid literal for int() with base 10: 'x'"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ([], "the following arguments are required: command"),
], ids=["bad-int", "bad-depths", "unknown-command", "no-command"])
def test_argparse_errors_are_one_usage_error_line(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {message}")
    assert len(err.splitlines()) == 1


def test_console_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "pdcnn.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for command in ("gendata", "train", "eval", "search", "diag"):
        assert command in proc.stdout
