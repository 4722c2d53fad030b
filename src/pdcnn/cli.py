"""Command-line entry point: dataset generation, training, evaluation,
architecture search, and diagnostics.

Every command is deterministic given its flags (seeds included): repeated
invocations produce byte-identical outputs. Wall-clock timing is therefore
written only when --timing is passed. Exit codes: 0 success, 1 runtime or
data error, 2 usage error.

Options may also come from a flat key=value config file (--config); explicit
flags win, and an unknown key or a value its option cannot parse is a usage
error naming the file, the line and the key. Every usage error, argparse's
own included, is one "usage error: ..." line on stderr.
"""

import argparse
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

from . import data as D
from . import diag as G
from . import search as S
from .arch import (ARCH_KEYS, DEPTHS, MAX_BRANCHES, branch_count, build_arch,
                   build_pdcnn, param_count, shape_check, spec_from_arch_dict)
from .network import load_model, model_dtype, save_model
from .optim import (SgdConfig, evaluate, read_curve_csv, train,
                    write_curve_csv)
from .tensor import (Rng, format_int_list, format_kv_lines, mix_seed,
                     parse_int_list, parse_kv_file, parse_rate, read_table)

STREAM_SPLIT = 5


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise UsageError, for main to print as
    one line; add_subparsers builds the subcommand parsers from this class."""

    def error(self, message):
        raise UsageError(message)


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _depth_list(text):
    """A train depth list, checked as build_pdcnn checks it; empty is unset."""
    depths = parse_int_list(text)
    if depths:
        build_pdcnn(depths)
    return depths


def _candidate_list(text):
    """A search candidate set, each depth checked alone by build_arch."""
    depths = parse_int_list(text)
    for depth in depths:
        build_arch(depth)
    return depths


def _at_least(low, parse, text):
    """parse(text), checked to be >= low (a NaN is not)."""
    if not (value := parse(text)) >= low:
        raise ValueError(f"must be >= {low}, got {value}")
    return value


def _checked_flag(parse, text):
    """parse (a checking parser) for argparse, which would otherwise report
    any error as "invalid <parse> value" in place of the parser's message."""
    try:
        return parse(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _parse_bool(text):
    low = text.lower()
    if low not in _BOOL_TRUE | _BOOL_FALSE:
        raise ValueError(f"must be boolean, got {text!r}")
    return low in _BOOL_TRUE


# the SgdConfig field each training option sets; epochs has a per-command
# default, the others take SgdConfig's
_SGD_OPTS = {"lr": "learning_rate", "momentum": "momentum",
             "weight_decay": "weight_decay", "batch_size": "batch_size",
             "epochs": "max_epochs", "lr_drop": "lr_drop",
             "lr_patience": "lr_patience"}
_SGD_FIELDS = {f.name: f for f in fields(SgdConfig)}

# per-command option tables: name -> (type, default); _parse_bool = a flag
_COMMON_TRAIN_OPTS = {
    **{opt: (_SGD_FIELDS[name].type, _SGD_FIELDS[name].default)
       for opt, name in _SGD_OPTS.items() if opt != "epochs"},
    "dtype": (str, "float32"),
    "seed": (int, 0),
    "rotate": (_parse_bool, False),
}

_OPTS = {
    "gendata": {
        "out": (str, ""),
        "n_per_class": (int, 10),
        "size": (int, 64),
        "difficulty": (float, 0.5),
        "seed": (int, 0),
    },
    "train": {
        **_COMMON_TRAIN_OPTS,
        "manifest": (str, ""),
        "out": (str, ""),
        "depths": (_depth_list, ()),
        "arch": (str, ""),
        "epochs": (int, SgdConfig.max_epochs),
        "timing": (_parse_bool, False),
    },
    "eval": {
        "model": (str, ""),
        "manifest": (str, ""),
    },
    "search": {
        **_COMMON_TRAIN_OPTS,
        "manifest": (str, ""),
        "out": (str, ""),
        "arch": (str, ""),
        "epochs": (int, 10),
        "candidates": (_candidate_list, DEPTHS),
        "max_branches": (lambda text: branch_count(int(text), name=""),
                         MAX_BRANCHES),
        "replay": (str, ""),
    },
    "diag": {
        "model": (str, ""),
        "curve": (str, ""),
        "time": (str, ""),
        "out": (str, ""),
        "window": (partial(_at_least, 1, int), G.CONVERGENCE_WINDOW),
        "tol": (partial(_at_least, 0, float), G.CONVERGENCE_TOL),
    },
}

_HELP = {
    "time": "t,n,e (e.g. 8.32633,3,967)",
    "depths": "comma-separated branch depths, e.g. 4,3,4",
    "replay": "fixture CSV (depths,error) for table-driven search",
    "out": "output directory",
    "manifest": "dataset manifest CSV",
    "rotate": "apply 90/180/270-degree rotation augmentation before the "
              "train/test split",
    "timing": "record wall-clock seconds (breaks byte-reproducibility)",
}


def _merge_config(args):
    """Fill unset options from the config file, then from defaults, and check
    that the command's required options are set and that an --out is not a
    file, before any input is read. A bad config key or value is a usage
    error naming the file, line and key."""
    table = _OPTS[args.command]
    file_values = {}
    if args.config:
        try:
            file_values = parse_kv_file(
                args.config, {key: typ for key, (typ, _) in table.items()})
        except ValueError as err:
            raise UsageError(str(err)) from None
    for key, (_, default) in table.items():
        if getattr(args, key) is None:
            setattr(args, key, file_values.get(key, default))
    for key in _COMMANDS[args.command][2]:
        if not getattr(args, key):
            raise UsageError(f"{args.command} requires "
                             f"--{key.replace('_', '-')} (flag or config file)")
    out = getattr(args, "out", "")  # eval has none
    if out and Path(out).exists() and not Path(out).is_dir():
        raise ValueError(f"--out {out}: exists and is not a directory")


def _checked_spec(args, arch_d):
    """The shape-checked PdcnnSpec arch_d describes, built before any data is
    read; an error names the --arch file when one gave the values."""
    try:
        spec = spec_from_arch_dict(arch_d)
        shape_check(spec)
    except ValueError as err:  # ShapeError included
        if not args.arch:
            raise
        raise ValueError(f"{args.arch}: {err}") from None
    return spec


def _out_dir(args):
    """Path(args.out), created just before its first file is written."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _training_settings(args):
    """The model dtype and the SgdConfig the training options give; a bad
    value is a usage error."""
    try:
        return model_dtype(args.dtype), SgdConfig(
            **{name: getattr(args, opt) for opt, name in _SGD_OPTS.items()})
    except ValueError as err:
        raise UsageError(str(err)) from None


def cmd_gendata(args):
    ds = D.gen_synthetic(args.n_per_class, args.size, args.difficulty,
                         args.seed, args.out)
    print(f"records={len(ds)}")
    return 0


def _load_split(args, crop):
    dataset = D.load_manifest(args.manifest, crop_size=crop)
    if args.rotate:
        dataset = D.rotate_augment(dataset)
    return D.split_batches(dataset, Rng(mix_seed(args.seed, STREAM_SPLIT)))


def cmd_train(args):
    arch_d = parse_kv_file(args.arch, ARCH_KEYS) if args.arch else {}
    if args.depths:
        arch_d["depths"] = args.depths
    if not arch_d.get("depths"):
        raise UsageError("no architecture given: pass --depths or --arch FILE")
    spec = _checked_spec(args, arch_d)
    dtype, cfg = _training_settings(args)
    train_set, test_set = _load_split(args, spec.input_shape[1])
    net, curve = train(spec, train_set, test_set, cfg, args.seed, dtype=dtype)
    out = _out_dir(args)
    write_curve_csv(curve, out / "curve.csv", timing=args.timing)
    save_model(net, out / "model.bin")
    _write_train_report(out / "report.txt", net, curve, args)
    print(f"trained depths={format_int_list(arch_d['depths'])} "
          f"epochs={len(curve)} out={out}")
    return 0


def _write_train_report(path, net, curve, args):
    best = min(curve, key=lambda r: r.test_error, default=None)
    conv_epoch = G.detect_convergence(curve)
    report = {
        "best_test_error": f"{best.test_error:.6f}" if best else "none",
        "best_epoch": best.epoch if best else "none",
        "convergence_epoch": conv_epoch if conv_epoch is not None else "none",
        "param_count": param_count(net.spec),
        "epochs_run": len(curve),
        "test_protocol": "center_crop_no_flip",
    }
    if args.timing:
        report["train_seconds"] = f"{sum(r.seconds for r in curve):.3f}"
    Path(path).write_text(format_kv_lines(report), encoding="utf-8")


def cmd_eval(args):
    net = load_model(args.model)
    dataset = D.load_manifest(args.manifest, crop_size=net.spec.input_shape[1])
    error = evaluate(net, dataset)
    print(f"error_rate={error:.6f}")
    return 0


def _replay_table(path):
    """The replay fixture as {depth tuple: error}. An error outside [0, 1]
    or a repeated depth list is an error naming its line."""
    seen = set()

    def depths(text):
        key = tuple(parse_int_list(text))
        if key in seen:
            raise ValueError(f"depth list {list(key)} is repeated")
        seen.add(key)
        return key

    return dict(read_table(path, ["depths", "error"], (depths, parse_rate)))


def cmd_search(args):
    dtype, cfg = _training_settings(args)
    if args.replay:
        oracle = S.replay_oracle(_replay_table(args.replay))
    else:
        if not args.manifest:
            raise UsageError("search needs --replay FIXTURE.csv or --manifest PATH")
        arch_d = parse_kv_file(args.arch, ARCH_KEYS) if args.arch else {}
        # every candidate shares the input shape and config the oracle takes
        for depth in args.candidates:
            spec = _checked_spec(args, {**arch_d, "depths": [depth],
                                        "variants": None})
        train_set, test_set = _load_split(args, spec.input_shape[1])
        oracle = S.train_eval_oracle(train_set, test_set, cfg, args.seed,
                                     spec.input_shape, spec.config, dtype=dtype)
    trace = S.greedy_pdcnn_search(args.candidates, oracle, args.max_branches)
    S.write_trace_csv(trace, _out_dir(args) / "search.csv")
    if trace.failure:
        print(f"search failed: {trace.failure}", file=sys.stderr)
        return 1
    for rnd in trace.rounds:
        if rnd.chosen:
            error = next(c.error for c in rnd.candidates
                         if c.depths == rnd.chosen)
            print(f"round {rnd.number}: chose "
                  f"{format_int_list(rnd.chosen)} (error {error:.6f})")
        else:
            print(f"round {rnd.number}: stop (no improvement)")
    print(f"winner={format_int_list(trace.winner)}")
    return 0


def cmd_diag(args):
    if not (args.time or args.model or args.curve):
        raise UsageError("diag needs --time t,n,e and/or --model and/or --curve")
    if args.time:
        try:
            t, n, e = args.time.split(",")
            t, n, e = float(t), int(n), int(e)
        except ValueError:
            raise UsageError(f"--time expects numbers t,n,e, "
                             f"got {args.time!r}") from None
        total = G.convergence_time(t, n, e)
        print(f"T={total}")
        if args.out:
            G.write_convergence_csv(t, n, e, total,
                                    _out_dir(args) / "convergence.csv")
    if args.model:
        rows, mean = G.filter_variance(load_model(args.model))
        if mean is not None:
            print(f"mean_variance={mean:.6g}")
        if args.out:
            G.write_variance_csv(rows, mean, _out_dir(args) / "variance.csv")
    if args.curve:
        curve = read_curve_csv(args.curve)
        epoch = G.detect_convergence(curve, window=args.window, tol=args.tol)
        print(f"convergence_epoch={epoch if epoch is not None else 'none'}")
    return 0


# name -> (handler, help, options it requires)
_COMMANDS = {
    "gendata": (cmd_gendata, "write a synthetic dataset", ("out",)),
    "train": (cmd_train, "train a network on a manifest dataset",
              ("manifest", "out")),
    "eval": (cmd_eval, "evaluate a saved model on a manifest",
             ("model", "manifest")),
    "search": (cmd_search, "greedy branch-selection search",
               ("out", "candidates")),
    "diag": (cmd_diag, "diagnostics: filter variance, convergence epoch, "
                       "T = t*n*e", ()),
}


def build_parser():
    parser = _Parser(
        prog="pdcnn",
        description="Paralleled deep convolutional network training engine")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (_, help_text, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key, (typ, default) in _OPTS[command].items():
            flag = "--" + key.replace("_", "-")
            extra = _HELP.get(key, "")
            if typ is _parse_bool:
                p.add_argument(flag, action="store_true", default=None,
                               help=extra)
            else:
                if isinstance(default, tuple):
                    default = format_int_list(default)
                if typ not in (int, float, str):
                    typ = partial(_checked_flag, typ)
                p.add_argument(flag, type=typ, default=None,
                               help=f"{extra} (default {default!r})".strip())
        p.add_argument("--config", default=None,
                       help="key=value config file; flags win")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _merge_config(args)
        return _COMMANDS[args.command][0](args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as err:  # ShapeError included
        if isinstance(err, MemoryError) and not str(err):
            err = "out of memory"  # Python's own MemoryError has no text
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
