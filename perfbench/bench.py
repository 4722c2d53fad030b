"""pdcnn benchmark workloads, one per process. Start them through run.py,
which caps BLAS at one thread before numpy loads:

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 10 --trace 0

Every input is generated from --seed with pdcnn.data.gen_synthetic inside a
scratch directory of the checkout. A run sets up SETUP_REPEATS times, warms
up, measures, then checks its outputs, among others against float64
references. The last stdout line is the JSON result: end-to-end metrics with
--trace 0, per-layer metrics (from probe spans) with --trace 1. Metric names
and units come from BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pdcnn import data as D
from pdcnn import diag
from pdcnn import network as N
from pdcnn import optim as O
from pdcnn import tensor as T
from pdcnn.arch import ArchConfig, build_pdcnn
from pdcnn.network import PdcnnNet

from probe import MB, REF_NOMINAL_S, Probe, StopRun, self_times, tail_p90

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
DIFFICULTY = 0.3
STREAM_SPLIT = 5
TRAIN_BATCH = 32
EVAL_BATCH = 64
CHECK_IMAGES = 16  # eval images re-run through a float64 forward pass

# Allowed |loss_f32 - loss_f64| at the horizon step: one tenth of the standard
# deviation of that loss across seeds 1..8 (perfbench/tolerance.py). A change
# that moves the loss by a tenth of what a different seed does is caught; the
# float32 rounding seen at this commit is several orders of magnitude smaller.
# Seeds 1..8 at this commit gave a stdev of 0.250 (desk_train, step 10) and
# 0.0160 (full_train, step 2).
LOSS_TOL = {"desk_train": 2.5e-2, "full_train": 1.6e-3}
# Allowed |logit_f32 - logit_f64| relative to the largest float64 logit of
# the checked images: about 100x the float32 rounding of a 10^4-term dot
# product (sqrt(1e4) * 6e-8), fixed from the dtype, not from observed errors.
LOGIT_RTOL = 1.0e-3

DESK_CONFIG = ArchConfig(conv1_stride=2, filter_scale=0.25, init_sigma=0.06)
# 20-px input through every 4,3,4 branch; used only by the self-test.
TINY_CONFIG = ArchConfig(conv1_stride=2, pool_window=2, pool_stride=2,
                         filter_scale=0.05, init_sigma=0.3)


@dataclass(frozen=True)
class Size:
    source: int        # generated image side
    crop: int          # network input side
    config: ArchConfig
    images: int        # desk: images per class; full_train: sources per
                       # class; full_eval: measured images
    min_units: int     # epochs (train) or passes (eval) measured at least
    horizon: int       # train steps compared against the float64 run
    warm_steps: int
    warm_repeats: int  # warm-ups whose median counts in setup_s
    calib_steps: int   # untraced steps taken by a traced run for its overhead
    trace_units: int = 0  # min_units of a traced run, where it needs more


SIZES = {
    # 609 per class -> 914 train images (28 full steps + 18) and 304 test
    # images; 3 epochs give 84 full steps, and a traced run's 4 give 112,
    # enough for a p90 tail. Its sub-second warm-up varies by a third from
    # run to run, so it is repeated; the full-scale warm-ups take a whole step
    # and are not.
    ("desk_train", "full"): Size(64, 56, DESK_CONFIG, 609, 3, 10, 2, 3, 8,
                                 trace_units=4),
    # 18 per class -> 36 sources, x4 rotations = 144 images: 4 full steps
    # of 32 and a final 16.
    ("full_train", "full"): Size(256, 224, ArchConfig(), 18, 1, 2, 1, 1, 1),
    # 256 images: one pass is 4 batches of 64 and takes longer than
    # --seconds at this commit, so every run measures the same 4 batches.
    ("full_eval", "full"): Size(256, 224, ArchConfig(), 256, 1, 0, 1, 1, 1),
    ("desk_train", "tiny"): Size(24, 20, TINY_CONFIG, 24, 2, 3, 1, 3, 2),
    ("full_train", "tiny"): Size(24, 20, TINY_CONFIG, 5, 2, 2, 1, 1, 1),
    ("full_eval", "tiny"): Size(24, 20, TINY_CONFIG, 128, 1, 0, 1, 1, 1),
}


class _Workload:
    kind = "train"  # the step kind its per-step metrics are normalised by

    def __init__(self, size, seed, probe):
        self.size, self.seed, self.probe = size, seed, probe
        self.spec = build_pdcnn([4, 3, 4], input_shape=(3, size.crop, size.crop),
                                config=size.config)

    def _load(self, out, n_per_class):
        D.gen_synthetic(n_per_class, self.size.source, DIFFICULTY, self.seed, out)
        return D.load_manifest(out / "manifest.csv", crop_size=self.size.crop)

    def _subset(self, dataset, start, count):
        return D.Dataset(dataset.records[start:start + count],
                         crop_size=self.size.crop)


class _Training(_Workload):
    sgd = O.SgdConfig()

    def warm_up(self, steps):
        net = PdcnnNet(self.spec, T.Rng(0), np.float32)
        O.train_epoch(net, O.init_state(net, 0, self.sgd),
                      self._subset(self.train_set, 0, TRAIN_BATCH * steps),
                      self.sgd)
        return net

    def horizon_losses(self, dtype):
        """Mean batch losses of the first `horizon` steps of a fresh run from
        the same seed and data order, in `dtype`."""
        seen = len(self.probe.losses.get(self.probe.phase, []))
        self.probe.stop_after = seen + self.size.horizon
        try:
            self.fresh_run(dtype)
        except StopRun:
            pass
        finally:
            self.probe.stop_after = None
        return self.probe.losses[self.probe.phase][seen:]

    def check(self, work):
        measured = self.probe.losses.get("measure", [])
        ref = self.horizon_losses(np.float64)
        h = self.size.horizon
        tol = LOSS_TOL[self.name]
        if len(measured) < h or len(ref) < h:
            yield "loss_vs_float64", False, f"fewer than {h} steps"
        else:
            diff = abs(measured[h - 1] - ref[h - 1])
            yield ("loss_vs_float64", diff <= tol,
                   f"step {h}: float32 {measured[h - 1]:.8f} float64 "
                   f"{ref[h - 1]:.8f} |diff| {diff:.2e} (tol {tol:.1e})")
        yield checkpoint_round_trip(self.net, work / "model.bin")

    def batches_per_epoch(self):
        return -(-len(self.train_set) // TRAIN_BATCH)


class DeskTrain(_Training):
    """The acceptance-suite desk recipe, trained through optim.train."""
    name = "desk_train"
    sgd = O.SgdConfig(learning_rate=0.005, max_epochs=10 ** 6)

    def setup(self, out):
        ds = self._load(out, self.size.images)
        self.train_set, self.test_set = D.split_batches(
            ds, T.Rng(T.mix_seed(self.seed, STREAM_SPLIT)))

    def warm_up(self, steps):
        net = super().warm_up(steps)
        O.evaluate(net, self._subset(self.test_set, 0, EVAL_BATCH))

    def measure(self, seconds, units):
        start = time.perf_counter()

        def stop(record):
            return (record.epoch >= units
                    and time.perf_counter() - start >= seconds)

        self.net, self.curve = O.train(self.spec, self.train_set, self.test_set,
                                       self.sgd, self.seed, np.float32, stop)

    def fresh_run(self, dtype):
        O.train(self.spec, self.train_set, self.test_set, self.sgd, self.seed,
                dtype)


class FullTrain(_Training):
    """Paper scale: 224-px crops of rotated 256-px sources, train_epoch only."""
    name = "full_train"

    def setup(self, out):
        self.train_set = D.rotate_augment(self._load(out, self.size.images))
        self.net = PdcnnNet(self.spec, T.Rng(T.mix_seed(self.seed, O.STREAM_INIT)),
                            np.float32)
        self.state = O.init_state(self.net, self.seed, self.sgd)

    def measure(self, seconds, units):
        start, epochs = time.perf_counter(), 0
        while (epochs < units
               or time.perf_counter() - start < seconds):
            O.train_epoch(self.net, self.state, self.train_set, self.sgd)
            epochs += 1

    def fresh_run(self, dtype):
        net = PdcnnNet(self.spec, T.Rng(T.mix_seed(self.seed, O.STREAM_INIT)),
                       dtype)
        O.train_epoch(net, O.init_state(net, self.seed, self.sgd),
                      self.train_set, self.sgd)


class FullEval(_Workload):
    """The `pdcnn eval` path: load_model, load_manifest, evaluate at batch 64
    over distinct images that each pass reads once."""
    name = "full_eval"
    kind = "eval"

    def setup(self, out):
        ds = self._load(out, (EVAL_BATCH + self.size.images) // 2)
        D.write_manifest(out / "warm.csv", ds.records[:EVAL_BATCH])
        D.write_manifest(out / "eval.csv", ds.records[EVAL_BATCH:])
        self.warm_manifest, self.manifest = out / "warm.csv", out / "eval.csv"
        self.built = PdcnnNet(self.spec, T.Rng(T.mix_seed(self.seed, O.STREAM_INIT)),
                              np.float32)
        self.model_path = out / "model.bin"
        N.save_model(self.built, self.model_path)
        self.net = N.load_model(self.model_path)

    def warm_up(self, steps):
        for _ in range(steps):
            O.evaluate(self.net, D.load_manifest(self.warm_manifest,
                                                 crop_size=self.size.crop))

    def measure(self, seconds, units):
        start, self.errors = time.perf_counter(), []
        while (len(self.errors) < units
               or time.perf_counter() - start < seconds):
            self.eval_set = D.load_manifest(self.manifest, crop_size=self.size.crop)
            self.errors.append(O.evaluate(self.net, self.eval_set, EVAL_BATCH))

    def check(self, work):
        logits = [l for phase, l in self.probe.logits if phase == "measure"]
        labels = self.eval_set.labels
        per_pass = -(-len(labels) // EVAL_BATCH)
        recounts = []
        for p in range(len(self.errors)):
            batch = logits[p * per_pass:(p + 1) * per_pass]
            pred = np.argmax(np.concatenate(batch), axis=1)
            recounts.append(int((pred != labels).sum()) / len(labels))
        yield ("error_rate", recounts == self.errors,
               f"{len(self.errors)} passes: evaluate {self.errors[0]:.6f}, "
               f"from logits {recounts[0]:.6f} (first pass)")
        yield self.logits_vs_float64(logits[0][:CHECK_IMAGES])
        yield params_equal("model_round_trip", self.net, self.built)

    def logits_vs_float64(self, got):
        """Compare the first measured eval logits with a float64 forward pass
        over the same center crops."""
        net64 = PdcnnNet(self.net.spec, T.Rng(0), np.float64)
        net64.set_parameters(self.net.parameters())
        xb = np.stack([D.sample_patch(self.eval_set.image(i), self.size.crop,
                                      None, "test") for i in range(len(got))])
        want = net64.forward(xb)
        tol = LOGIT_RTOL * float(np.abs(want).max())
        diff = float(np.abs(got - want).max())
        margin = np.abs(want[:, 0] - want[:, 1]) > 2 * tol
        agree = bool((np.argmax(got, 1) == np.argmax(want, 1))[margin].all())
        return ("logits_vs_float64", diff <= tol and agree,
                f"{len(got)} images: max |diff| {diff:.2e} (tol {tol:.2e}), "
                f"argmax agrees: {agree}")


def params_equal(name, loaded, source):
    a, b = loaded.parameters(), source.parameters()
    same = [x == y and np.array_equal(p, np.asarray(q, dtype=np.float32))
            for (x, p), (y, q) in zip(a, b)]
    return name, len(a) == len(b) and all(same), f"{sum(same)}/{len(b)} tensors equal"


def checkpoint_round_trip(net, path):
    N.save_model(net, path)
    return params_equal("checkpoint_round_trip", N.load_model(path), net)


WORKLOAD_TYPES = {w.name: w for w in (DeskTrain, FullTrain, FullEval)}


# -- metrics ------------------------------------------------------------------

def full_size(probe, kind):
    batch = TRAIN_BATCH if kind == "train" else EVAL_BATCH
    return [s for s in probe.measured_steps(kind) if s.ok and s.size == batch]


def full_steps(probe, kind):
    return [s.seconds for s in full_size(probe, kind)]


def scaled_steps(probe, kind):
    """Full-size step times scaled to the nominal machine speed by the
    reference samples taken within each step (the nearest one for a step too
    short to hold a sample)."""
    ref = probe.reference
    return [s.seconds * ref.scale(s.start, s.end) for s in full_size(probe, kind)]


def images_per_s(probe, kinds, phase="measure", scaled=False):
    """Images over the seconds spent in train_epoch/evaluate calls, without
    the reference kernel runs; if asked, each call's time is scaled to the
    nominal machine speed by the reference samples taken within it."""
    seconds, images = 0.0, 0
    for call_phase, kind, start, end, n, paused in probe.calls:
        if call_phase == phase and kind in kinds:
            factor = probe.reference.scale(start, end) if scaled else 1.0
            seconds += (end - start - paused) * factor
            images += n
    return images / seconds if seconds > 0 else None


def layer_metrics(probe, kind, untraced_p50):
    """Per-layer values from the measured phase, per step of `kind` unless the
    name says otherwise. Returns (values by metric name, names of rows this
    workload never exercised, self-time rows sorted by time per step, mean
    step seconds)."""
    steps = probe.measured_steps(kind)
    ids = {s.id for s in steps}
    n = max(len(steps), 1)
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    work = defaultdict(lambda: [0.0, 0.0])
    container = defaultdict(float)
    per_call = defaultdict(list)
    for rec, self_s in zip(probe.spans, self_times(probe.spans)):
        name, start, end, _, step, phase, info = rec
        if name in ("network.load_model", "network.save_model"):
            per_call[name].append(end - start)
        if phase != "measure":
            continue
        if step in ids:
            total[name] += end - start
            own[name] += self_s
            calls[name] += 1
            if info:
                work[name][0] += info[0]
                work[name][1] += info[1]
        elif name in ("optim.train_epoch", "optim.evaluate"):
            container[name] += self_s

    primary = "optim.train_epoch" if kind == "train" else "optim.evaluate"
    table = {name: sec / n for name, sec in own.items()}
    table[f"{primary} (self)"] = container[primary] / n
    rows = sorted(table.items(), key=lambda kv: -kv[1])
    m, missing = {}, set()

    def put(metric, value, used=True):
        m[metric] = value
        if not used:
            missing.add(metric)

    for pos in range(1, 5):
        for way in ("forward", "backward"):
            span = f"layers.conv{pos}.{way}"
            put(f"{span}_ms", 1e3 * total[span] / n, calls[span] > 0)
        span = f"layers.conv{pos}.forward"
        put(f"layers.conv{pos}.gflop", work[span][0] / n, calls[span] > 0)
    fwd = [f"layers.conv{p}.forward" for p in range(1, 5)]
    bwd = [f"layers.conv{p}.backward" for p in range(1, 5)]
    conv_gflop = sum(work[s][0] for s in fwd)
    conv_fwd_s = sum(total[s] for s in fwd)
    put("layers.Conv2d.gflop", conv_gflop / n)
    put("layers.Conv2d.im2col_mb", sum(work[s][1] for s in fwd) / n / MB)
    put("layers.Conv2d.col2im_mb", sum(work[s][1] for s in bwd) / n / MB,
        any(calls[s] for s in bwd))
    put("layers.Conv2d.forward_gflops_per_s",
        conv_gflop / conv_fwd_s if conv_fwd_s > 0 else 0.0)
    for layer in ("MaxPool", "Lrn", "Relu", "FullyConnected"):
        for way in ("forward", "backward"):
            span = f"layers.{layer}.{way}"
            put(f"{span}_ms", 1e3 * total[span] / n, calls[span] > 0)
    for span in ("layers.softmax_xent_batch", "optim.sgd_step",
                 "data.sample_patch", "data.image", "tensor.read_pdt"):
        put(f"{span}_ms", 1e3 * total[span] / n, calls[span] > 0)
    for span in ("network.forward", "network.backward"):
        put(f"{span}_self_ms", 1e3 * own[span] / n, calls[span] > 0)
    for span in ("network.load_model", "network.save_model"):
        put(f"{span}_ms", 1e3 * statistics.median(per_call[span])
            if per_call[span] else 0.0, bool(per_call[span]))
    for span, step_kind in (("optim.train_epoch", "train"),
                            ("optim.evaluate", "eval")):
        count = len(probe.measured_steps(step_kind))
        put(f"{span}_self_ms", 1e3 * container[span] / max(count, 1), count > 0)
    tail = tail_p90(full_steps(probe, kind))
    put("optim.step_s_p90", tail or 0.0, tail is not None)
    put("data.image_calls", calls["data.image"] / n)
    put("data.image_cache_mb", probe.image_cache_peak / MB)
    put("tensor.read_pdt_calls", calls["tensor.read_pdt"] / n)
    put("tensor.Rng_per_step",
        sum(1 for _, step, _ in probe.events if step in ids) / n)
    traced = full_steps(probe, kind)
    overhead = (statistics.median(traced) - untraced_p50
                if traced and untraced_p50 is not None else 0.0)
    put("trace.overhead_ms", 1e3 * overhead, bool(traced) and untraced_p50 is not None)

    mean_step = sum(s.seconds for s in steps) / n
    return m, missing, rows, mean_step


# -- output -------------------------------------------------------------------

def environment(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
    }


def load_units():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def loss_digest(losses):
    return hashlib.sha256(",".join(float(x).hex() for x in losses)
                          .encode()).hexdigest()[:16]


@dataclass
class Outcome:
    setups: list          # seconds per set-up
    warm_ups: list        # seconds per warm-up
    untraced_p50: float   # traced runs: median untraced step, else None
    peak_rss_mb: float
    checks: list          # (name, ok, detail)
    failures: list        # what ended the measurement early
    phase_s: dict         # raw wall seconds per phase of the run


def timed(probe, fn, *args):
    """Seconds fn(*args) takes. When the run samples the reference kernel,
    scaled to the nominal machine speed by two samples taken just before the
    call and two just after."""
    ref = probe.reference
    if ref is None:
        start = time.perf_counter()
        fn(*args)
        return time.perf_counter() - start
    ref.run(), ref.run()
    start = time.perf_counter()
    fn(*args)
    seconds = time.perf_counter() - start
    ref.run(), ref.run()
    return seconds * ref.scale(ref.starts[-4], ref.starts[-1])


def run_phases(wl, probe, args, work):
    """Set up, warm up, (calibrate,) measure and check one workload."""
    size, failures = wl.size, []
    setups, warm_ups = [], []
    marks = [time.perf_counter()]
    for r in range(SETUP_REPEATS):
        if r:
            shutil.rmtree(work / f"setup{r - 1}")
        setups.append(timed(probe, wl.setup, work / f"setup{r}"))
    for _ in range(size.warm_repeats):
        warm_ups.append(timed(probe, wl.warm_up, size.warm_steps))
    untraced_p50 = None
    marks.append(time.perf_counter())
    if args.trace:
        probe.phase, probe.recording = "calibrate", False
        wl.warm_up(size.calib_steps)
        calib = [s.seconds for s in probe.measured_steps(wl.kind, "calibrate")
                 if s.ok]
        untraced_p50 = statistics.median(calib) if calib else None
        probe.recording = True
    probe.phase = "measure"
    try:
        wl.measure(args.seconds, (size.trace_units if args.trace else 0)
                   or size.min_units)
    except Exception:  # counted as a failure; the run still reports
        traceback.print_exc()
        failures.append("exception during measurement")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    marks.append(time.perf_counter())
    probe.phase = "check"
    try:
        checks = list(wl.check(work))
    except Exception:
        traceback.print_exc()
        checks = [("check", False, "exception during output checks")]
    marks.append(time.perf_counter())
    phase_s = dict(zip(("set-up and warm-up", "measurement", "checks"),
                       (b - a for a, b in zip(marks, marks[1:]))))
    return Outcome(setups, warm_ups, untraced_p50, peak_rss_mb, checks,
                   failures, phase_s)


def print_report(args, wl, probe, out, setup_s, failed, attempted):
    step_samples = full_steps(probe, wl.kind)
    batch = TRAIN_BATCH if wl.kind == "train" else EVAL_BATCH
    print(f"perfbench {args.workload} seed={args.seed} "
          f"{'traced' if args.trace else 'untraced'}")
    print(f"  setup_s              {setup_s:.4f} s  (median of {len(out.setups)} "
          f"set-ups {statistics.median(out.setups):.4f} s + median of "
          f"{len(out.warm_ups)} warm-ups {statistics.median(out.warm_ups):.4f} s)")
    ref = probe.reference
    scaled = ref is not None
    if scaled:
        mean = statistics.fmean(ref.seconds)
        print(f"  reference kernel     {1e3 * mean:.3f} ms mean of "
              f"{len(ref.seconds)} runs, {1e3 * REF_NOMINAL_S:.3f} ms nominal; "
              f"times are scaled by the samples beside them (raw in brackets)")
    if step_samples:
        p50 = statistics.median(scaled_steps(probe, wl.kind) if scaled
                                else step_samples)
        print(f"  step_s_p50           {p50:.4f} s  (median of "
              f"{len(step_samples)} {wl.kind} steps of {batch}; raw "
              f"{statistics.median(step_samples):.4f} s)")
    for kind in ("train", "eval"):
        rate = images_per_s(probe, {kind}, scaled=scaled)
        if rate:
            print(f"  {kind + '_images_per_s':21s}{rate:.3f} img/s  (raw "
                  f"{images_per_s(probe, {kind}):.3f})")
    print(f"  images_per_s         "
          f"{images_per_s(probe, {'train', 'eval'}, scaled=scaled) or 0:.3f}"
          f" img/s  (train_epoch and evaluate calls; raw "
          f"{images_per_s(probe, {'train', 'eval'}) or 0:.3f})")
    print(f"  peak_rss_mb          {out.peak_rss_mb:.1f} MB")
    print(f"  failed_ops_share     {failed / max(attempted, 1):.4f} ratio  "
          f"({failed} of {attempted} steps and checks)")
    if step_samples and wl.kind == "train":
        n_batches = wl.batches_per_epoch()
        print(f"  projected T per epoch: t={p50:.4f} s x n={n_batches} batches = "
              f"{diag.convergence_time(p50, n_batches, 1)} s "
              f"(pdcnn.diag.convergence_time, e=1)")
    for name, ok, detail in out.checks:
        print(f"  check {name}: {'ok' if ok else 'FAILED'}  {detail}")
    for what in out.failures:
        print(f"  FAILED: {what}")
    print("  wall time: " + ", ".join(f"{name} {sec:.1f} s"
                                      for name, sec in out.phase_s.items()))
    print(f"  loss_digest {loss_digest(probe.losses.get('measure', []))}")


def print_layers(wl, values, missing, rows, mean_step, units):
    print(f"  per-layer self time, per {wl.kind} step "
          f"(mean traced step {1e3 * mean_step:.2f} ms):")
    for name, sec in rows[:16]:
        print(f"    {name:36s} {1e3 * sec:10.3f} ms  "
              f"{100 * sec / mean_step if mean_step else 0:5.1f}%")
    print("  per-layer metrics (gflop, im2col_mb and col2im_mb are computed "
          "from shapes):")
    for name in units:
        shown = ("n/a (not exercised here; reported as 0)" if name in missing
                 else f"{values[name]:.6g} {units[name]}")
        print(f"    {name:36s} {shown}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOAD_TYPES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every workload in seconds; self-test only")
    p.add_argument("--fault-step", type=int, default=None,
                   help="make the loss of this measured train step NaN; "
                        "self-test only")
    args = p.parse_args(argv)

    e2e_units, layer_units = load_units()
    probe = Probe(trace=bool(args.trace), fault_step=args.fault_step,
                  reference=not args.trace).install()
    wl = WORKLOAD_TYPES[args.workload](SIZES[(args.workload, args.size)],
                                       args.seed, probe)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    env = environment(args)
    print("perfbench env " + json.dumps(env), flush=True)
    try:
        out = run_phases(wl, probe, args, work)
    finally:
        probe.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    steps = [s for s in probe.steps if s.phase == "measure"]
    attempted = len(steps) + len(out.checks) + len(out.failures)
    failed = (sum(not s.ok for s in steps) + sum(not ok for _, ok, _ in out.checks)
              + len(out.failures))
    setup_s = statistics.median(out.setups) + statistics.median(out.warm_ups)
    print_report(args, wl, probe, out, setup_s, failed, attempted)
    if args.trace:
        units = layer_units
        values, missing, rows, mean_step = layer_metrics(probe, wl.kind,
                                                         out.untraced_p50)
        print_layers(wl, values, missing, rows, mean_step, units)
        probe.dump(out_dir / f"{args.workload}-seed{args.seed}-spans.json")
    else:
        units = e2e_units
        step_samples = scaled_steps(probe, wl.kind)
        p50 = statistics.median(step_samples) if step_samples else None
        values = {"setup_s": setup_s, "step_s_p50": p50,
                  "images_per_s": images_per_s(probe, {"train", "eval"},
                                               scaled=True),
                  "peak_rss_mb": out.peak_rss_mb}
    if any(values.get(name) is None for name in units):
        print("perfbench: no completed step to report", file=sys.stderr)
        return 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as f:
        json.dump({"env": env, "result": result,
                   "step_s": [s.seconds for s in steps],
                   "ref_s": probe.reference.seconds
                   if probe.reference else []}, f, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
