"""Seeded inputs, workload bodies and output checks.

Every workload drives ``condensery.cli.main`` in-process with YAML configs
written here, on a 10-class 1x28x28 uint8 IDX train/test split generated
from the workload seed. The program only sees the generated files.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import math
import struct
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np
import yaml

import condensery.cli
from condensery.data import SyntheticSet, load_idx, load_synthetic, save_synthetic
from condensery.tensor import Tensor

from tracing import Tracer

K = 10
CHANCE = 1.0 / K
# An accuracy below chance plus this margin means the network did not learn.
ACC_MARGIN = 0.1
METHODS = ("random", "herding", "kcenter", "forgetting")


@dataclass(frozen=True)
class Size:
    side: int               # image side, pixels
    n_train_per: int        # train images per class
    n_test_per: int         # test images per class
    channels: int           # ConvNet width (2 blocks)
    n_per_class: int        # condense real batch per class
    query_size: int         # condense query set
    eval_nets: int          # eval_ipc1: 1 experiment x eval_nets nets
    eval_epochs: int
    coreset_ipc: int
    trace_epochs: int
    n_real: int             # export-proj real sample


FULL = Size(side=28, n_train_per=200, n_test_per=100, channels=16, n_per_class=16,
            query_size=200, eval_nets=4, eval_epochs=100, coreset_ipc=50, trace_epochs=2,
            n_real=500)
TINY = Size(side=16, n_train_per=12, n_test_per=10, channels=8, n_per_class=4,
            query_size=40, eval_nets=2, eval_epochs=100, coreset_ipc=3, trace_epochs=2,
            n_real=30)
SIZES = {"full": FULL, "tiny": TINY}

# Condense schedule: gamma above both loop caps, so no accuracy queue ever
# fills and the loop runs the caps exactly: 2 restarts of 3 outer steps,
# 5 inner steps after each outer step but the last of a restart.
SCHEDULE = {"l_out": 3, "l_in": 5, "max_outer_iters": 6, "gamma": 10}
PINNED = {"outer_steps": 6, "inner_steps": 20, "queries": 26, "restarts": 2}

# Accuracy of the workloads whose timed body runs no protocol: one fixed
# protocol (container, arch, nets, epochs) on a container the body wrote,
# outside cpu_s. Condense uses eval_ipc1's protocol; with 2 nets x 50
# epochs its accuracy spread 9% across seeds instead of 2.5%. The
# 500-image coreset trains MLPs: a ConvNet there costs more than the body.
ACCURACY = {
    "condense_mnist28": ("synthetic.cnd", "convnet", 4, 100),
    "coreset_mnist28": ("herding/synthetic.cnd", "mlp", 4, 15),
}

# Blob generator: class means of norm SEPARATION around mid-grey plus
# per-pixel Gaussian noise SPREAD, scaled by PIXEL_SCALE into uint8.
SPREAD = 0.3
SEPARATION = 5.0
PIXEL_SCALE = 100.0


class CheckFailed(Exception):
    pass


def sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def write_idx_split(root: Path, seed: int, size: Size) -> dict:
    """Write the seeded train/test IDX files; return their paths."""
    rng = np.random.default_rng(seed)
    dim = size.side * size.side
    means = rng.standard_normal((K, dim))
    means *= SEPARATION / np.linalg.norm(means, axis=1, keepdims=True)
    paths = {}
    for split, n_per in (("train", size.n_train_per), ("test", size.n_test_per)):
        x = np.repeat(means, n_per, axis=0) + SPREAD * rng.standard_normal((K * n_per, dim))
        labels = np.repeat(np.arange(K), n_per)
        order = rng.permutation(K * n_per)
        pixels = np.clip(np.rint(128 + PIXEL_SCALE * x[order]), 0, 255).astype(np.uint8)
        img_path, lab_path = root / f"{split}-images.idx", root / f"{split}-labels.idx"
        img_path.write_bytes(struct.pack(">IIII", 0x803, K * n_per, size.side, size.side)
                             + pixels.tobytes())
        lab_path.write_bytes(struct.pack(">II", 0x801, K * n_per)
                             + labels[order].astype(np.uint8).tobytes())
        paths[f"{split}_images"], paths[f"{split}_labels"] = str(img_path), str(lab_path)
    return paths


class Ledger:
    """Operations attempted and failed. An operation is a CLI command or an
    output check; a failure is a non-zero exit code, an exception, a
    non-finite output or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, name: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:  # an operation failing is a result, not a crash
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{name}: {type(e).__name__}: {e}")
            return None


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Run:
    """One workload in one process: its inputs, configs, ledger and hashes."""

    def __init__(self, name: str, seed: int, size: Size, work: Path):
        self.name, self.seed, self.size, self.work = name, seed, size, work
        self.ledger = Ledger()
        self.hashes: dict[str, str] = {}
        self.paths = write_idx_split(work, seed, size)
        self.config = work / "config.yaml"
        self.config.write_text(yaml.safe_dump(self._config(), sort_keys=False))
        self.train = None
        self.container = work / "eval-input.cnd"

    def _config(self) -> dict:
        s = self.size
        return {
            "seed": self.seed,
            "output_dir": str(self.work / "out"),
            "dataset": {"kind": "idx", "num_classes": K, **self.paths},
            "arch": {"type": "convnet", "blocks": 2, "channels": s.channels},
            "condense": {"ipc": s.coreset_ipc if self.name == "coreset_mnist28" else 1,
                         "n_per_class": s.n_per_class, "query_size": s.query_size,
                         **SCHEDULE},
            "eval": {"n_experiments": 1, "n_nets_per": s.eval_nets, "epochs": s.eval_epochs},
            "coreset": {"trace_epochs": s.trace_epochs},
            "projection": {"n_real": s.n_real},
        }

    # -- set-up: the library calls before the first timed command ---------

    def prepare(self) -> None:
        train = load_idx(self.paths["train_images"], self.paths["train_labels"], K)
        load_idx(self.paths["test_images"], self.paths["test_labels"], K,
                 stats=train.norm_stats)
        if self.name == "eval_ipc1":
            # The class-mean images: accuracy on them varies less with the
            # seed than on any single training image.
            means = np.stack([train.images[i].mean(axis=0) for i in train.class_indices()])
            save_synthetic(SyntheticSet(Tensor(means), np.arange(K), 1, K, train.norm_stats),
                           self.container)
        self.train = train

    # -- timed commands ---------------------------------------------------

    def cli(self, label: str, argv: list) -> float:
        """Run one CLI command; return its wall time or raise on failure."""
        def command():
            out = StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(out):
                code = condensery.cli.main(argv + ["--config", str(self.config)])
            elapsed = time.perf_counter() - t0
            expect(code == 0, f"exit code {code}")
            return elapsed
        return self.ledger.op(label, command) or 0.0

    def rep(self, out: Path, timed: bool) -> tuple[float, float, Tracer]:
        """One repetition of the workload's commands; returns their wall time
        and the CPU time (user + system, all threads) the process spent."""
        # Start from a collected heap, as a fresh CLI process would. The
        # library's tapes are reference cycles; left over from the previous
        # repetition they would inflate this one's time and peak RSS.
        gc.collect()
        tracer = Tracer(timed)
        with tracer:
            cpu0 = time.process_time()
            wall = getattr(self, "_rep_" + self.name)(out)
            cpu = time.process_time() - cpu0
        checks = getattr(self, "_check_" + self.name)
        self.ledger.op(self.name + ".checks", checks, out, tracer)
        return wall, cpu, tracer

    def _rep_condense_mnist28(self, out: Path) -> float:
        return self.cli("condense", ["condense", "--set", f"output_dir={out}"])

    def _rep_eval_ipc1(self, out: Path) -> float:
        return self.cli("eval", ["eval", str(self.container), "--set", f"output_dir={out}"])

    def _rep_coreset_mnist28(self, out: Path) -> float:
        wall = sum(self.cli(m, ["coreset", m, "--set", f"output_dir={out / m}"])
                   for m in METHODS)
        return wall + self.cli("export-proj", [
            "export-proj", str(out / "herding" / "synthetic.cnd"),
            "--output", str(out / "projection.csv"), "--set", f"output_dir={out}"])

    # -- output checks ------------------------------------------------------

    def _record(self, key: str, digest: str) -> None:
        """Keep the first digest; a later repetition must reproduce it."""
        expect(self.hashes.setdefault(key, digest) == digest,
               f"{key} differs between repetitions of the same input")

    def _check_condense_mnist28(self, out: Path, tracer: Tracer) -> None:
        s = self.size
        synth = check_container(out / "synthetic.cnd", 1)
        expect(synth.images.shape == (K, 1, s.side, s.side),
               f"synthetic shape {synth.images.shape}")
        self._record("condense.pixels_sha256", sha256(synth.images.values))
        steps = tracer.schedule()
        expect(steps == PINNED, f"schedule {steps} != pinned {PINNED}")
        with open(out / "metrics.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        expect(len(rows) == PINNED["outer_steps"], f"metrics.csv has {len(rows)} rows")
        expect(all(math.isfinite(float(r[k])) for r in rows for k in ("l_f", "l_d", "total")),
               "non-finite loss in metrics.csv")

    def _check_eval_ipc1(self, out: Path, tracer: Tracer) -> None:
        accs = read_eval_csv(out / "eval.csv", self.size.eval_nets)
        self._record("eval.accuracies_sha256", sha256(np.asarray(accs)))

    def _check_coreset_mnist28(self, out: Path, tracer: Tracer) -> None:
        ipc = self.size.coreset_ipc
        for m in METHODS:
            idx = check_selection(out / m / "selection.csv", self.train.labels, ipc)
            self._record(f"coreset.{m}_sha256", sha256(idx))
            synth = check_container(out / m / "synthetic.cnd", ipc)
            expect(np.array_equal(synth.images.values, self.train.images[idx]),
                   f"{m} container pixels differ from the selected images")
        with open(out / "projection.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        expect(len(rows) == self.size.n_real + K * ipc, f"projection has {len(rows)} rows")
        expect(all(math.isfinite(float(r[k])) for r in rows for k in ("pc1", "pc2")),
               "non-finite projection coordinate")

    # -- accuracy -----------------------------------------------------------

    def accuracy(self, out: Path) -> float:
        """Train-on-synthetic test accuracy, checked against the floor.

        eval_ipc1 reports its own protocol mean. The other two workloads run
        one small fixed protocol on a container the timed body wrote.
        """
        if self.name == "eval_ipc1":
            acc = float(np.mean(read_eval_csv(out / "eval.csv", self.size.eval_nets)))
        else:
            container, arch, n_nets, epochs = ACCURACY[self.name]
            self.cli("accuracy-eval", [
                "eval", str(out / container), "--set", f"output_dir={out / 'accuracy'}",
                "--set", f"arch.type={arch}", "--set", f"eval.n_nets_per={n_nets}",
                "--set", f"eval.epochs={epochs}"])
            accs = self.ledger.op("accuracy-eval.report", read_eval_csv,
                                  out / "accuracy" / "eval.csv", n_nets)
            acc = float(np.mean(accs)) if accs else 0.0
        self.ledger.op("accuracy.floor", expect, acc > CHANCE + ACC_MARGIN,
                       f"accuracy {acc} at or below {CHANCE + ACC_MARGIN}")
        return acc

    def check_prepared_container(self) -> None:
        if self.name == "eval_ipc1":
            self.ledger.op("eval.input_container", check_container, self.container, 1)


def check_container(path: Path, ipc: int):
    """Load a CND container, check it, and check that it re-reads bit-exactly."""
    synth = load_synthetic(path)
    expect(synth.ipc == ipc and synth.num_classes == K, f"ipc {synth.ipc}, K {synth.num_classes}")
    expect(np.array_equal(synth.labels, np.repeat(np.arange(K), ipc)), "labels not class-major")
    expect(bool(np.isfinite(synth.images.values).all()), "non-finite pixels")
    again = path.with_suffix(".reread.cnd")
    save_synthetic(synth, again)
    expect(again.read_bytes() == path.read_bytes(), f"{path.name} does not re-read bit-exactly")
    again.unlink()
    return synth


def check_selection(path: Path, labels: np.ndarray, ipc: int) -> np.ndarray:
    """ipc unique indices per class, class-major, each of its row's class."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = [(int(r["class"]), int(r["rank"]), int(r["dataset_index"]))
                for r in csv.DictReader(f)]
    expect([(c, r) for c, r, _ in rows] == [(c, r) for c in range(K) for r in range(ipc)],
           "selection is not ipc rows per class in class-major order")
    idx = np.array([i for _, _, i in rows], dtype=np.int64)
    expect(len(np.unique(idx)) == idx.size, "selection repeats an index")
    expect(bool((idx >= 0).all() and (idx < labels.size).all()), "selection index out of range")
    expect(np.array_equal(labels[idx], np.repeat(np.arange(K), ipc)),
           "selected image of another class")
    return idx


def read_eval_csv(path: Path, n_runs: int) -> list[float]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = {r["run"]: float(r["accuracy"]) for r in csv.DictReader(f)}
    accs = [rows.get(str(i), math.nan) for i in range(n_runs)]
    expect(all(0.0 <= a <= 1.0 for a in accs), f"accuracies {accs} not in [0, 1]")
    expect(abs(rows.get("mean", math.nan) - float(np.mean(accs))) < 1e-12,
           "eval.csv mean disagrees with its runs")
    return accs
