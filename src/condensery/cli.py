"""Command-line front end.

Subcommands: condense, eval, coreset, export-proj, gradcheck. Runs are
driven by a YAML config file plus ``--set key=value`` dotted overrides;
condense, eval and coreset echo their resolved config and a manifest into
the run directory so results are reproducible from the artifacts alone.
A failed command leaves none of its artifacts and no manifest.

Exit codes: 0 success, 1 gradient-check failure, 2 config/input error,
3 bad container. Commands raise; ``main`` maps the error to its code.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import platform
import re
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import fields
from pathlib import Path

import numpy as np
import yaml

from . import gradcheck as gc
from .bilevel import CondenseConfig, run_condense
from .coreset import materialize, select_forgetting, select_herding, select_kcenter, \
    select_random
from .data import LabeledDataset, idx_stats, load_idx, load_synthetic, make_blob_split, \
    save_synthetic, export_projection_csv
from .errors import CondenseryError, ConfigError, ParseError
from .evaluate import EvalConfig, evaluate_protocol, record_training_trace
from .models import ConvNetSpec, MLPSpec

EXIT_OK = 0
EXIT_GRADCHECK = 1
EXIT_CONFIG = 2
EXIT_CONTAINER = 3

CORESET_METHODS = ("random", "herding", "kcenter", "forgetting")
IDX_PATHS = ("train_images", "train_labels", "test_images", "test_labels")


class _Loader(yaml.SafeLoader):
    """Safe YAML, but 1e-3 and 1.0e3 are numbers, as in YAML 1.2, not strings."""


_Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+$"), list("-+.0123456789"))


# Readers reject what Python's constructors take: int(2.7) truncates,
# int(True) is 1, int("7") reads a string, tuple("abc") splits one and str(5) takes a number.
def _integer(raw) -> int:
    if type(raw) not in (int, float) or isinstance(raw, float) and not raw.is_integer():
        raise ValueError("not an integer")
    val = int(raw)
    if not -2 ** 63 <= val < 2 ** 63:
        raise ValueError("outside the signed 64-bit range")
    return val


def _real(raw) -> float:
    if type(raw) not in (int, float) or not math.isfinite(raw):
        raise ValueError("not a finite number")
    return float(raw)


def _integers(raw) -> tuple:
    if not isinstance(raw, (list, tuple)):
        raise TypeError("expected a list of integers")
    return tuple(map(_integer, raw))


def _image_shape(raw) -> tuple:
    val = _integers(raw)
    if len(val) != 3:
        raise ValueError("expected [channels, height, width]")
    return val


def _string(raw) -> str:
    if not isinstance(raw, str):
        raise TypeError("expected a string")
    return raw


def _one_of(*names):
    def read(raw) -> str:
        if raw not in names:
            raise ValueError(f"expected one of {', '.join(names)}")
        return raw
    return read


# dotted key -> (reader, default, least). A key with a None default may be
# unset or null; a list with a least is non-empty, each entry >= least.
# Unset, dataset.num_classes is 3 for blobs or the IDX labels' count. The
# condense and eval keys are CondenseConfig's and EvalConfig's fields, whose
# ranges those classes check; so does EvalConfig for coreset.trace_lr. The
# trace's least 2 epochs is the forgetting rule, which EvalConfig does not hold.
KEYS = {
    "output_dir": (_string, "runs/out", None),
    "seed": (_integer, 0, 0),
    "dataset.kind": (_one_of("blobs", "idx"), None, None),
    "dataset.num_classes": (_integer, None, None),
    "dataset.n_train_per_class": (_integer, 200, 1),
    "dataset.n_test_per_class": (_integer, 100, 1),
    "dataset.shape": (_image_shape, (1, 8, 8), 1),
    "dataset.spread": (_real, 0.1, None),
    "dataset.separation": (_real, 5.0, None),
    **{"dataset." + k: (_string, None, None) for k in IDX_PATHS},
    "arch.type": (_one_of("convnet", "mlp"), "convnet", None),
    "arch.blocks": (_integer, ConvNetSpec.blocks, 1),
    "arch.channels": (_integer, ConvNetSpec.channels, 1),
    "arch.hidden": (_integers, MLPSpec.hidden, 1),
    **{f"{section}.{f.name}": ({float: _real, tuple: _integers}.get(type(f.default), _integer),
                               f.default, None)
       for section, config in (("condense", CondenseConfig), ("eval", EvalConfig))
       for f in fields(config) if f.name != "seed"},
    "coreset.trace_epochs": (_integer, 10, 2),
    "coreset.trace_lr": (_real, 0.01, None),
    "projection.n_real": (_integer, 500, 2),
}
SECTIONS = {key.partition(".")[0] for key in KEYS if "." in key}


def _resolve(key: str, given: dict):
    """``key``'s value in ``given``, or its default, read and range-checked."""
    read, default, least = KEYS[key]
    raw = given.get(key, default)
    if raw is None and default is None:
        return None
    try:
        val = read(raw)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"config key {key!r} has a bad value {raw!r}: {e}") from None
    vals = val if isinstance(val, tuple) else (val,)
    if least is not None and (not vals or min(vals) < least):
        raise ConfigError(f"config key {key!r} must be >= {least}, got {raw!r}")
    return val


def load_config(path: str, overrides: list[str]) -> dict:
    """The config file with ``--set`` overrides applied, every key of KEYS
    read, filled and range-checked and the condense, eval and forgetting
    trace sections held to CondenseConfig's and EvalConfig's rules, as a
    nested mapping. Each ``--set`` names one dotted key of KEYS; a section or
    a path below a scalar is an unknown key. Those classes own beta's range."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = yaml.load(f, Loader=_Loader) or {}
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as e:
        raise ConfigError(f"cannot read config {path!r}: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r} must be a mapping at top level")
    given = {}
    for k, v in cfg.items():
        if k not in SECTIONS:
            given[str(k)] = v
        elif not isinstance(v, dict):
            raise ConfigError(f"config key {k!r} must be a mapping")
        else:
            given.update((f"{k}.{leaf}", val) for leaf, val in v.items())
    for ov in overrides:
        key, eq, raw = ov.partition("=")
        if not eq:
            raise ConfigError(f"--set expects key=value, got {ov!r}")
        try:
            given[key] = yaml.load(raw, Loader=_Loader)
        except yaml.YAMLError as e:
            raise ConfigError(f"--set {key!r} value is not YAML: {e}") from None
    if unknown := sorted(given.keys() - KEYS.keys()):
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    out: dict = {}
    for key in KEYS:
        section, _, leaf = key.rpartition(".")
        (out.setdefault(section, {}) if section else out)[leaf] = _resolve(key, given)
    # each config's messages start with the field's name
    for prefix, build in (("condense.", build_condense_config), ("eval.", build_eval_config),
                          ("coreset.trace_", build_trace_config)):
        try:
            build(out)
        except ConfigError as e:
            raise ConfigError(f"{prefix}{e}") from None
    return out


def build_split(cfg: dict, split: str) -> LabeledDataset:
    """The dataset's ``train`` or ``test`` split. Blobs draw both, train
    first. Every command checks all four IDX paths but parses only the
    files of its split, save that the test split is normalized with the
    train split's class count and statistics, read from the train files
    without building that split."""
    d = cfg["dataset"]
    if d["kind"] is None:
        raise ConfigError("config key 'dataset.kind' is required")
    if d["kind"] == "blobs":
        train, test = make_blob_split(
            num_classes=3 if d["num_classes"] is None else d["num_classes"],
            n_train=d["n_train_per_class"], n_test=d["n_test_per_class"], shape=d["shape"],
            spread=d["spread"], separation=d["separation"], seed=cfg["seed"])
        return train if split == "train" else test
    for key in IDX_PATHS:
        if d[key] is None:
            raise ConfigError(f"config key 'dataset.{key}' is required for idx datasets")
        if not os.path.exists(d[key]):
            raise ConfigError(f"dataset.{key}: file not found: {d[key]}")
    if split == "train":
        return load_idx(d["train_images"], d["train_labels"], num_classes=d["num_classes"])
    k, stats = idx_stats(d["train_images"], d["train_labels"], num_classes=d["num_classes"])
    return load_idx(d["test_images"], d["test_labels"], num_classes=k, stats=stats)


def build_arch(cfg: dict, image_shape: tuple, num_classes: int):
    a = cfg["arch"]
    if a["type"] == "mlp":
        return MLPSpec(input_shape=tuple(image_shape), hidden=a["hidden"],
                       num_classes=num_classes)
    return ConvNetSpec(blocks=a["blocks"], channels=a["channels"],
                       input_shape=tuple(image_shape), num_classes=num_classes)


def build_condense_config(cfg: dict) -> CondenseConfig:
    return CondenseConfig(seed=cfg["seed"], **cfg["condense"])


def build_eval_config(cfg: dict) -> EvalConfig:
    return EvalConfig(seed=cfg["seed"], **cfg["eval"])


def build_trace_config(cfg: dict) -> EvalConfig:
    """The forgetting trace's training: ``coreset.trace_*`` over EvalConfig."""
    return EvalConfig(epochs=cfg["coreset"]["trace_epochs"], lr=cfg["coreset"]["trace_lr"])


def _keep_freed_memory() -> bool:
    """Keep freed memory in the heap. glibc serves large blocks with mmap and
    trims the heap top on free, so each training step would fault its tape's
    pages in again. Setting either threshold also turns off glibc's dynamic
    mmap threshold, so both are set. Returns whether both were set; without
    ``mallopt`` (musl, macOS, Windows) it does nothing and returns False."""
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except TypeError:       # Windows has no handle for the process itself
        return False
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD (-3) at 256 MiB, M_TRIM_THRESHOLD (-1) at 512 MiB
    return [mallopt(-3, 256 << 20), mallopt(-1, 512 << 20)] == [1, 1]


@contextmanager
def _run_dir(cfg: dict, command: str, artifacts: list[str], malloc_thresholds: bool):
    """The run directory, with ``config.yaml`` written on entry. If the body
    raises, the command's ``artifacts`` and any ``manifest.json`` are
    removed; on success ``manifest.json`` is written."""
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.yaml", "w", encoding="utf-8") as f:
        yaml.safe_dump(cfg, f, sort_keys=False)
    try:
        yield out
    except BaseException:
        for name in artifacts + ["manifest.json"]:
            with suppress(OSError):
                (out / name).unlink()
        raise
    manifest = {
        "command": command,
        "seed": cfg["seed"],
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "artifacts": artifacts + ["config.yaml"],
        "libc": " ".join(platform.libc_ver()).strip(),
        "malloc_thresholds": malloc_thresholds,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)


def _load_container(path: str):
    try:
        return load_synthetic(path)
    except (OSError, ParseError) as e:
        raise ParseError(f"cannot load container {path!r}: {e}") from None


def cmd_condense(args) -> int:
    cfg = load_config(args.config, args.set or [])
    train = build_split(cfg, "train")
    ccfg = build_condense_config(cfg)
    arch = build_arch(cfg, train.image_shape, train.num_classes)
    with _run_dir(cfg, "condense", ["synthetic.cnd", "metrics.csv"],
                  args.malloc_thresholds) as out:
        # one row per outer iteration, written as the loop runs
        with open(out / "metrics.csv", "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            columns = ["iter", "l_f", "l_d", "total", "query_acc", "lc_out", "lr"]
            writer.writerow(columns)
            synth = run_condense(train, arch, ccfg,
                                 hook=lambda row: writer.writerow([repr(row[k]) for k in columns]))
        save_synthetic(synth, out / "synthetic.cnd")
    print(f"wrote {out / 'synthetic.cnd'} and {out / 'metrics.csv'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = load_config(args.config, args.set or [])
    synth = _load_container(args.synthetic)
    test = build_split(cfg, "test")
    if (synth.num_classes, synth.image_shape) != (test.num_classes, test.image_shape):
        raise ConfigError(f"container {args.synthetic!r} holds {synth.num_classes} classes of "
                          f"shape {synth.image_shape}, but the test split has "
                          f"{test.num_classes} classes of shape {test.image_shape}")
    arch = build_arch(cfg, test.image_shape, test.num_classes)
    report = evaluate_protocol(synth, arch, test, build_eval_config(cfg))
    with _run_dir(cfg, "eval", ["eval.csv"], args.malloc_thresholds) as out, \
            open(out / "eval.csv", "w", encoding="utf-8") as f:
        f.write("run,accuracy\n")
        for i, acc in enumerate(report.accuracies):
            f.write(f"{i},{acc!r}\n")
        f.write(f"mean,{report.mean!r}\nstd,{report.std!r}\n")
    print(f"{'set':<20} {'ipc':>4} {'accuracy':>16}")
    print(f"{Path(args.synthetic).name:<20} {synth.ipc:>4} "
          f"{100 * report.mean:>9.2f}±{100 * report.std:.2f}%")
    return EXIT_OK


def cmd_coreset(args) -> int:
    if args.method not in CORESET_METHODS:
        raise ConfigError(f"unknown method {args.method!r}; valid: {', '.join(CORESET_METHODS)}")
    cfg = load_config(args.config, args.set or [])
    train = build_split(cfg, "train")
    ccfg = build_condense_config(cfg)
    if args.method == "random":
        sel = select_random(train, ccfg.ipc, cfg["seed"])
    elif args.method == "herding":
        sel = select_herding(train, ccfg.ipc)
    elif args.method == "kcenter":
        sel = select_kcenter(train, ccfg.ipc)
    else:
        arch = build_arch(cfg, train.image_shape, train.num_classes)
        trace = record_training_trace(train, arch, build_trace_config(cfg), cfg["seed"])
        sel = select_forgetting(train, ccfg.ipc, trace)
    with _run_dir(cfg, f"coreset:{args.method}", ["synthetic.cnd", "selection.csv"],
                  args.malloc_thresholds) as out:
        save_synthetic(materialize(train, sel), out / "synthetic.cnd")
        sel.to_csv(out / "selection.csv")
    print(f"selected {len(sel.indices)} images with {args.method}; wrote {out}/synthetic.cnd")
    return EXIT_OK


def cmd_export_proj(args) -> int:
    cfg = load_config(args.config, args.set or [])
    synth = _load_container(args.synthetic)
    train = build_split(cfg, "train")
    n_real = cfg["projection"]["n_real"]
    rng = np.random.default_rng(cfg["seed"])
    idx = rng.choice(len(train), size=min(n_real, len(train)), replace=False)
    real_feats = train.images[idx].reshape(len(idx), -1)
    synth_feats = synth.images.values.reshape(len(synth.labels), -1)
    out_path = args.output or str(Path(cfg["output_dir"]) / "projection.csv")
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    export_projection_csv(real_feats, synth_feats, train.labels[idx], synth.labels, out_path)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"gradcheck --seed must be >= 0, got {args.seed}")
    t0 = time.monotonic()
    results = gc.run_suite(seed=args.seed)
    failed = [r for r in results if not r.passed]
    by_prim: dict[str, float] = {}
    for r in results:
        prim = r.name.split("[")[0]
        by_prim[prim] = max(by_prim.get(prim, 0.0), r.worst_rel)
    for prim, worst in by_prim.items():
        print(f"{prim:<28} worst rel. error {worst:.3e}")
    print(f"elapsed {time.monotonic() - t0:.1f}s")
    if failed:
        for r in failed:
            print(f"FAIL {r.name}: {r.detail}", file=sys.stderr)
        return EXIT_GRADCHECK
    print("all gradient checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="condensery",
                                description="Dataset condensation by feature alignment")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True, help="YAML config file")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config value (dotted path)")

    sp = sub.add_parser("condense", help="learn a synthetic set")
    add_common(sp)
    sp.set_defaults(fn=cmd_condense)

    sp = sub.add_parser("eval", help="train-on-synthetic evaluation")
    sp.add_argument("synthetic", help="CND container to evaluate")
    add_common(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("coreset", help="run a selection baseline")
    sp.add_argument("method", help=f"one of: {', '.join(CORESET_METHODS)}")
    add_common(sp)
    sp.set_defaults(fn=cmd_coreset)

    sp = sub.add_parser("export-proj", help="export a 2-D PCA projection CSV")
    sp.add_argument("synthetic", help="CND container to project")
    sp.add_argument("--output", help="CSV output path")
    add_common(sp)
    sp.set_defaults(fn=cmd_export_proj)

    sp = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    kept = _keep_freed_memory()
    args = build_parser().parse_args(argv)
    args.malloc_thresholds = kept
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONTAINER
    except (CondenseryError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
