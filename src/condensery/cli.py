"""Command-line front end.

Subcommands: condense, eval, coreset, export-proj, gradcheck. Runs are
driven by a YAML config file plus ``--set key=value`` dotted overrides;
every command echoes its merged config and a manifest into the run
directory so results are reproducible from the artifacts alone.

Exit codes: 0 success, 1 gradient-check failure, 2 config/input error,
3 bad container.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import yaml

from . import gradcheck as gc
from .bilevel import CondenseConfig, run_condense
from .coreset import materialize, select_forgetting, select_herding, select_kcenter, \
    select_random
from .data import LabeledDataset, load_idx, load_synthetic, make_blob_split, \
    save_synthetic, export_projection_csv
from .errors import CondenseryError, ConfigError, ParseError
from .evaluate import DESK_PROTOCOL, PAPER_PROTOCOL, EvalConfig, evaluate_protocol, \
    record_training_trace
from .models import ConvNetSpec, MLPSpec

EXIT_OK = 0
EXIT_GRADCHECK = 1
EXIT_CONFIG = 2
EXIT_CONTAINER = 3

CORESET_METHODS = ("random", "herding", "kcenter", "forgetting")

# allowed keys per config section; None means scalar leaf
SCHEMA = {
    "output_dir": None,
    "seed": None,
    "dataset": {
        "kind": None, "num_classes": None, "n_train_per_class": None,
        "n_test_per_class": None, "shape": None, "spread": None, "separation": None,
        "train_images": None, "train_labels": None, "test_images": None,
        "test_labels": None,
    },
    "arch": {"type": None, "blocks": None, "channels": None, "hidden": None},
    "condense": {
        "ipc": None, "n_per_class": None, "m_per_class": None, "beta": None,
        "lambda1": None, "lambda2": None, "gamma": None, "l_out": None, "l_in": None,
        "outer_lr": None, "outer_lr_milestones": None, "max_outer_iters": None,
        "inner_lr": None, "query_size": None,
    },
    "eval": {"protocol": None, "epochs": None, "lr": None, "batch_size": None,
             "n_experiments": None, "n_nets_per": None},
    "coreset": {"trace_epochs": None, "trace_lr": None},
    "projection": {"n_real": None},
}

DEFAULTS = {
    "seed": 0,
    "output_dir": "runs/out",
    "eval": {"protocol": "desk", "lr": 0.01, "batch_size": 256},
    "coreset": {"trace_epochs": 10, "trace_lr": 0.01},
    "projection": {"n_real": 500},
}


def _validate(cfg: dict, schema: dict = SCHEMA, prefix: str = "") -> None:
    for key, val in cfg.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {prefix + key!r}")
        sub = schema[key]
        if isinstance(sub, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {prefix + key!r} must be a mapping")
            _validate(val, sub, prefix + key + ".")


def _deep_merge(base: dict, extra: dict) -> dict:
    """A new mapping; ``--set`` later writes into its sections, so none may
    be shared with ``base`` (the module's DEFAULTS)."""
    out = copy.deepcopy(base)
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def load_config(path: str, overrides: list[str]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = yaml.safe_load(f) or {}
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r} must be a mapping at top level")
    cfg = _deep_merge(DEFAULTS, cfg)
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"--set expects key=value, got {ov!r}")
        key, _, raw = ov.partition("=")
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} crosses a scalar")
        node[parts[-1]] = yaml.safe_load(raw)
    _validate(cfg)
    return cfg


def _integer(raw) -> int:
    if isinstance(raw, float) and not raw.is_integer():
        raise ValueError("not a whole number")
    return int(raw)


def _integers(raw) -> tuple:
    if not isinstance(raw, (list, tuple)):
        raise TypeError("expected a list of integers")
    return tuple(map(_integer, raw))


def _string(raw) -> str:
    if not isinstance(raw, str):
        raise TypeError("expected a string")
    return raw


# kinds whose constructor takes values a config must not hold: int(2.7)
# truncates, tuple("abc") splits a string into characters, str(5) accepts
# a number
READERS = {int: _integer, tuple: _integers, str: _string}


def _as(kind, key: str, raw, least=None):
    """``raw`` read as a ``kind`` of at least ``least``; a value the reader
    rejects is a ConfigError naming ``key``."""
    try:
        val = READERS.get(kind, kind)(raw)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"config key {key!r} has a bad value {raw!r}: {e}") from None
    if least is not None and val < least:
        raise ConfigError(f"config key {key!r} must be >= {least}, got {raw!r}")
    return val


def build_datasets(cfg: dict) -> tuple[LabeledDataset, LabeledDataset]:
    d = cfg.get("dataset")
    if not d or "kind" not in d:
        raise ConfigError("config key 'dataset.kind' is required")
    kind = d["kind"]
    if kind == "blobs":
        return make_blob_split(
            num_classes=_as(int, "dataset.num_classes", d.get("num_classes", 3)),
            n_train=_as(int, "dataset.n_train_per_class", d.get("n_train_per_class", 200)),
            n_test=_as(int, "dataset.n_test_per_class", d.get("n_test_per_class", 100)),
            shape=_as(tuple, "dataset.shape", d.get("shape", [1, 8, 8])),
            spread=_as(float, "dataset.spread", d.get("spread", 0.1)),
            separation=_as(float, "dataset.separation", d.get("separation", 5.0)),
            seed=_as(int, "seed", cfg.get("seed", 0)))
    if kind == "idx":
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            if key not in d:
                raise ConfigError(f"config key 'dataset.{key}' is required for idx datasets")
            if not os.path.exists(d[key]):
                raise ConfigError(f"dataset.{key}: file not found: {d[key]}")
        k = d.get("num_classes")
        train = load_idx(d["train_images"], d["train_labels"],
                         num_classes=None if k is None else _as(int, "dataset.num_classes", k))
        test = load_idx(d["test_images"], d["test_labels"],
                        num_classes=train.num_classes, stats=train.norm_stats)
        return train, test
    raise ConfigError(f"unknown dataset.kind {kind!r} (expected blobs or idx)")


def build_arch(cfg: dict, image_shape: tuple, num_classes: int):
    a = cfg.get("arch", {})
    kind = a.get("type", "convnet")
    if kind == "convnet":
        return ConvNetSpec(blocks=_as(int, "arch.blocks", a.get("blocks", 3)),
                           channels=_as(int, "arch.channels", a.get("channels", 32)),
                           input_shape=tuple(image_shape), num_classes=num_classes)
    if kind == "mlp":
        return MLPSpec(input_shape=tuple(image_shape),
                       hidden=_as(tuple, "arch.hidden", a.get("hidden", [128, 128])),
                       num_classes=num_classes)
    raise ConfigError(f"unknown arch.type {kind!r} (expected convnet or mlp)")


def build_condense_config(cfg: dict) -> CondenseConfig:
    # each value takes the type of its field's default; m_per_class may stay None
    kinds = {f.name: int if f.default is None else type(f.default)
             for f in fields(CondenseConfig)}
    c = {k: v if k == "m_per_class" and v is None else _as(kinds[k], "condense." + k, v)
         for k, v in cfg.get("condense", {}).items()}
    return CondenseConfig(seed=_as(int, "seed", cfg.get("seed", 0)), **c)


def _prepare_run_dir(cfg: dict) -> Path:
    out = Path(_as(str, "output_dir", cfg["output_dir"]))
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.yaml", "w", encoding="utf-8") as f:
        yaml.safe_dump(cfg, f, sort_keys=False)
    return out


def _write_manifest(out: Path, command: str, cfg: dict, artifacts: list[str]) -> None:
    manifest = {
        "command": command,
        "seed": cfg.get("seed", 0),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "artifacts": artifacts + ["config.yaml"],
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)


def _cleanup(paths: list) -> None:
    for p in paths:
        try:
            os.remove(p)
        except OSError:
            pass


def cmd_condense(args) -> int:
    cfg = load_config(args.config, args.set or [])
    train, _ = build_datasets(cfg)
    ccfg = build_condense_config(cfg)
    arch = build_arch(cfg, train.image_shape, train.num_classes)
    out = _prepare_run_dir(cfg)
    synth_path = out / "synthetic.cnd"
    metrics_path = out / "metrics.csv"
    try:
        synth = run_condense(train, arch, ccfg, metrics_path=metrics_path)
        save_synthetic(synth, synth_path)
    except BaseException:
        _cleanup([synth_path, metrics_path])
        raise
    _write_manifest(out, "condense", cfg, ["synthetic.cnd", "metrics.csv"])
    print(f"wrote {synth_path} and {metrics_path}")
    return EXIT_OK


def _eval_protocol_params(cfg: dict) -> tuple[int, int, EvalConfig]:
    e = cfg.get("eval", {})
    proto = DESK_PROTOCOL if e.get("protocol", "desk") == "desk" else PAPER_PROTOCOL
    if e.get("protocol", "desk") not in ("desk", "paper"):
        raise ConfigError(f"unknown eval.protocol {e['protocol']!r}")
    n_exp = _as(int, "eval.n_experiments", e.get("n_experiments", proto["n_experiments"]), 1)
    n_nets = _as(int, "eval.n_nets_per", e.get("n_nets_per", proto["n_nets_per"]), 1)
    ecfg = EvalConfig(epochs=_as(int, "eval.epochs", e.get("epochs", proto["epochs"])),
                      lr=_as(float, "eval.lr", e.get("lr", 0.01)),
                      batch_size=_as(int, "eval.batch_size", e.get("batch_size", 256), 1),
                      seed=_as(int, "seed", cfg.get("seed", 0)))
    return n_exp, n_nets, ecfg


def cmd_eval(args) -> int:
    cfg = load_config(args.config, args.set or [])
    try:
        synth = load_synthetic(args.synthetic)
    except (OSError, ParseError) as e:
        print(f"error: cannot load container {args.synthetic!r}: {e}", file=sys.stderr)
        return EXIT_CONTAINER
    _, test = build_datasets(cfg)
    arch = build_arch(cfg, test.image_shape, test.num_classes)
    n_exp, n_nets, ecfg = _eval_protocol_params(cfg)
    out = _prepare_run_dir(cfg)
    report = evaluate_protocol(synth, arch, test, n_exp, n_nets, ecfg)
    csv_path = out / "eval.csv"
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write("run,accuracy\n")
        for i, acc in enumerate(report.accuracies):
            f.write(f"{i},{acc!r}\n")
        f.write(f"mean,{report.mean!r}\nstd,{report.std!r}\n")
    _write_manifest(out, "eval", cfg, ["eval.csv"])
    print(f"{'set':<20} {'ipc':>4} {'accuracy':>16}")
    print(f"{Path(args.synthetic).name:<20} {synth.ipc:>4} "
          f"{100 * report.mean:>9.2f}±{100 * report.std:.2f}%")
    return EXIT_OK


def cmd_coreset(args) -> int:
    if args.method not in CORESET_METHODS:
        print(f"error: unknown method {args.method!r}; valid: {', '.join(CORESET_METHODS)}",
              file=sys.stderr)
        return EXIT_CONFIG
    cfg = load_config(args.config, args.set or [])
    train, _ = build_datasets(cfg)
    ccfg = build_condense_config(cfg)
    seed = _as(int, "seed", cfg.get("seed", 0))
    if args.method == "random":
        sel = select_random(train, ccfg.ipc, seed)
    elif args.method == "herding":
        sel = select_herding(train, ccfg.ipc)
    elif args.method == "kcenter":
        sel = select_kcenter(train, ccfg.ipc)
    else:
        co = cfg.get("coreset", {})
        arch = build_arch(cfg, train.image_shape, train.num_classes)
        trace = record_training_trace(
            train, arch, _as(int, "coreset.trace_epochs", co.get("trace_epochs", 10)),
            _as(float, "coreset.trace_lr", co.get("trace_lr", 0.01)), seed)
        sel = select_forgetting(train, ccfg.ipc, trace)
    out = _prepare_run_dir(cfg)
    synth = materialize(train, sel)
    save_synthetic(synth, out / "synthetic.cnd")
    sel.to_csv(out / "selection.csv")
    _write_manifest(out, f"coreset:{args.method}", cfg, ["synthetic.cnd", "selection.csv"])
    print(f"selected {len(sel.indices)} images with {args.method}; wrote {out}/synthetic.cnd")
    return EXIT_OK


def cmd_export_proj(args) -> int:
    cfg = load_config(args.config, args.set or [])
    try:
        synth = load_synthetic(args.synthetic)
    except (OSError, ParseError) as e:
        print(f"error: cannot load container {args.synthetic!r}: {e}", file=sys.stderr)
        return EXIT_CONTAINER
    train, _ = build_datasets(cfg)
    n_real = _as(int, "projection.n_real", cfg.get("projection", {}).get("n_real", 500), 2)
    rng = np.random.default_rng(_as(int, "seed", cfg.get("seed", 0)))
    idx = rng.choice(len(train), size=min(n_real, len(train)), replace=False)
    real_feats = train.images[idx].reshape(len(idx), -1)
    synth_feats = synth.images.values.reshape(len(synth.labels), -1)
    out_path = args.output or str(Path(_as(str, "output_dir", cfg["output_dir"]))
                                  / "projection.csv")
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    export_projection_csv(real_feats, synth_feats, train.labels[idx], synth.labels, out_path)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
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
    args = build_parser().parse_args(argv)
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
