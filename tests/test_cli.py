"""CLI subcommands: exit codes, overrides, artifacts."""

import ctypes
import functools
import json
import os
import platform
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import condensery.tensor as T
from condensery import cli
from condensery.bilevel import CondenseConfig, run_condense
from condensery.data import STATS_BLOCK, load_idx, load_synthetic, new_synthetic, \
    save_synthetic
from condensery.errors import ConfigError, DivergenceError
from condensery.evaluate import EvalConfig, EvalReport
from condensery.models import ConvNetSpec
from idx_files import save_idx


def blob_config(tmp_path, **extra):
    cfg = {
        "output_dir": str(tmp_path / "run"),
        "seed": 3,
        "dataset": {"kind": "blobs", "num_classes": 3, "n_train_per_class": 30,
                    "n_test_per_class": 20, "shape": [1, 8, 8], "spread": 0.15},
        "arch": {"type": "convnet", "blocks": 2, "channels": 4},
        "condense": {"ipc": 1, "n_per_class": 8, "gamma": 2, "l_out": 3, "l_in": 3,
                     "max_outer_iters": 5, "query_size": 12},
        "eval": {"epochs": 5, "lr": 0.05, "n_experiments": 1, "n_nets_per": 2},
    }
    cfg.update(extra)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path, cfg


def test_condense_writes_artifacts(tmp_path):
    path, cfg = blob_config(tmp_path)
    assert cli.main(["condense", "--config", str(path)]) == 0
    out = tmp_path / "run"
    assert (out / "synthetic.cnd").exists()
    assert (out / "metrics.csv").exists()
    assert (out / "config.yaml").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["libc"] == " ".join(platform.libc_ver()).strip()
    assert manifest["malloc_thresholds"] is cli._keep_freed_memory()
    synth = load_synthetic(out / "synthetic.cnd")
    assert synth.ipc == 1 and synth.num_classes == 3


def test_condense_default_arch_on_28x28(tmp_path):
    # the default ConvNet pools 28 -> 14 -> 7 -> 3
    path, _ = blob_config(
        tmp_path, arch={},
        dataset={"kind": "blobs", "num_classes": 2, "n_train_per_class": 4,
                 "n_test_per_class": 2, "shape": [1, 28, 28]},
        condense={"ipc": 1, "n_per_class": 2, "gamma": 2, "l_out": 1, "l_in": 1,
                  "max_outer_iters": 1, "query_size": 4})
    assert cli.main(["condense", "--config", str(path)]) == 0
    assert load_synthetic(tmp_path / "run" / "synthetic.cnd").images.shape == (2, 1, 28, 28)


def test_condense_missing_dataset_path(tmp_path, capsys):
    path, _ = blob_config(tmp_path, dataset={"kind": "idx", "train_images": "/nope.idx"})
    code = cli.main(["condense", "--config", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "train_labels" in err or "train_images" in err


def test_condense_single_class_blobs_rejected(tmp_path, capsys):
    path, _ = blob_config(tmp_path)
    assert cli.main(["condense", "--config", str(path), "--set", "dataset.num_classes=1"]) == 2
    assert "at least 2 classes" in capsys.readouterr().err
    assert not (tmp_path / "run" / "synthetic.cnd").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflow on the way to NaN
def test_diverged_condense_exits_2_and_eval_of_nan_container_exits_3(tmp_path, capsys):
    path, _ = blob_config(tmp_path)
    # a finished run's manifest in the same directory goes with the failure
    assert cli.main(["condense", "--config", str(path)]) == 0
    argv = ["condense", "--config", str(path), "--set", "condense.inner_lr=1e308"]
    assert cli.main(argv) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "run" / "synthetic.cnd").exists()
    assert not (tmp_path / "run" / "metrics.csv").exists()
    # condense opens its run directory before it runs, so config.yaml stays
    assert (tmp_path / "run" / "config.yaml").exists()
    assert not (tmp_path / "run" / "manifest.json").exists()
    container = tmp_path / "nan.cnd"
    save_synthetic(new_synthetic(3, 1, (1, 8, 8), np.random.default_rng(0)), container)
    raw = bytearray(container.read_bytes())
    raw[48:56] = np.array([np.nan], "<f8").tobytes()   # first pixel: 32-byte header + tag, length
    container.write_bytes(bytes(raw))
    assert cli.main(["eval", str(container), "--config", str(path)]) == 3
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflow on the way to Inf
def test_diverged_condense_stops_at_first_non_finite_step(tmp_path):
    # inner_lr=1e308 overflows theta within the first inner steps; without
    # the per-step check every remaining step ran on NaN
    path, _ = blob_config(tmp_path)
    cfg = cli.load_config(str(path), ["condense.inner_lr=1e308"])
    train = cli.build_split(cfg, "train")
    arch = cli.build_arch(cfg, train.image_shape, train.num_classes)
    outer_steps = []
    with pytest.raises(DivergenceError, match=r"^inner step \d+: (loss|theta) is non-finite$"):
        run_condense(train, arch, cli.build_condense_config(cfg),
                     hook=lambda row: outer_steps.append(row["iter"]))
    assert len(outer_steps) <= 2


# An MLP has no norm to absorb huge weights: at lr 1e300 the second step's
# forward overflows, and the run stops there instead of training on NaN.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command, lr_key", [("eval", "eval.lr"),
                                             ("coreset", "coreset.trace_lr")])
def test_diverged_training_exits_2(tmp_path, capsys, command, lr_key):
    path, _ = blob_config(tmp_path)
    container = tmp_path / "s.cnd"
    save_synthetic(new_synthetic(3, 1, (1, 8, 8), np.random.default_rng(0)), container)
    head = ["eval", str(container)] if command == "eval" else ["coreset", "forgetting"]
    argv = head + ["--config", str(path), "--set", "arch.type=mlp", "--set", f"{lr_key}=1e300"]
    assert cli.main(argv) == 2
    assert re.search(r"^error: training step \d+: (loss|weights) is non-finite$",
                     capsys.readouterr().err, re.M)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, override, env", [
    ("condense", "condense.ipc=abc", None),
    ("condense", "condense.ipc=null", None),
    ("condense", "dataset.shape=5", None),
    ("eval", "eval.lr=null", None),
    ("eval", "eval.epochs=abc", None),
    ("eval", None, "abc"),
    ("eval", None, "0"),
    ("eval", None, "-2"),
    ("condense", "dataset.shape=abc", None),
    pytest.param("condense", ("arch.type=mlp", "arch.hidden=abc"), None,
                 id="condense-arch.hidden=abc-None"),
    ("condense", "condense.outer_lr_milestones=abc", None),
    ("condense", "condense.ipc=2.7", None),
    ("condense", "output_dir=5", None),
    ("eval", "eval.batch_size=0", None),
    ("condense", "eval.batch_size=-4", None),
    ("eval", "eval.epochs=-3", None),
    ("eval", "eval.n_experiments=0", None),
    ("eval", "eval.n_nets_per=0", None),
    ("export-proj", "projection.n_real=0", None),
    ("export-proj", "projection.n_real=-5", None),
    ("export-proj", "output_dir=5", None),
    ("condense", "coreset.trace_epochs=-1", None),
    ("condense", "dataset.n_train_per_class=-1", None),
    ("eval", "dataset.n_test_per_class=0", None),
    ("condense", "dataset.shape=[-1,8,8]", None),
    ("condense", "dataset.shape=[8,8]", None),
    ("condense", "condense.n_per_class=-1", None),
    ("condense", "condense.query_size=0", None),
    ("condense", "condense.l_in=-1", None),
    ("condense", "condense.l_in=0", None),
    ("condense", "seed=-1", None),
    ("condense", "dataset.train_images=0", None),
    ("condense", "dataset.train_images=[a]", None),
    ("condense", "seed=true", None),
    ("condense", "dataset.spread=.nan", None),
    ("condense", "condense.outer_lr=.inf", None),
    pytest.param("condense", ("arch.type=mlp", "arch.hidden=[]"), None,
                 id="condense-arch.hidden=[]-None"),
    ("condense", "eval.lr=null", None),
    ("condense", "seed=[", None),
    ("eval", "eval.lr=-1", None),
    ("condense", "condense.outer_lr=-1", None),
    ("condense", "condense.inner_lr=-1", None),
    ("condense", "coreset.trace_lr=-1", None),
    ("eval", "condense.beta=-1", None),
    ("eval", "condense.lambda1=0", None),
    ("eval", "condense.m_per_class=2", None),
    ("condense", "condense.n_per_class=1.0e+300", None),
    ("condense", "condense.query_size=1.0e+300", None),
    ("condense", "condense.gamma=1.0e+300", None),
    ("condense", "coreset.trace_epochs=1.0e+300", None),
    ("condense", "seed.x=1", None),
    ("condense", "seed='7'", None),
    ("condense", "condense.outer_lr='0.5'", None),
    ("condense", "dataset.shape=['1', 8, 8]", None),
])
def test_wrong_typed_config_value_exits_2(tmp_path, monkeypatch, capsys, command, override,
                                          env):
    path, _ = blob_config(tmp_path)
    argv = [command, "--config", str(path)]
    if command in ("eval", "export-proj"):
        container = tmp_path / "s.cnd"
        save_synthetic(new_synthetic(3, 1, (1, 8, 8), np.random.default_rng(0)), container)
        argv.insert(1, str(container))
    overrides = (override,) if isinstance(override, str) else override or ()
    for ov in overrides:
        argv += ["--set", ov]
    if env is not None:
        monkeypatch.setenv("CONDENSERY_THREADS", env)
    assert cli.main(argv) == 2
    named = overrides[-1].split("=")[0] if overrides else "CONDENSERY_THREADS"
    assert named in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_an_exponent_with_no_dot_or_no_sign_is_a_number(tmp_path):
    # YAML 1.1 reads 1e-3 and 1.0e3 as strings, which the readers refuse;
    # the config loader reads them as numbers, in the file and in --set
    path, _ = blob_config(tmp_path)
    path.write_text(path.read_text().replace("lr: 0.05", "lr: 5e-2"))
    cfg = cli.load_config(str(path), ["condense.inner_lr=1e-3", "condense.outer_lr=1.0e1",
                                      "seed=2E1"])
    assert (cfg["eval"]["lr"], cfg["condense"]["inner_lr"]) == (0.05, 0.001)
    assert (cfg["condense"]["outer_lr"], cfg["seed"]) == (10.0, 20)
    with pytest.raises(ConfigError, match="'condense.inner_lr' has a bad value '1e-3'"):
        cli.load_config(str(path), ["condense.inner_lr='1e-3'"])


def test_set_override_precedence(tmp_path):
    path, _ = blob_config(tmp_path)
    cfg = cli.load_config(str(path), ["condense.lambda1=0.05"])
    assert cfg["condense"]["lambda1"] == 0.05
    cfg = cli.load_config(str(path), ["condense.lambda1=0.2", "seed=9"])
    assert cfg["condense"]["lambda1"] == 0.2
    assert cfg["seed"] == 9


def test_set_override_leaves_defaults_alone(tmp_path):
    path, _ = blob_config(tmp_path)
    assert cli.load_config(str(path), ["projection.n_real=7"])["projection"]["n_real"] == 7
    assert cli.load_config(str(path), [])["projection"]["n_real"] == 500


def test_unknown_config_key_rejected(tmp_path):
    path, _ = blob_config(tmp_path, typo_section={"a": 1})
    with pytest.raises(ConfigError, match="typo_section"):
        cli.load_config(str(path), [])


@pytest.mark.parametrize("override", ["condense={ipc: 2}", "eval={epochs: 3}", "seed.x=1"])
def test_set_names_one_key_not_a_section_or_a_path_below_a_scalar(tmp_path, override):
    # a section's value would reset every other key of that section
    path, _ = blob_config(tmp_path)
    key = override.partition("=")[0]
    with pytest.raises(ConfigError, match=f"^unknown config key {key!r}$"):
        cli.load_config(str(path), [override])


def test_readme_example_loads_and_its_echo_round_trips(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = tmp_path / "blob.yaml"
    example.write_text(re.search(r"```yaml\n(.*?)```", readme, re.DOTALL).group(1))
    overrides = [f"output_dir={tmp_path / 'run'}"]
    cfg = cli.load_config(str(example), overrides)
    assert cfg["arch"]["channels"] == 4 and cfg["condense"]["ipc"] == 1
    assert cli.main(["coreset", "random", "--config", str(example), "--set", *overrides]) == 0
    assert cli.load_config(str(tmp_path / "run" / "config.yaml"), []) == cfg


def test_resolved_config_fills_every_default(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("dataset: {kind: blobs}\n")
    cfg = cli.load_config(str(path), [])
    assert cfg["seed"] == 0 and cfg["output_dir"] == "runs/out"
    assert cfg["arch"]["channels"] == ConvNetSpec.channels == 128
    assert cfg["dataset"]["num_classes"] is None and cfg["eval"]["epochs"] == 100
    assert cfg["condense"]["outer_lr_milestones"] == CondenseConfig.outer_lr_milestones
    assert cfg["projection"]["n_real"] == 500


def test_malformed_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    # unbalanced YAML, and a UTF-16 byte-order mark, which is no UTF-8
    for raw in (b"seed: [\n", b"\xff\xfeseed: 1\n"):
        path.write_bytes(raw)
        assert cli.main(["condense", "--config", str(path)]) == 2
        assert "cannot read config" in capsys.readouterr().err


def test_metrics_csv_stream(tmp_path):
    path, _ = blob_config(tmp_path)
    argv = ["condense", "--config", str(path), "--set", "condense.max_outer_iters=3"]
    assert cli.main(argv) == 0
    lines = (tmp_path / "run" / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "iter,l_f,l_d,total,query_acc,lc_out,lr"
    assert len(lines) == 4   # header + one row per outer iteration


@pytest.mark.parametrize("key", ["n_experiments", "n_nets_per"])
def test_eval_of_over_1000_networks_per_count_exits_2(tmp_path, capsys, key):
    path, _ = blob_config(tmp_path)
    container = tmp_path / "s.cnd"
    save_synthetic(new_synthetic(3, 1, (1, 8, 8), np.random.default_rng(0)), container)
    argv = ["eval", str(container), "--config", str(path), "--set", f"eval.{key}=1001"]
    assert cli.main(argv) == 2
    assert f"{key} must be <= 1000, got 1001" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("classes, shape", [(3, (1, 8, 8)), (5, (1, 8, 8)), (4, (1, 4, 4))],
                         ids=["fewer_classes", "more_classes", "other_shape"])
def test_eval_of_a_container_unlike_the_test_split_exits_2(tmp_path, capsys, classes, shape):
    # the test split has 4 classes of 1x8x8; a 3-class container used to
    # score networks that never saw class 3
    path, _ = blob_config(tmp_path)
    container = tmp_path / "s.cnd"
    save_synthetic(new_synthetic(classes, 1, shape, np.random.default_rng(0)), container)
    argv = ["eval", str(container), "--config", str(path), "--set", "dataset.num_classes=4"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"holds {classes} classes of shape {shape}" in err
    assert "the test split has 4 classes of shape (1, 8, 8)" in err
    assert not (tmp_path / "run").exists()


def test_eval_round_trip_matches_memory(tmp_path, capsys):
    path, cfg = blob_config(tmp_path)
    assert cli.main(["condense", "--config", str(path)]) == 0
    synth_path = tmp_path / "run" / "synthetic.cnd"
    assert cli.main(["eval", str(synth_path), "--config", str(path)]) == 0
    out1 = (tmp_path / "run" / "eval.csv").read_text()
    # in-memory evaluation of the same loaded container is bit-identical
    from condensery.cli import build_arch, build_eval_config, build_split
    full = cli.load_config(str(path), [])
    test = build_split(full, "test")
    arch = build_arch(full, test.image_shape, test.num_classes)
    from condensery.evaluate import evaluate_protocol
    rep = evaluate_protocol(load_synthetic(synth_path), arch, test, build_eval_config(full))
    for i, acc in enumerate(rep.accuracies):
        assert f"{i},{acc!r}" in out1


def test_eval_missing_container(tmp_path, capsys):
    path, _ = blob_config(tmp_path)
    assert cli.main(["eval", str(tmp_path / "missing.cnd"), "--config", str(path)]) == 3
    assert "cannot load container" in capsys.readouterr().err


def test_eval_of_zero_sized_container_exits_3(tmp_path, capsys):
    # a CND v1 header declaring 3 classes of 1 image of shape 0x0x0
    path, _ = blob_config(tmp_path)
    container = tmp_path / "empty.cnd"
    container.write_bytes(b"CND1" + struct.pack("<7I", 1, 3, 1, 0, 0, 0, 2)
                          + b"images  " + struct.pack("<Q", 0)
                          + b"labels  " + struct.pack("<Q", 12)
                          + np.arange(3, dtype="<u4").tobytes())
    assert cli.main(["eval", str(container), "--config", str(path)]) == 3
    assert "offset 16" in capsys.readouterr().err


def test_eval_config_defaults_and_the_removed_protocol_key(tmp_path, capsys):
    # every eval key defaults to EvalConfig's field, the paper's counts are
    # three overrides, and eval.protocol is an unknown key
    path, _ = blob_config(tmp_path, eval={})
    assert cli.build_eval_config(cli.load_config(str(path), [])) == EvalConfig(seed=3)
    paper = ["eval.n_experiments=5", "eval.n_nets_per=20", "eval.epochs=300"]
    assert cli.build_eval_config(cli.load_config(str(path), paper)) == \
        EvalConfig(epochs=300, n_experiments=5, n_nets_per=20, seed=3)
    container = tmp_path / "s.cnd"
    save_synthetic(new_synthetic(3, 1, (1, 8, 8), np.random.default_rng(0)), container)
    assert cli.main(["eval", str(container), "--config", str(path),
                     "--set", "eval.protocol=paper"]) == 2
    assert "unknown config key 'eval.protocol'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_negative_trace_lr_is_refused_by_eval_config_before_any_data_loads(tmp_path, monkeypatch,
                                                                          capsys):
    # the forgetting trace's lr has one range owner, EvalConfig, checked
    # with the other sections when the config is read: its message has the
    # eval section's form, and no data loads and no artifact is written
    path, _ = blob_config(tmp_path)
    monkeypatch.setattr(cli, "build_split", lambda cfg, split: pytest.fail("data loaded"))
    assert cli.main(["coreset", "forgetting", "--config", str(path),
                     "--set", "coreset.trace_lr=-1"]) == 2
    assert capsys.readouterr().err == "error: coreset.trace_lr must be >= 0, got -1.0\n"
    assert not (tmp_path / "run").exists()


def test_eval_empty_idx_test_split_exits_3(tmp_path, capsys):
    pixels = np.zeros((3, 1, 8, 8), np.uint8)
    paths = {k: str(tmp_path / f"{k}.idx") for k in
             ("train_images", "train_labels", "test_images", "test_labels")}
    save_idx(pixels, [0, 1, 2], paths["train_images"], paths["train_labels"])
    save_idx(pixels[:0], [], paths["test_images"], paths["test_labels"])
    path, _ = blob_config(tmp_path, dataset={"kind": "idx", "num_classes": 3, **paths})
    container = tmp_path / "s.cnd"
    save_synthetic(new_synthetic(3, 1, (1, 8, 8), np.random.default_rng(0)), container)
    assert cli.main(["eval", str(container), "--config", str(path)]) == 3
    assert "0 records" in capsys.readouterr().err


def idx_config(tmp_path, n_train, n_test):
    """blob_config's settings on IDX files of 3 classes of 1x8x8 noise; the
    class count is left to the train labels."""
    rng = np.random.default_rng(0)
    paths = {k: str(tmp_path / f"{k}.idx") for k in cli.IDX_PATHS}
    for split, n in (("train", n_train), ("test", n_test)):
        save_idx(rng.integers(0, 256, size=(n, 1, 8, 8)), np.arange(n) % 3,
                 paths[f"{split}_images"], paths[f"{split}_labels"])
    path, _ = blob_config(tmp_path, dataset={"kind": "idx", **paths})
    return path, paths


def test_only_eval_reads_the_test_split(tmp_path, capsys):
    # a truncated test-images file fails eval alone: condense, coreset and
    # export-proj check that it exists but never parse it
    path, paths = idx_config(tmp_path, 24, 12)
    test_images = Path(paths["test_images"])
    test_images.write_bytes(test_images.read_bytes()[:-5])
    assert cli.main(["condense", "--config", str(path)]) == 0
    container = str(tmp_path / "run" / "synthetic.cnd")
    assert cli.main(["coreset", "random", "--config", str(path),
                     "--set", f"output_dir={tmp_path / 'random'}"]) == 0
    assert cli.main(["export-proj", container, "--config", str(path),
                     "--output", str(tmp_path / "proj.csv")]) == 0
    capsys.readouterr()
    assert cli.main(["eval", container, "--config", str(path),
                     "--set", f"output_dir={tmp_path / 'eval'}"]) == 3
    assert "image payload length" in capsys.readouterr().err
    test_images.unlink()
    assert cli.main(["condense", "--config", str(path)]) == 2


def test_eval_normalizes_the_test_split_with_the_bits_of_a_full_train_load(tmp_path,
                                                                          monkeypatch):
    # eval reads the train split's class count and statistics from its uint8
    # pixels, over more than one block of samples, without building it
    path, paths = idx_config(tmp_path, 3 * STATS_BLOCK + 101, 12)
    seen = []

    def evaluate_protocol(synth, arch, test, ecfg):
        seen.append(test)
        return EvalReport.from_runs([0.5])

    monkeypatch.setattr(cli, "evaluate_protocol", evaluate_protocol)
    container = tmp_path / "s.cnd"
    save_synthetic(new_synthetic(3, 1, (1, 8, 8), np.random.default_rng(0)), container)
    assert cli.main(["eval", str(container), "--config", str(path)]) == 0
    train = load_idx(paths["train_images"], paths["train_labels"])
    test = load_idx(paths["test_images"], paths["test_labels"], stats=train.norm_stats)
    np.testing.assert_array_equal(seen[0].images, test.images)
    np.testing.assert_array_equal(seen[0].norm_stats.std, train.norm_stats.std)
    assert seen[0].num_classes == train.num_classes == 3


def test_coreset_random_stable(tmp_path):
    path, _ = blob_config(tmp_path)
    assert cli.main(["coreset", "random", "--config", str(path)]) == 0
    first = (tmp_path / "run" / "synthetic.cnd").read_bytes()
    assert cli.main(["coreset", "random", "--config", str(path)]) == 0
    assert (tmp_path / "run" / "synthetic.cnd").read_bytes() == first


def test_coreset_herding_invariants(tmp_path):
    path, _ = blob_config(tmp_path)
    assert cli.main(["coreset", "herding", "--config", str(path)]) == 0
    synth = load_synthetic(tmp_path / "run" / "synthetic.cnd")
    np.testing.assert_array_equal(synth.labels, [0, 1, 2])
    sel_lines = (tmp_path / "run" / "selection.csv").read_text().strip().splitlines()
    assert len(sel_lines) == 4
    idx = [int(l.split(",")[2]) for l in sel_lines[1:]]
    assert len(set(idx)) == 3


def test_coreset_output_feeds_eval(tmp_path):
    path, _ = blob_config(tmp_path)
    assert cli.main(["coreset", "kcenter", "--config", str(path)]) == 0
    synth_path = tmp_path / "run" / "synthetic.cnd"
    assert cli.main(["eval", str(synth_path), "--config", str(path)]) == 0


def test_coreset_unknown_method(tmp_path, capsys):
    path, _ = blob_config(tmp_path)
    assert cli.main(["coreset", "mystery", "--config", str(path)]) == 2
    assert "herding" in capsys.readouterr().err


def test_export_proj(tmp_path):
    path, _ = blob_config(tmp_path)
    assert cli.main(["condense", "--config", str(path)]) == 0
    out = tmp_path / "proj.csv"
    assert cli.main(["export-proj", str(tmp_path / "run" / "synthetic.cnd"),
                     "--config", str(path), "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "set,class,pc1,pc2"
    assert len(lines) == 1 + 90 + 3


def test_gradcheck_clean(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "conv_block" in out and "all gradient checks passed" in out


def _fail(*args):
    raise ValueError("injected fault")


@pytest.mark.parametrize("phase, detail", [
    ("build", "raised ValueError: injected fault"),
    ("backward", "raised ValueError: injected fault"),
    ("difference", "raised ValueError: injected fault"),
    ("no_gradient", "backward left no gradient")])
def test_gradcheck_reports_a_faulty_check_as_failed(monkeypatch, capsys, phase, detail):
    # a check whose graph, backward or finite differences raise, or whose
    # leaf gets no gradient, fails with the cause named, and the suite
    # still runs every other check
    real_relu = T.relu
    calls = []

    def broken_relu(a):
        calls.append(a)
        if phase == "build" or phase == "difference" and len(calls) > 1:
            _fail()
        out = real_relu(a)
        if phase == "backward":
            out._backward = _fail
        return T.Tensor.constant(out.values) if phase == "no_gradient" else out

    monkeypatch.setattr(T, "relu", broken_relu)
    assert cli.main(["gradcheck"]) == 1
    err = capsys.readouterr().err
    assert f"FAIL relu[arg0]: {detail}" in err
    assert err.count("FAIL") == 1


def test_gradcheck_negative_seed_exits_2(capsys):
    assert cli.main(["gradcheck", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--seed" in err


def test_keep_freed_memory_without_mallopt(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert cli._keep_freed_memory() is False
    assert cli.main(["gradcheck"]) == 0


# Steady-state minor page faults of a batch-256 28x28 training step, read in
# a fresh interpreter so no earlier test has shaped its heap.
FAULT_PROBE = """
import json, resource
import numpy as np
from condensery import cli, evaluate
from condensery.models import ConvNetSpec, init_params
kept = cli._keep_freed_memory()
params = init_params(ConvNetSpec(blocks=2, channels=16, input_shape=(1, 28, 28),
                                 num_classes=10), seed=0)
rng = np.random.default_rng(0)
batch = rng.standard_normal((256, 1, 28, 28))
labels = rng.integers(0, 10, 256)
for _ in range(2):
    evaluate.train_step(params, batch, labels, 0.01)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(6):
    evaluate.train_step(params, batch, labels, 0.01)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"kept": kept, "faults_per_step": faults / 6}))
"""


def test_training_step_keeps_its_pages_once_thresholds_are_set():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    if not probe["kept"]:
        pytest.skip("this libc has no mallopt")
    # without the thresholds a step faults about 9000 pages in again
    assert probe["faults_per_step"] < 500


def test_gradcheck_detects_injected_sign_flip(monkeypatch, capsys):
    real_block = T.conv_block

    @functools.wraps(real_block)
    def broken_block(x, kernel):
        out = real_block(x, kernel)
        orig_bw = out._backward

        def bw(g, need):
            gx, gk = orig_bw(g, need)
            return gx, -gk   # injected fault
        out._backward = bw
        return out

    monkeypatch.setattr(T, "conv_block", broken_block)
    assert cli.main(["gradcheck"]) == 1
    err = capsys.readouterr().err
    assert "FAIL conv_block[arg1]" in err


def test_gradcheck_standalone_checks_catch_pool_and_norm_faults(monkeypatch, capsys):
    real = T.conv_block
    # the transposed window map keeps g's shape, so it also reaches the
    # suite's blocks whose pooled planes are not square
    faults = (lambda bw: lambda g, need: bw(g.swapaxes(2, 3).reshape(g.shape), need),
              lambda bw: lambda g, need: bw(g * 1.01, need))            # 1% too large
    for fault in faults:
        @functools.wraps(real)
        def broken(x, kernel, fault=fault):
            out = real(x, kernel)
            out._backward = fault(out._backward)
            return out

        monkeypatch.setattr(T, "conv_block", broken)
        assert cli.main(["gradcheck"]) == 1
        # each fault fails the op's own check, not only the composed network's
        assert "FAIL conv_block[arg0]" in capsys.readouterr().err
