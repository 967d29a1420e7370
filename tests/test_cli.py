"""Command-line pipeline: config strictness, artifact layout, reruns, errors.

The heavyweight artifacts (benchmark, checkpoints) are built once per module
by chaining the real commands, exactly as a user would.
"""

import argparse
import dataclasses
import json
import struct

import numpy as np
import pytest

from pdfuse.cli import PipelineConfig, build_parser, load_pipeline_config, main
from pdfuse.direction_discovery import DirectionVector
from pdfuse.errors import ConfigError
from pdfuse.fusion import FusionTrainConfig
from pdfuse.io import load_checkpoint, load_latent, save_checkpoint, save_direction, save_latent
from pdfuse.latent_editing import LatentVector
from pdfuse.manifest import DatasetManifest, load_manifest, save_manifest
from pdfuse.seeding import derive_seed

CONFIG_TEXT = """
benchmark:
  n_per_class: 2
  n_expression_samples: 6
  gait_frames: 64
direction:
  l2: 0.1
gait_model:
  channels: [8]
  window_length: 32
  stride: 16
  embedding_dim: 4
gait_train:
  epochs: 2
face_model:
  conv_channels: [2]
  embedding_dim: 4
face_train:
  epochs: 2
fusion_train:
  epochs: 5
"""


def run_ok(argv) -> None:
    code = main(argv)
    assert code == 0, f"command failed: {argv}"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One simulate/train-face/train-gait/train-fusion chain, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.yaml"
    config.write_text(CONFIG_TEXT)
    sim = root / "sim"
    run_ok(["simulate", "--config", str(config), "--out", str(sim)])
    bench = sim / "benchmark"
    manifest = bench / "manifest.jsonl"

    face_dir = root / "face"
    run_ok(["train-face", "--config", str(config), "--benchmark", str(bench), "--out", str(face_dir)])
    gait_dir = root / "gait"
    run_ok(["train-gait", "--config", str(config), "--manifest", str(manifest), "--out", str(gait_dir)])
    fusion_dir = root / "fusion"
    run_ok(
        [
            "train-fusion",
            "--config",
            str(config),
            "--manifest",
            str(manifest),
            "--gait",
            str(gait_dir / "gait.ckpt"),
            "--face",
            str(face_dir / "face.ckpt"),
            "--out",
            str(fusion_dir),
        ]
    )
    return {
        "root": root,
        "config": config,
        "sim": sim,
        "bench": bench,
        "manifest": manifest,
        "face_ckpt": face_dir / "face.ckpt",
        "gait_ckpt": gait_dir / "gait.ckpt",
        "fusion_ckpt": fusion_dir / "fusion.ckpt",
    }


class TestConfigLoading:
    def test_missing_document_gives_defaults(self):
        cfg = load_pipeline_config(None)
        assert cfg.seed == 0
        assert cfg.benchmark.n_per_class == 200

    def test_yaml_lists_become_tuples(self, pipeline, tmp_path):
        doc = tmp_path / "config.yaml"
        doc.write_text(CONFIG_TEXT + "evaluation:\n  fold_indices: [0, 2]\n")
        cfg = load_pipeline_config(doc)
        assert cfg.gait_model.channels == (8,)
        assert cfg.face_model.conv_channels == (2,)
        assert cfg.gait_train.epochs == 2
        assert cfg.evaluation.fold_indices == (0, 2)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("benchmark:\n  n_per_class: x\n", "section 'benchmark': n_per_class: expected int, got str"),
            ("inversion:\n  lambda_layers: 3\n", "section 'inversion': lambda_layers: expected list, got int"),
            ("gait_model:\n  branches: [{kind: conv}]\n", r"section 'gait_model': branches\[0\]: missing key"),
            ("direction:\n  mode: fast\n", "section 'direction': mode must be one of"),
            ("evaluation:\n  fold_indices: [0, true]\n", r"section 'evaluation': fold_indices\[1\]: expected int"),
        ],
        ids=["str-for-int", "int-for-tuple", "partial-nested", "constructor-check", "bool-in-tuple"],
    )
    def test_value_types_checked_against_fields(self, tmp_path, text, message):
        doc = tmp_path / "bad.yaml"
        doc.write_text(text)
        with pytest.raises(ConfigError, match=f"config {message}"):
            load_pipeline_config(doc)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("seed: 3.7\n", "key 'seed': expected int, got float"),
            ("seed: true\n", "key 'seed': expected int, got bool"),
            ("seed: '3'\n", "key 'seed': expected int, got str"),
            ("out_dir: 5\n", "key 'out_dir': expected str, got int"),
        ],
        ids=["float-seed", "bool-seed", "str-seed", "int-out-dir"],
    )
    def test_top_level_types_checked(self, tmp_path, text, message):
        doc = tmp_path / "bad.yaml"
        doc.write_text(text)
        with pytest.raises(ConfigError, match=f"config {message}"):
            load_pipeline_config(doc)

    def test_top_level_values_kept_as_given(self, tmp_path):
        doc = tmp_path / "config.yaml"
        doc.write_text("seed: 3\nout_dir: runs/x\n")
        cfg = load_pipeline_config(doc)
        assert (cfg.seed, cfg.out_dir) == (3, "runs/x")
        assert cfg.hash() == PipelineConfig(seed=3).hash()

    def test_int_for_float_is_kept_so_the_hash_holds(self, tmp_path):
        doc = tmp_path / "config.yaml"
        doc.write_text("fusion_train:\n  learning_rate: 1\n")
        cfg = load_pipeline_config(doc)
        assert type(cfg.fusion_train.learning_rate) is int
        assert cfg.hash() == PipelineConfig(fusion_train=FusionTrainConfig(learning_rate=1)).hash()
        assert cfg.hash() != PipelineConfig(fusion_train=FusionTrainConfig(learning_rate=1.0)).hash()

    def test_unknown_section_rejected(self, tmp_path):
        doc = tmp_path / "bad.yaml"
        for text, name in (("optimizer:\n  momentum: 0.9\n", "optimizer"), ("workers: 2\n", "workers")):
            doc.write_text(text)
            with pytest.raises(ConfigError, match=f"unknown config section '{name}'"):
                load_pipeline_config(doc)

    def test_unknown_key_names_section_and_key(self, tmp_path):
        doc = tmp_path / "bad.yaml"
        doc.write_text("gait_train:\n  epoch: 3\n")
        with pytest.raises(ConfigError, match="config section 'gait_train': unknown key 'epoch'"):
            load_pipeline_config(doc)

    def test_section_seed_redirects_to_global(self, tmp_path):
        doc = tmp_path / "bad.yaml"
        doc.write_text("fusion_train:\n  seed: 4\n")
        with pytest.raises(ConfigError, match="set the top-level 'seed' instead"):
            load_pipeline_config(doc)

    def test_scalar_section_rejected(self, tmp_path):
        doc = tmp_path / "bad.yaml"
        doc.write_text("benchmark: 7\n")
        with pytest.raises(ConfigError, match="section 'benchmark' must be a mapping"):
            load_pipeline_config(doc)

    def test_top_level_must_be_mapping(self, tmp_path):
        doc = tmp_path / "bad.yaml"
        doc.write_text("- a\n- b\n")
        with pytest.raises(ConfigError, match="mapping at the top level"):
            load_pipeline_config(doc)

    def test_hash_ignores_output_directory(self):
        a = PipelineConfig(out_dir="runs/a")
        b = PipelineConfig(out_dir="runs/b")
        assert a.hash() == b.hash()
        assert a.hash() != PipelineConfig(seed=1).hash()


class TestCommandSkeleton:
    """What run_command does once for every producing command."""

    @pytest.mark.parametrize(
        "out, metrics",
        [
            ("sim", "simulate_metrics.json"),
            ("face", "face_metrics.json"),
            ("gait", "gait_metrics.json"),
            ("fusion", "fusion_metrics.json"),
        ],
    )
    def test_artifacts_exist_and_hashes_agree(self, pipeline, out, metrics):
        out = pipeline["root"] / out
        run = json.loads((out / "run.json").read_text())
        assert metrics in run["artifacts"]
        for name in run["artifacts"]:
            assert (out / name).exists(), name
        assert json.loads((out / metrics).read_text())["config_hash"] == run["config_hash"]

    def test_config_flags_name_real_section_fields(self):
        subcommands = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        config = PipelineConfig()
        dests = [
            action.dest
            for sub in subcommands.values()
            for action in sub._actions
            if "." in action.dest
        ]
        assert len(dests) == 10
        for dest in dests:
            section, name = dest.split(".")
            assert name in {f.name for f in dataclasses.fields(getattr(config, section))}, dest

    def test_stage_seeds_recorded_as_they_ran(self, pipeline):
        run = json.loads((pipeline["face_ckpt"].parent / "run.json").read_text())
        expected = {
            "benchmark": "simulate",
            "inversion": "invert",
            "gait_train": "train-gait",
            "face_train": "train-face",
            "fusion_train": "train-fusion",
        }
        for section, stage in expected.items():
            assert run["config"][section]["seed"] == derive_seed(run["seed"], stage), section


class TestSimulateCommand:
    def test_artifact_layout(self, pipeline):
        sim = pipeline["sim"]
        assert (pipeline["bench"] / "generator.json").exists()
        manifest = load_manifest(pipeline["manifest"])
        assert len(manifest) == 4

        metrics = json.loads((sim / "simulate_metrics.json").read_text())
        assert metrics["n_subjects"] == 4
        assert "timings_s" not in metrics
        run = json.loads((sim / "run.json").read_text())
        assert run["command"] == "simulate"
        assert run["config_hash"] == metrics["config_hash"]
        assert "total" in run["timings_s"]

        provenance = json.loads((pipeline["bench"] / "provenance.json").read_text())
        assert provenance["config_hash"] == metrics["config_hash"]

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        """Same seed and config in a fresh directory reproduce every metric
        byte and every benchmark byte; only run.json timings may differ."""
        run_ok(["simulate", "--config", str(pipeline["config"]), "--out", str(tmp_path)])
        original = (pipeline["sim"] / "simulate_metrics.json").read_bytes()
        assert (tmp_path / "simulate_metrics.json").read_bytes() == original
        assert (tmp_path / "benchmark" / "manifest.jsonl").read_bytes() == pipeline[
            "manifest"
        ].read_bytes()
        rec = load_manifest(pipeline["manifest"]).records[0]
        face = rec.faces[0].path
        assert (tmp_path / "benchmark" / face).read_bytes() == (
            pipeline["bench"] / face
        ).read_bytes()


class TestInvertCommand:
    def test_inverts_benchmark_face(self, pipeline, tmp_path, capsys):
        manifest = load_manifest(pipeline["manifest"])
        image = manifest.resolve(manifest.records[0].faces[0].path)
        run_ok(
            [
                "invert",
                "--config",
                str(pipeline["config"]),
                "--image",
                str(image),
                "--generator-spec",
                str(pipeline["bench"] / "generator.json"),
                "--max-iterations",
                "50",
                "--out",
                str(tmp_path),
            ]
        )
        assert (tmp_path / "latent.pdl").exists()
        assert (tmp_path / "reconstruction.img").exists()
        metrics = json.loads((tmp_path / "inversion_metrics.json").read_text())
        assert metrics["iterations"] <= 50
        assert np.isfinite(metrics["per_pixel_mse"])
        assert "inverted in" in capsys.readouterr().out


def _cluster_pair(tmp_path):
    rng = np.random.default_rng(0)
    a = 0.3 * rng.normal(size=(80, 16))
    b = 0.3 * rng.normal(size=(80, 16))
    b[:, 0] += 2.0
    np.save(tmp_path / "a.npy", a)
    np.save(tmp_path / "b.npy", b)
    return a, b


class TestFitDirectionCommand:
    def test_reports_cosine_against_oracle(self, pipeline, tmp_path, capsys):
        a, b = _cluster_pair(tmp_path)
        gap = b.mean(axis=0) - a.mean(axis=0)
        oracle = DirectionVector(gap / np.linalg.norm(gap), "neutral", "happiness")
        save_direction(tmp_path / "oracle.json", oracle)

        out = tmp_path / "fit"
        run_ok(
            [
                "fit-direction",
                "--config",
                str(pipeline["config"]),
                "--latents-a",
                str(tmp_path / "a.npy"),
                "--latents-b",
                str(tmp_path / "b.npy"),
                "--source",
                "neutral",
                "--target",
                "happiness",
                "--oracle",
                str(tmp_path / "oracle.json"),
                "--out",
                str(out),
            ]
        )
        captured = capsys.readouterr().out
        assert "cosine similarity to oracle:" in captured
        metrics = json.loads((out / "fit_metrics.json").read_text())
        assert metrics["cosine_to_oracle"] > 0.9
        assert (out / "direction.json").exists()

    def test_mode_flag_reaches_config(self, pipeline, tmp_path):
        _cluster_pair(tmp_path)
        runs = {}
        for mode in ("standard", "paper_faithful"):
            out = tmp_path / mode
            run_ok(
                [
                    "fit-direction", "--config", str(pipeline["config"]),
                    "--latents-a", str(tmp_path / "a.npy"), "--latents-b", str(tmp_path / "b.npy"),
                    "--source", "neutral", "--target", "happiness", "--mode", mode, "--out", str(out),
                ]
            )
            runs[mode] = json.loads((out / "run.json").read_text())
            assert runs[mode]["config"]["direction"]["mode"] == mode
            assert json.loads((out / "fit_metrics.json").read_text())["mode"] == mode
        assert runs["standard"]["config_hash"] != runs["paper_faithful"]["config_hash"]

    def test_report_renders_direction_file(self, pipeline, tmp_path, capsys):
        values = np.zeros(8)
        values[3] = 1.0
        save_direction(tmp_path / "d.json", DirectionVector(values, "neutral", "anger"))
        run_ok(["report", "--artifact", str(tmp_path / "d.json")])
        out = capsys.readouterr().out
        assert "direction: neutral -> anger (dim 8)" in out


class TestSynthesizeCommand:
    def test_zero_strength_is_identity(self, pipeline, tmp_path, capsys):
        base = LatentVector(np.linspace(-1.0, 1.0, 64))
        save_latent(tmp_path / "base.pdl", base)
        values = np.zeros(64)
        values[0] = 1.0
        save_direction(tmp_path / "d.json", DirectionVector(values, "neutral", "happiness"))
        out = tmp_path / "syn"
        run_ok(
            [
                "synthesize",
                "--latent",
                str(tmp_path / "base.pdl"),
                "--direction",
                str(tmp_path / "d.json"),
                "--strength",
                "0",
                "--generator-spec",
                str(pipeline["bench"] / "generator.json"),
                "--out",
                str(out),
            ]
        )
        assert "synthesized neutral -> happiness" in capsys.readouterr().out
        metrics = json.loads((out / "synthesize_metrics.json").read_text())
        assert metrics["latent_shift_norm"] == 0.0
        edited = load_latent(out / "edited_latent.pdl")
        np.testing.assert_array_equal(edited.values, base.values)


class TestTrainingCommands:
    def test_face_checkpoint_kind_and_metrics(self, pipeline):
        kind, _, header = load_checkpoint(pipeline["face_ckpt"])
        assert kind == "face_model"
        assert header["config"]["conv_channels"] == [2]
        face_dir = pipeline["face_ckpt"].parent
        metrics = json.loads((face_dir / "face_metrics.json").read_text())
        assert metrics["parameter_count"] > 0
        assert 0.0 <= metrics["test_accuracy"] <= 1.0
        assert (face_dir / "face_report.txt").read_text().strip()

    def test_gait_checkpoint_kind_and_metrics(self, pipeline):
        kind, _, header = load_checkpoint(pipeline["gait_ckpt"])
        assert kind == "gait_classifier"
        assert header["config"]["window_length"] == 32
        metrics = json.loads((pipeline["gait_ckpt"].parent / "gait_metrics.json").read_text())
        assert metrics["n_subjects"] == 4
        assert metrics["n_windows"] == 12  # 4 subjects x 3 windows of 64 frames

    def test_fusion_records_frozen_extractor_checksums(self, pipeline):
        kind, _, header = load_checkpoint(pipeline["fusion_ckpt"])
        assert kind == "fusion"
        metrics = json.loads((pipeline["fusion_ckpt"].parent / "fusion_metrics.json").read_text())
        assert metrics["extractors_frozen"] is True
        assert metrics["gait_checksum"] == header["config"]["gait_checksum"]
        assert metrics["face_checksum"] == header["config"]["face_checksum"]

    def test_report_renders_checkpoint(self, pipeline, capsys):
        run_ok(["report", "--artifact", str(pipeline["fusion_ckpt"])])
        out = capsys.readouterr().out
        assert "checkpoint kind: fusion" in out
        assert "total parameters:" in out


class TestEvaluateCommand:
    def evaluate_argv(self, pipeline, out):
        return [
            "evaluate",
            "--config",
            str(pipeline["config"]),
            "--manifest",
            str(pipeline["manifest"]),
            "--gait",
            str(pipeline["gait_ckpt"]),
            "--face",
            str(pipeline["face_ckpt"]),
            "--fusion",
            str(pipeline["fusion_ckpt"]),
            "--out",
            str(out),
        ]

    def test_writes_metrics_without_timings(self, pipeline, tmp_path, capsys):
        run_ok(self.evaluate_argv(pipeline, tmp_path))
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["n_subjects"] == 4
        assert "timings_s" not in metrics
        assert "accuracy" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        run_ok(self.evaluate_argv(pipeline, tmp_path / "r1"))
        run_ok(self.evaluate_argv(pipeline, tmp_path / "r2"))
        assert (tmp_path / "r1" / "metrics.json").read_bytes() == (
            tmp_path / "r2" / "metrics.json"
        ).read_bytes()

    def test_report_pretty_prints_metrics(self, pipeline, tmp_path, capsys):
        run_ok(self.evaluate_argv(pipeline, tmp_path))
        capsys.readouterr()
        run_ok(["report", "--artifact", str(tmp_path / "metrics.json")])
        assert '"accuracy"' in capsys.readouterr().out


class TestCompareCommand:
    def test_three_rows_on_reused_face_model(self, pipeline, tmp_path, capsys):
        run_ok(
            [
                "compare",
                "--config",
                str(pipeline["config"]),
                "--benchmark",
                str(pipeline["bench"]),
                "--face",
                str(pipeline["face_ckpt"]),
                "--k",
                "2",
                "--fold-indices",
                "0",
                "--seed",
                "1",  # the default deal puts both PD subjects in one fold
                "--out",
                str(tmp_path),
            ]
        )
        comparison = json.loads((tmp_path / "comparison.json").read_text())
        assert set(comparison["rows"]) == {"gait_only", "face_only", "fusion"}
        assert comparison["fold_indices"] == [0]
        out = capsys.readouterr().out
        assert "gait_only" in out and "fusion" in out

    def test_trained_face_model_seed_and_timing_recorded(self, pipeline, tmp_path):
        run_ok(
            [
                "compare", "--config", str(pipeline["config"]), "--benchmark", str(pipeline["bench"]),
                "--k", "2", "--fold-indices", "0", "--seed", "1", "--out", str(tmp_path),
            ]
        )
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["config"]["face_train"]["seed"] == derive_seed(1, "train-face")
        assert run["config"]["evaluation"] == {"k": 2, "fold_indices": [0]}
        assert set(run["timings_s"]) == {"train_face", "total"}
        assert run["timings_s"]["train_face"] <= run["timings_s"]["total"]


class TestEnvironmentOverrides:
    def synthesize_argv(self, pipeline, tmp_path, with_out=None):
        base = LatentVector(np.zeros(64))
        save_latent(tmp_path / "base.pdl", base)
        values = np.zeros(64)
        values[0] = 1.0
        save_direction(tmp_path / "d.json", DirectionVector(values, "neutral", "sadness"))
        argv = [
            "synthesize",
            "--latent",
            str(tmp_path / "base.pdl"),
            "--direction",
            str(tmp_path / "d.json"),
            "--strength",
            "1",
            "--generator-spec",
            str(pipeline["bench"] / "generator.json"),
        ]
        if with_out is not None:
            argv += ["--out", str(with_out)]
        return argv

    def test_outdir_env_used_when_flag_absent(self, pipeline, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("PDFUSE_OUTDIR", str(env_dir))
        run_ok(self.synthesize_argv(pipeline, tmp_path))
        assert (env_dir / "synthesized.img").exists()

    def test_out_flag_beats_env(self, pipeline, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        flag_dir = tmp_path / "from_flag"
        monkeypatch.setenv("PDFUSE_OUTDIR", str(env_dir))
        run_ok(self.synthesize_argv(pipeline, tmp_path, with_out=flag_dir))
        assert (flag_dir / "synthesized.img").exists()
        assert not env_dir.exists()

    def test_seed_flag_recorded_in_run_record(self, pipeline, tmp_path):
        run_ok(self.synthesize_argv(pipeline, tmp_path, with_out=tmp_path / "o") + ["--seed", "7"])
        run = json.loads((tmp_path / "o" / "run.json").read_text())
        assert run["seed"] == 7


class TestErrorReporting:
    def test_missing_input_gives_json_record_and_exit_2(self, pipeline, tmp_path, capsys):
        code = main(
            [
                "invert",
                "--image",
                str(tmp_path / "missing.img"),
                "--generator-spec",
                str(pipeline["bench"] / "generator.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert set(record) == {"error", "message"}
        assert "missing.img" in record["message"]

    def test_report_rejects_unknown_artifact_type(self, tmp_path, capsys):
        stray = tmp_path / "notes.txt"
        stray.write_text("hello")
        assert main(["report", "--artifact", str(stray)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert "unrecognized artifact type" in record["message"]

    def test_report_rejects_missing_artifact(self, tmp_path, capsys):
        assert main(["report", "--artifact", str(tmp_path / "gone.ckpt")]) == 2
        record = json.loads(capsys.readouterr().err)
        assert "does not exist" in record["message"]

    def test_fusion_checkpoint_rejects_other_extractors(self, pipeline, tmp_path, capsys):
        """A gait checkpoint retrained under another seed no longer matches
        the checksum recorded in the fusion checkpoint."""
        run_ok(
            [
                "train-gait", "--config", str(pipeline["config"]), "--seed", "1",
                "--manifest", str(pipeline["manifest"]), "--out", str(tmp_path / "gait"),
            ]
        )
        capsys.readouterr()
        argv = TestEvaluateCommand().evaluate_argv(pipeline, tmp_path / "ev")
        argv[argv.index("--gait") + 1] = str(tmp_path / "gait" / "gait.ckpt")
        assert main(argv) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "FormatError"
        assert "trained on a gait extractor with checksum" in record["message"]
        assert not (tmp_path / "ev" / "metrics.json").exists()

    def test_checkpoint_kind_mismatch(self, pipeline, tmp_path, capsys):
        argv = [
            "evaluate",
            "--manifest",
            str(pipeline["manifest"]),
            "--gait",
            str(pipeline["face_ckpt"]),  # wrong kind on purpose
            "--face",
            str(pipeline["face_ckpt"]),
            "--fusion",
            str(pipeline["fusion_ckpt"]),
            "--out",
            str(tmp_path),
        ]
        assert main(argv) == 2
        record = json.loads(capsys.readouterr().err)
        assert "expected 'gait_classifier'" in record["message"]


def _edited_checkpoint(src, dst, edit):
    """Copy of checkpoint ``src`` whose config echo went through ``edit``."""
    kind, arrays, header = load_checkpoint(src)
    config = header["config"]
    edit(config)
    save_checkpoint(dst, kind, arrays, config)
    return dst


def _bad_generator(pipeline, tmp):
    doc = json.loads((pipeline["bench"] / "generator.json").read_text())
    doc["generator"]["extra"] = 1
    (tmp / "generator.json").write_text(json.dumps(doc))
    return ["invert", "--image", str(tmp / "x.img"), "--generator-spec", str(tmp / "generator.json"), "--out", str(tmp)]


def _binary_generator(pipeline, tmp):
    (tmp / "generator.json").write_bytes(b"\xff\xfe{}")
    return ["invert", "--image", str(tmp / "x.img"), "--generator-spec", str(tmp / "generator.json"), "--out", str(tmp)]


def _list_record_manifest(pipeline, tmp):
    (tmp / "m.jsonl").write_text('{"format_version": 1, "kind": "manifest"}\n["s0", "PD"]\n')
    return ["train-gait", "--manifest", str(tmp / "m.jsonl"), "--out", str(tmp)]


def _binary_keypoints_manifest(pipeline, tmp):
    manifest = load_manifest(pipeline["manifest"])
    (tmp / "bad.kpts").write_bytes(b"\xff\xfe\x00 not text")
    records = [dataclasses.replace(r, gait_path=str(manifest.resolve(r.gait_path))) for r in manifest.records]
    records[0] = dataclasses.replace(records[0], gait_path=str(tmp / "bad.kpts"))
    save_manifest(DatasetManifest(records=records), tmp / "m.jsonl")
    return ["train-gait", "--manifest", str(tmp / "m.jsonl"), "--out", str(tmp)]


def _bad_config(pipeline, tmp):
    (tmp / "c.yaml").write_text("benchmark:\n  n_per_class: x\n")
    return ["simulate", "--config", str(tmp / "c.yaml"), "--out", str(tmp)]


def _evaluate_with(pipeline, tmp, flag, ckpt):
    argv = TestEvaluateCommand().evaluate_argv(pipeline, tmp)
    argv[argv.index(flag) + 1] = str(ckpt)
    return argv


def _gait_branches_int(pipeline, tmp):
    ckpt = _edited_checkpoint(pipeline["gait_ckpt"], tmp / "g.ckpt", lambda c: c.update(branches=3))
    return _evaluate_with(pipeline, tmp, "--gait", ckpt)


def _gait_missing_key(pipeline, tmp):
    ckpt = _edited_checkpoint(pipeline["gait_ckpt"], tmp / "g.ckpt", lambda c: c.pop("stride"))
    return _evaluate_with(pipeline, tmp, "--gait", ckpt)


def _face_unknown_key(pipeline, tmp):
    ckpt = _edited_checkpoint(pipeline["face_ckpt"], tmp / "f.ckpt", lambda c: c.update(extra=1))
    return _evaluate_with(pipeline, tmp, "--face", ckpt)


def _checkpoint_without_config(pipeline, tmp):
    header = json.dumps({"format_version": 1, "kind": "gait_classifier"}).encode()
    ckpt = tmp / "g.ckpt"
    ckpt.write_bytes(b"PDCK" + struct.pack("<II", 1, len(header)) + header + struct.pack("<I", 0))
    return _evaluate_with(pipeline, tmp, "--gait", ckpt)


def _direction_unknown_diagnostic(pipeline, tmp):
    diagnostics = {
        "mode": "standard", "epochs_run": 3, "initial_loss": 0.7, "final_loss": 0.1,
        "converged": True, "degenerate": False, "separation": 1.0, "lr": 0.1,
    }
    doc = {
        "format_version": 1, "kind": "direction", "source": "a", "target": "b", "values": [1.0],
        "diagnostics": diagnostics,
    }
    (tmp / "d.json").write_text(json.dumps(doc))
    return ["report", "--artifact", str(tmp / "d.json")]


def _bad_fold_indices(pipeline, tmp):
    return ["compare", "--benchmark", str(pipeline["bench"]), "--fold-indices", "0,x", "--out", str(tmp)]


def _list_artifact(pipeline, tmp):
    (tmp / "x.json").write_text("[1, 2]")
    return ["report", "--artifact", str(tmp / "x.json")]


MALFORMED = [
    (_bad_generator, "FormatError", "generator: unknown key 'extra'"),
    (_binary_generator, "FormatError", "is not valid UTF-8 JSON"),
    (_list_record_manifest, "FormatError", "line 2: expected object, got list"),
    (_binary_keypoints_manifest, "FormatError", "cannot read keypoint file"),
    (_bad_config, "ConfigError", "section 'benchmark': n_per_class: expected int, got str"),
    (_gait_branches_int, "FormatError", "config: branches: expected list, got int"),
    (_gait_missing_key, "FormatError", "config: missing key 'stride'"),
    (_face_unknown_key, "FormatError", "config: unknown key 'extra'"),
    (_checkpoint_without_config, "FormatError", "header has no 'config' object"),
    (_direction_unknown_diagnostic, "FormatError", "diagnostics: unknown key 'lr'"),
    (_list_artifact, "FormatError", "x.json is not a JSON object"),
    (_bad_fold_indices, "ValueError", "invalid literal for int()"),
]


class TestMalformedInputs:
    """Each malformed artifact or config exits 2 with one JSON line naming the bad key."""

    @pytest.mark.parametrize(
        "make_argv, error, message", MALFORMED, ids=[case[0].__name__.strip("_") for case in MALFORMED]
    )
    def test_exit_2_with_one_json_line(self, pipeline, tmp_path, capsys, make_argv, error, message):
        assert main(make_argv(pipeline, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == error
        assert message in record["message"]
