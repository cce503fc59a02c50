import dataclasses
import json
import shutil
import struct

import numpy as np
import pytest

from momentgraph import cli
from momentgraph.checkpoint import load_params, save_params
from momentgraph.cli import main
from momentgraph.dataio import read_detections, read_features, write_detections

from reference_impls import dori_record, feat_blob, per_gate_checkpoint_params


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthetic dataset plus a trained checkpoint."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    ckpt = root / "model.ckpt"
    log = root / "log.json"
    assert main([
        "synth", "--out", str(data), "--samples", "14", "--t-min", "8", "--t-max", "10",
        "--seed", "3",
    ]) == 0
    assert main([
        "train", "--data", str(data), "--epochs", "2", "--seed", "0",
        "--checkpoint", str(ckpt), "--report", str(log), "--quiet",
    ]) == 0
    assert main([
        "train", "--data", str(data), "--epochs", "2", "--seed", "0", "--variant", "no_human_node",
        "--checkpoint", str(root / "nh.ckpt"), "--report", str(root / "nh_log.json"), "--quiet",
    ]) == 0
    return root


def write_model_config(path, **dims):
    """An INI config whose [model] section matches the synth data except for dims."""
    values = {"d_w": 16, "d_v": 16, "d_o": 16, "latent": 32, "hidden": 16, **dims}
    path.write_text("[model]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(path)


class TestSynth:
    def test_layout(self, workspace):
        data = workspace / "data"
        for name in ("annotations.jsonl", "category_map.json", "manifest.json"):
            assert (data / name).exists()
        assert list((data / "features").iterdir())

    def test_fewer_than_two_videos_is_data_error(self, tmp_path, capsys):
        # two samples share one video, which would leave the train split empty
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), "--samples", "2"]) == 2
        err = capsys.readouterr().err
        assert "data error: a dataset needs at least two videos, one for each split; the samples have 1" in err
        assert not out.exists()


class TestTrain:
    def test_artifacts(self, workspace):
        # one file: the checkpoint stores the model fields and the vocabulary
        names = {p.name for p in workspace.iterdir()}
        assert {"model.ckpt", "nh.ckpt"} <= names
        assert not [name for name in names if "vocab" in name]
        meta, params = load_params(str(workspace / "model.ckpt"))
        assert meta["model"] == {
            "d_w": 16, "d_v": 16, "d_o": 16, "latent": 32, "hidden": 16,
            "variant": "full", "iterations": 3, "top_n": 15,
        }
        assert meta["vocab"][:2] == ["<unk>", "<pad>"] and len(meta["vocab"]) > 2
        assert params["text.embedding"].shape == (len(meta["vocab"]), 16)
        log = json.loads((workspace / "log.json").read_text())
        assert len(log["epochs"]) == 2

    def test_zero_epochs_log_is_json_with_no_best_epoch(self, workspace, tmp_path, capsys):
        log_path = tmp_path / "log.json"
        code = main([
            "train", "--data", str(workspace / "data"), "--epochs", "0", "--quiet",
            "--checkpoint", str(tmp_path / "m.ckpt"), "--report", str(log_path),
        ])
        assert code == 0
        assert "no validation ran" in capsys.readouterr().out

        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        log = json.loads(log_path.read_text(), parse_constant=reject)
        assert log["epochs"] == [] and log["best_epoch"] is None and log["best_val_miou"] is None


class TestEval:
    def test_eval_runs_and_writes_report(self, workspace, capsys):
        report = workspace / "eval.json"
        dump = workspace / "preds.jsonl"
        code = main([
            "eval", "--data", str(workspace / "data"), "--checkpoint", str(workspace / "model.ckpt"),
            "--report", str(report), "--dump-predictions", str(dump),
        ])
        assert code == 0
        assert "mIoU" in capsys.readouterr().out
        data = json.loads(report.read_text())
        assert set(data) == {"recall_at", "miou", "n_samples", "n_degenerate"}
        rows = [json.loads(line) for line in dump.read_text().splitlines()]
        assert len(rows) == data["n_samples"]

    def test_train_split_matches_logged_miou(self, workspace, capsys):
        # best-checkpoint restore means the saved model reproduces the
        # train mIoU logged at the best validation epoch
        code = main([
            "eval", "--data", str(workspace / "data"),
            "--checkpoint", str(workspace / "model.ckpt"), "--split", "train",
        ])
        assert code == 0
        out = capsys.readouterr().out
        log = json.loads((workspace / "log.json").read_text())
        best = next(e for e in log["epochs"] if e["epoch"] == log["best_epoch"])
        assert f"{best['train_miou']:6.2f}" in out

    def test_model_comes_from_the_checkpoint(self, workspace, capsys):
        # no --variant: eval must build the no_human_node model the checkpoint holds
        code = main([
            "eval", "--data", str(workspace / "data"),
            "--checkpoint", str(workspace / "nh.ckpt"), "--split", "train",
        ])
        assert code == 0
        out = capsys.readouterr().out
        log = json.loads((workspace / "nh_log.json").read_text())
        best = next(e for e in log["epochs"] if e["epoch"] == log["best_epoch"])
        assert f"{best['train_miou']:6.2f}" in out

    def test_config_that_restates_the_checkpoint_runs(self, workspace, tmp_path):
        config = write_model_config(tmp_path / "run.ini")
        with open(config, "a") as f:
            f.write("[graph]\nvariant = no_human_node\niterations = 3\n")
        code = main(["eval", "--config", config, "--data", str(workspace / "data"), "--checkpoint", str(workspace / "nh.ckpt")])
        assert code == 0

    def test_config_that_contradicts_the_checkpoint_is_usage_error(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[graph]\niterations = 1\n")
        code = main(["eval", "--config", str(config), "--data", str(workspace / "data"), "--checkpoint", str(workspace / "model.ckpt")])
        assert code == 1
        assert "iterations = 1 conflicts with the checkpoint's 3" in capsys.readouterr().err

    def test_version_one_checkpoint_is_data_error(self, workspace, tmp_path, capsys):
        # version 1 held the same records as version 2, without the header
        _, params = load_params(str(workspace / "model.ckpt"))
        old = tmp_path / "old.ckpt"
        records = [dori_record(name, a.shape, a.tobytes()) for name, a in sorted(params.items())]
        old.write_bytes(b"DORI" + struct.pack("<I", 1) + b"".join(records))
        code = main(["eval", "--data", str(workspace / "data"), "--checkpoint", str(old)])
        assert code == 2
        assert "unsupported format version 1" in capsys.readouterr().err

    def test_per_gate_gru_checkpoint_is_data_error(self, workspace, tmp_path, capsys):
        meta, params = load_params(str(workspace / "model.ckpt"))
        old = tmp_path / "old.ckpt"
        save_params(per_gate_checkpoint_params(params), str(old), meta)
        code = main(["eval", "--data", str(workspace / "data"), "--checkpoint", str(old)])
        assert code == 2
        assert "'text.gru_fwd.wz'" in capsys.readouterr().err.split("unexpected")[1]

    def test_checkpoint_with_a_softmax_bias_is_data_error(self, workspace, tmp_path, capsys):
        # checkpoints written before the biases that feed a softmax were deleted hold them
        meta, params = load_params(str(workspace / "model.ckpt"))
        old = tmp_path / "old.ckpt"
        save_params({**params, "temporal.b_start": np.zeros((1, 1))}, str(old), meta)
        code = main(["eval", "--data", str(workspace / "data"), "--checkpoint", str(old)])
        assert code == 2
        assert "missing [], unexpected ['temporal.b_start']" in capsys.readouterr().err

    def test_checkpoint_with_a_nan_parameter_is_data_error(self, workspace, tmp_path, capsys):
        meta, params = load_params(str(workspace / "model.ckpt"))
        params["temporal.w_start"][3, 0] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_params(params, str(bad), meta)
        code = main(["eval", "--data", str(workspace / "data"), "--checkpoint", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}: record 'temporal.w_start' holds nan at index (3, 0)" in err

    def test_missing_checkpoint_is_data_error(self, workspace):
        code = main([
            "eval", "--data", str(workspace / "data"), "--checkpoint", str(workspace / "nope.ckpt"),
        ])
        assert code == 2


class TestExitCodes:
    def test_usage_error(self):
        assert main(["synth"]) == 1  # --out is required

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--samples", "0"], "argument --samples: expected an integer of at least 1, got '0'"),
            (["--t-min", "5", "--t-max", "2"], "argument --t-max: 2 is below --t-min 5"),
            (["--t-min", "3"], "argument --t-min: expected an integer of at least 4, got '3'"),
            (["--t-max", "-1"], "argument --t-max: -1 is below --t-min 12"),
            (["--noise", "-1"], "argument --noise: expected a finite number of at least 0, got '-1'"),
            (["--noise", "nan"], "argument --noise: expected a finite number of at least 0, got 'nan'"),
            (["--noise", "inf"], "argument --noise: expected a finite number of at least 0, got 'inf'"),
            (["--signal", "-1"], "argument --signal: expected a finite number of at least 0, got '-1'"),
            (["--signal", "nan"], "argument --signal: expected a finite number of at least 0, got 'nan'"),
            (["--signal", "x"], "argument --signal: expected a finite number of at least 0, got 'x'"),
            (["--seed", "-1"], "argument --seed: expected an integer of at least 0, got '-1'"),
        ],
        ids=["samples", "t-min", "t-min-below-4", "t-max-below-the-default-t-min", "noise-negative", "noise-nan",
             "noise-inf", "signal-negative", "signal-nan", "signal-not-a-number", "seed-negative"],
    )
    def test_synth_flag_out_of_range_is_usage_error(self, tmp_path, capsys, flags, message):
        assert main(["synth", "--out", str(tmp_path / "data")] + flags) == 1
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command", ["train", "ablate", "gradcheck"])
    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys, command):
        assert main([command, "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.endswith("error: argument --seed: expected an integer of at least 0, got '-1'\n")
        assert err.count("error:") == 1 and "Traceback" not in err

    def test_negative_seed_in_a_config_file_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[training]\nseed = -1\n")
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(config), "--data", str(tmp_path / "ghost"), "--checkpoint", str(ckpt)]) == 1
        assert capsys.readouterr().err == "config error: seed must be >= 0\n"
        assert not ckpt.exists()

    def test_unknown_variant(self):
        assert main(["train", "--variant", "bogus"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--seed", "77"],
            ["eval", "--epochs", "9"],
            ["eval", "--target-miou", "5"],
            ["eval", "--variant", "full"],
            ["eval", "--iterations", "3"],
            ["ablate", "--variant", "full"],
            ["ablate", "--checkpoint", "m.ckpt"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[1]}",
    )
    def test_flag_the_subcommand_never_reads_is_usage_error(self, tmp_path, capsys, argv):
        assert main(argv + ["--data", str(tmp_path / "ghost")]) == 1
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    def test_config_value_of_the_wrong_type_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[graph]\niterations = x\n")
        assert main(["train", "--config", str(config), "--data", str(tmp_path / "ghost"), "--epochs", "1"]) == 1
        err = capsys.readouterr().err
        assert "config error: [graph] iterations = 'x'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "section, line",
        [("training", "eval_every = 0"), ("graph", "top_n = 0"), ("loss", "smoothing = foo"),
         ("loss", "sigma_pos = -1"), ("optimizer", "dropout = 1.0"), ("training", "epochs = -1"),
         ("optimizer", "beta1 = 1.0"), ("training", "target_miou = nan"), ("loss", "sigma_pos = inf"),
         ("optimizer", "lr = inf")],
    )
    def test_config_value_no_run_can_use_is_usage_error(self, tmp_path, capsys, section, line):
        config = tmp_path / "run.ini"
        config.write_text(f"[{section}]\n{line}\n")
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(config), "--data", str(tmp_path / "ghost"), "--checkpoint", str(ckpt)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {line.split()[0]} ")
        assert not ckpt.exists()

    @pytest.mark.parametrize(
        "text",
        [b"d_w = 5\n", b"[model]\nd_w\n", b"[model]\nd_w = 5\nd_w = 6\n", b"[paths]\nreport = r\xe9port.json\n",
         b"[optimiser]\nlr = 0.5\n"],
        ids=["no-section", "no-equals", "repeated-key", "not-utf8", "unknown-section"],
    )
    def test_malformed_config_file_is_usage_error(self, tmp_path, capsys, text):
        config = tmp_path / "run.ini"
        config.write_bytes(text)
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(config), "--data", str(tmp_path / "ghost"), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: malformed config file '{config}'") and "Traceback" not in err
        assert not ckpt.exists()

    def test_percent_in_a_config_path_is_literal(self, workspace, tmp_path):
        config = write_model_config(tmp_path / "run.ini")
        report = tmp_path / "run%1.json"
        with open(config, "a") as f:
            f.write(f"[paths]\nreport = {report}\ncheckpoint = {tmp_path / 'm%%.ckpt'}\n")
        assert main(["train", "--config", config, "--data", str(workspace / "data"), "--epochs", "1", "--quiet"]) == 0
        assert json.loads(report.read_text())["epochs"]
        assert (tmp_path / "m%%.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_checkpoint_that_is_a_directory_is_data_error(self, workspace, tmp_path, capsys, command):
        argv = [command, "--data", str(workspace / "data"), "--checkpoint", str(tmp_path)]
        assert main(argv + (["--epochs", "1", "--quiet"] if command == "train" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "Is a directory" in err and str(tmp_path) in err

    def test_feature_file_that_is_a_directory_is_data_error(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        path = sorted((data / "features").iterdir())[0]
        path.unlink()
        path.mkdir()
        code = main(["train", "--data", str(data), "--epochs", "1", "--checkpoint", str(tmp_path / "m.ckpt"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(path) in err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_non_finite_feature_is_data_error(self, workspace, tmp_path, capsys, command):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        path = sorted((data / "features").iterdir())[0]
        af = read_features(str(path))
        af.features[-1, -1] = np.nan  # the last row's last value
        path.write_bytes(feat_blob(af.features, af.stride_seconds, af.duration_seconds, af.video_id))
        argv = [command, "--data", str(data), "--checkpoint", str(workspace / "model.ckpt")]
        if command == "train":
            argv = [command, "--data", str(data), "--epochs", "1", "--checkpoint", str(tmp_path / "m.ckpt"), "--quiet"]
        assert main(argv) == 2
        assert f"data error: {path}: feature row " in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("name", ["annotations.jsonl", "detections"])
    def test_undecodable_byte_in_a_jsonl_file_is_data_error(self, workspace, tmp_path, capsys, name):
        """A byte that is not UTF-8 in annotations.jsonl is named by its line;
        one in a detection file's JSON header is named by the file."""
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        if name == "detections":
            path = sorted((data / name).iterdir())[0]
            blob = bytearray(path.read_bytes())
            blob[17] = 0xFF  # inside the header's first key
            path.write_bytes(bytes(blob))
            where = f"{path}: truncated or corrupt detection header: 'utf-8' codec"
        else:
            path = data / name
            n_lines = len(path.read_bytes().splitlines())
            with open(path, "ab") as f:
                f.write(b"\xff")
            where = f"{path}:{n_lines + 1}: not UTF-8 text"
        code = main(["train", "--data", str(data), "--epochs", "1", "--checkpoint", str(tmp_path / "m.ckpt"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {where}") and "Traceback" not in err
        assert not (tmp_path / "m.ckpt").exists()

    @staticmethod
    def _edit_first_annotation(workspace, tmp_path, command, **changes):
        """Run command on a copy of the workspace data whose first annotation
        has the given changes; returns the exit code and the edited video id."""
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        path = data / "annotations.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[0].update(changes)
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        argv = [command, "--data", str(data), "--checkpoint", str(workspace / "model.ckpt")]
        if command == "train":
            argv = [command, "--data", str(data), "--epochs", "1", "--checkpoint", str(tmp_path / "m.ckpt"), "--quiet"]
        return main(argv), records[0]["video_id"]

    def test_query_without_words_is_data_error(self, workspace, tmp_path, capsys):
        code, vid = self._edit_first_annotation(workspace, tmp_path, "train", query="?!")
        assert code == 2
        assert f"data error: video '{vid}': query '?!' has no words" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_annotation_duration_that_disagrees_with_the_features_is_data_error(self, workspace, tmp_path, capsys, command):
        code, vid = self._edit_first_annotation(workspace, tmp_path, command, duration_s=-5.0)
        assert code == 2
        assert f"data error: video '{vid}': annotation duration_s -5.0 differs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_annotation_span_outside_the_video_is_data_error(self, workspace, tmp_path, capsys, command):
        code, vid = self._edit_first_annotation(workspace, tmp_path, command, t_start_s=-50.0, t_end_s=999.0)
        assert code == 2
        assert f"data error: video '{vid}': annotation span [-50.0, 999.0] s lies outside" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("key, value", [("query", None), ("t_start_s", "0.5")])
    def test_annotation_field_of_the_wrong_type_is_data_error(self, workspace, tmp_path, capsys, command, key, value):
        code, _ = self._edit_first_annotation(workspace, tmp_path, command, **{key: value})
        assert code == 2
        assert f"annotations.jsonl:1: {key} {value!r} is not a JSON" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_missing_data_dir(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "ghost"), "--epochs", "1"]) == 2

    @pytest.mark.parametrize("key", ["d_v", "d_o"])
    def test_feature_width_mismatch_is_data_error(self, workspace, tmp_path, capsys, key):
        config = write_model_config(tmp_path / "run.ini", **{key: 8})
        code = main([
            "train", "--config", config, "--data", str(workspace / "data"), "--epochs", "1",
            "--checkpoint", str(tmp_path / "m.ckpt"), "--quiet",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "video '" in err
        assert f"are 16 wide, config {key} is 8" in err

    def test_files_of_another_video_are_data_error(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        first, second = (path.stem for path in sorted((data / "features").iterdir())[:2])
        for kind, suffix in (("features", "feat"), ("detections", "dets")):
            (data / kind / f"{second}.{suffix}").write_bytes((data / kind / f"{first}.{suffix}").read_bytes())
        code = main(["train", "--data", str(data), "--epochs", "1", "--checkpoint", str(tmp_path / "m.ckpt"), "--quiet"])
        assert code == 2
        assert f"{second}.feat: holds the features of video '{first}', not of '{second}'" in capsys.readouterr().err

    def test_one_short_detection_is_data_error(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        path = sorted((data / "detections").iterdir())[0]
        dets = read_detections(str(path), 10**6, path.stem)
        write_detections(path.stem, dataclasses.replace(dets, features=dets.features[:, :-1]), str(path))
        code = main(["train", "--data", str(data), "--epochs", "1", "--checkpoint", str(tmp_path / "m.ckpt"), "--quiet"])
        assert code == 2
        assert f"video '{path.stem}': detection features are 15 wide, config d_o is 16" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("label", ["person"]), ("rows", True)])
    def test_detection_of_the_wrong_type_is_data_error(self, workspace, tmp_path, capsys, key, value):
        """A detection file's header holds values of exact JSON types: a
        label is a string, rows an integer and not a boolean."""
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        path = sorted((data / "detections").iterdir())[0]
        blob = path.read_bytes()
        (n,) = struct.unpack_from("<Q", blob, 8)
        header = json.loads(blob[16 : 16 + n])
        if key == "label":
            header["labels"][0] = value
        else:
            header[key] = value
        encoded = json.dumps(header).encode()
        path.write_bytes(blob[:8] + struct.pack("<Q", len(encoded)) + encoded + blob[16 + n :])
        code = main(["train", "--data", str(data), "--epochs", "1", "--checkpoint", str(tmp_path / "m.ckpt"), "--quiet"])
        assert code == 2
        assert f'data error: {path}: header is not {{"video_id": string' in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_stale_jsonl_detection_file_is_data_error(self, workspace, tmp_path, capsys):
        """A dataset written before the .dets format still holds .jsonl
        detection files; training on it is an error naming the file."""
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        path = sorted((data / "detections").iterdir())[0]
        stale = path.with_suffix(".jsonl")
        path.unlink()
        stale.write_text('{"video_id": "%s", "frame_index": 0, "detections": []}\n' % path.stem)
        code = main(["train", "--data", str(data), "--epochs", "1", "--checkpoint", str(tmp_path / "m.ckpt"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {stale}: detections in the old JSON Lines format;") and ".dets" in err
        assert not (tmp_path / "m.ckpt").exists()

    @staticmethod
    def _train_with_file(workspace, tmp_path, name, edit):
        """Run train on a copy of the workspace data whose file name is
        replaced by edit(its parsed JSON); returns the exit code and the path."""
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        path = data / name
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        argv = ["train", "--data", str(data), "--epochs", "1", "--checkpoint", str(tmp_path / "m.ckpt"), "--quiet"]
        return main(argv), str(path)

    @pytest.mark.parametrize("split", ["train", "val"])
    @pytest.mark.parametrize("ids", ["vid0000", [0, 1], [["vid0000"]], None], ids=["string", "ints", "nested", "null"])
    def test_manifest_split_that_is_not_a_list_of_ids_is_data_error(self, workspace, tmp_path, capsys, split, ids):
        code, path = self._train_with_file(workspace, tmp_path, "manifest.json", lambda m: {**m, split: ids})
        assert code == 2
        assert f"data error: {path}: manifest '{split}' must be a list of video-id strings" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_manifest_that_is_not_an_object_is_data_error(self, workspace, tmp_path, capsys):
        code, path = self._train_with_file(workspace, tmp_path, "manifest.json", lambda m: m["train"])
        assert code == 2
        assert f"data error: {path}: manifest 'train' must be a list" in capsys.readouterr().err

    def test_video_in_both_splits_is_data_error(self, workspace, tmp_path, capsys):
        shared = []

        def leak(m):
            shared.append(m["train"][0])
            return {**m, "val": m["val"] + shared}

        code, path = self._train_with_file(workspace, tmp_path, "manifest.json", leak)
        assert code == 2
        assert f"data error: {path}: video '{shared[0]}' is in both the train and val splits" in capsys.readouterr().err

    def test_manifest_id_without_annotations_is_data_error(self, workspace, tmp_path, capsys):
        code, path = self._train_with_file(workspace, tmp_path, "manifest.json", lambda m: {**m, "val": m["val"] + ["vid9999"]})
        assert code == 2
        assert f"data error: {path}: val video 'vid9999' has no annotation" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_eval_on_an_empty_split_names_it(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        manifest = json.loads((data / "manifest.json").read_text())
        (data / "manifest.json").write_text(json.dumps({**manifest, "val": []}))
        code = main(["eval", "--data", str(data), "--checkpoint", str(workspace / "model.ckpt"), "--split", "val"])
        assert code == 2
        assert "data error: the val split has no samples" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_empty_split_is_data_error(self, workspace, tmp_path, capsys, split):
        code, _ = self._train_with_file(workspace, tmp_path, "manifest.json", lambda m: {**m, split: []})
        assert code == 2
        assert f"data error: the {split} split has no samples" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize(
        "value",
        [None, [], 0, "", False, [["person", "human"]]],
        ids=["null", "list", "zero", "string", "false", "pairs"],
    )
    def test_category_map_that_is_not_an_object_is_data_error(self, workspace, tmp_path, capsys, value):
        code, path = self._train_with_file(workspace, tmp_path, "category_map.json", lambda _: value)
        assert code == 2
        assert f"data error: {path}: category map must be a JSON object" in capsys.readouterr().err

    def test_unknown_category_names_the_category_map(self, workspace, tmp_path, capsys):
        code, path = self._train_with_file(workspace, tmp_path, "category_map.json", lambda _: {"person": "robot"})
        assert code == 2
        err = capsys.readouterr().err
        assert f"data error: {path}: category map: label 'person' has unknown category 'robot'" in err


class TestGradcheck:
    def test_passes_with_exit_zero(self, capsys):
        assert main(["gradcheck", "--variant", "full", "--entries", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 failing" in out

    @pytest.mark.parametrize("entries", ["0", "-1", "x"])
    def test_entries_below_one_is_usage_error(self, capsys, entries):
        assert main(["gradcheck", "--entries", entries]) == 1
        captured = capsys.readouterr()
        assert f"error: argument --entries: expected an integer of at least 1, got '{entries}'" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


class TestAblate:
    def test_csv_table(self, workspace, capsys):
        report = workspace / "ablate.csv"
        code = main([
            "ablate", "--data", str(workspace / "data"), "--epochs", "1", "--seed", "0",
            "--report", str(report),
        ])
        assert code == 0
        lines = report.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "name"
        assert "mIoU" in header
        names = [line.split(",")[0] for line in lines[1:]]
        assert names[:5] == ["N=0", "N=1", "N=2", "N=3", "N=4"]
        for variant in ("no_graph", "no_node_types", "no_human_node", "no_object_node", "single_query"):
            assert variant in names
        # every data row parses as floats after the name column
        for line in lines[1:]:
            for cell in line.split(",")[1:]:
                float(cell)

    def test_config_dims_reach_every_run(self, workspace, tmp_path, monkeypatch):
        seen = []
        real_train = cli.train

        def recording_train(config, *args, **kwargs):
            seen.append(config)
            return real_train(dataclasses.replace(config, epochs=0), *args, **kwargs)

        monkeypatch.setattr(cli, "train", recording_train)
        config = write_model_config(tmp_path / "ablate.ini", latent=8, hidden=4)
        assert main(["ablate", "--config", config, "--data", str(workspace / "data"), "--epochs", "1"]) == 0
        assert len(seen) == 10
        for cfg in seen:
            assert (cfg.d_w, cfg.d_v, cfg.d_o, cfg.latent, cfg.hidden) == (16, 16, 16, 8, 4)
            assert cfg.epochs == 1
