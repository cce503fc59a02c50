import pytest

from momentgraph.config import RunConfig, load_config, synthetic_config
from momentgraph.errors import ConfigError


class TestRunConfig:
    def test_full_scale_defaults(self):
        cfg = RunConfig()
        assert cfg.hidden == 256
        assert cfg.lr == 1e-4
        assert cfg.weight_decay == 1e-3
        assert cfg.iterations == 3
        assert cfg.batch_size == 6

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            RunConfig(latent=0)
        with pytest.raises(ConfigError):
            RunConfig(iterations=-1)
        with pytest.raises(ConfigError):
            RunConfig(lr=0.0)
        with pytest.raises(ConfigError):
            RunConfig(variant="bogus")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("eval_every", 0, "eval_every must be >= 1"),
            ("top_n", 0, "top_n must be >= 1"),
            ("epochs", -1, "epochs must be >= 0"),
            ("seed", -1, "seed must be >= 0"),
            ("smoothing", "foo", "smoothing 'foo' is not one of onehot, gaussian"),
            ("sigma_pos", 0.0, "sigma_pos must be positive"),
            ("sigma_pos", -1.0, "sigma_pos must be positive"),
            ("sigma_pos", float("nan"), "sigma_pos must be positive"),
            ("sigma_pos", float("inf"), "sigma_pos must be positive and finite"),
            ("lr", float("inf"), "lr must be positive and finite"),
            ("lr", float("nan"), "lr must be positive and finite"),
            ("dropout", 1.0, r"dropout must be in \[0, 1\)"),
            ("dropout", 1.5, r"dropout must be in \[0, 1\)"),
            ("dropout", -0.1, r"dropout must be in \[0, 1\)"),
            ("beta1", 1.0, r"beta1 must be in \[0, 1\)"),
            ("beta1", -0.1, r"beta1 must be in \[0, 1\)"),
            ("beta2", 1.5, r"beta2 must be in \[0, 1\)"),
            ("beta2", 1.0, r"beta2 must be in \[0, 1\)"),
            ("weight_decay", -1.0, "weight_decay must be >= 0"),
            ("weight_decay", float("nan"), "weight_decay must be >= 0"),
            ("weight_decay", float("inf"), "weight_decay must be >= 0 and finite"),
            ("target_miou", float("nan"), r"target_miou must be in \[0, 100\] or none"),
            ("target_miou", float("inf"), r"target_miou must be in \[0, 100\] or none"),
            ("target_miou", -1.0, r"target_miou must be in \[0, 100\] or none"),
            ("target_miou", 100.5, r"target_miou must be in \[0, 100\] or none"),
        ],
    )
    def test_value_no_run_can_use_rejected(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig(**{field: value})

    def test_edge_values_that_runs_use_accepted(self):
        cfg = RunConfig(
            epochs=0, eval_every=1, top_n=1, dropout=0.0, smoothing="gaussian", sigma_pos=1e-3,
            beta1=0.0, beta2=0.0, weight_decay=0.0, target_miou=0.0,
        )
        assert cfg.epochs == 0
        assert RunConfig(target_miou=100.0).target_miou == 100.0


class TestConfigFile:
    def test_file_values_and_overrides(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[model]\nlatent = 32\nhidden = 16\n"
            "[graph]\nvariant = single_query\niterations = 2\n"
            "[optimizer]\nlr = 0.001\n"
            "[training]\nepochs = 7\nswap_degenerate = true\n"
            "[paths]\ndata_dir = /tmp/d\n"
        )
        cfg = load_config(str(path), overrides={"epochs": 3, "seed": None})
        assert cfg.latent == 32 and cfg.hidden == 16
        assert cfg.variant == "single_query" and cfg.iterations == 2
        assert cfg.lr == 0.001
        assert cfg.epochs == 3  # flag override wins
        assert cfg.swap_degenerate is True
        assert cfg.data_dir == "/tmp/d"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[model]\nwidth = 3\n")
        with pytest.raises(ConfigError, match="width"):
            load_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        # a misspelt section would otherwise leave its values at their defaults
        path = tmp_path / "run.ini"
        path.write_text("[optimiser]\nlr = 0.5\n")
        with pytest.raises(ConfigError, match=r"unknown section \[optimiser\]"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "section, key, raw",
        [("graph", "iterations", "x"), ("model", "latent", "1.5"), ("optimizer", "lr", "fast"), ("training", "target_miou", "high"),
         ("training", "swap_degenerate", "ture"), ("training", "swap_degenerate", "")],
    )
    def test_value_of_the_wrong_type_names_section_key_and_value(self, tmp_path, section, key, raw):
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} = '{raw}'"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "text",
        [b"d_w = 5\n", b"[model]\nd_w\n", b"[model]\nd_w = 5\nd_w = 6\n", b"[model]\nd_w = 5\n[model]\n", b"[paths]\nreport = r\xe9port.json\n"],
        ids=["no-section", "no-equals", "repeated-key", "repeated-section", "not-utf8"],
    )
    def test_malformed_file_is_config_error_naming_the_file(self, tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match=f"malformed config file '{path}'"):
            load_config(str(path))

    def test_values_are_literal(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[paths]\nreport = run%1.json\ncheckpoint = %(data_dir)s.ckpt\n", encoding="utf-8")
        cfg = load_config(str(path))
        assert (cfg.report, cfg.checkpoint) == ("run%1.json", "%(data_dir)s.ckpt")

    def test_file_is_read_as_utf8(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_bytes("[paths]\nreport = r\u00e9port.json\n".encode("utf-8"))
        assert load_config(str(path)).report == "r\u00e9port.json"

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/run.ini")

    @pytest.mark.parametrize(
        "raw, value", [("1", True), ("yes", True), ("True", True), ("on", True), ("0", False), ("no", False), ("off", False)]
    )
    def test_swap_degenerate_boolean_spellings(self, tmp_path, raw, value):
        path = tmp_path / "run.ini"
        path.write_text(f"[training]\nswap_degenerate = {raw}\n")
        assert load_config(str(path)).swap_degenerate is value

    def test_target_miou_nan_in_file_or_flag_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[training]\ntarget_miou = nan\n")
        with pytest.raises(ConfigError, match="target_miou must be in"):
            load_config(str(path))
        with pytest.raises(ConfigError, match="target_miou must be in"):
            load_config(overrides={"target_miou": float("nan")})

    def test_target_miou_none_spelling(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[training]\ntarget_miou = none\n")
        assert load_config(str(path)).target_miou is None


class TestSyntheticPreset:
    def test_desk_scale(self):
        cfg = synthetic_config()
        assert cfg.d_v == 16 and cfg.latent == 32
        assert cfg.epochs == 200

    def test_overrides(self):
        cfg = synthetic_config(variant="no_graph", epochs=5)
        assert cfg.variant == "no_graph" and cfg.epochs == 5
