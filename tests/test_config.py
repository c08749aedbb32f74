import pytest

from tasklens.cli import main
from tasklens.config import MAX_RETENTION_HORIZON, BadConfig, Config, load_config
from tasklens.taskparse import DEFAULT_DIRECTIVE_KEYS


class TestDefaults:
    def test_no_path(self):
        config = load_config(None)
        assert config == Config()
        assert config.minor_major_threshold == 0.5
        assert config.rename_match_floor == 0.3
        assert config.retention_horizon == 30
        assert config.dedup_window_seconds == 10.0
        assert config.directive_keys == DEFAULT_DIRECTIVE_KEYS

    def test_missing_file_means_defaults(self, tmp_path):
        assert load_config(tmp_path / "nope.yaml") == Config()

    def test_empty_file_means_defaults(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("")
        assert load_config(path) == Config()


class TestLoading:
    def test_partial_override(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("minor_major_threshold: 0.5\nretention_horizon: 14\n")
        config = load_config(path)
        assert config.minor_major_threshold == 0.5  # explicit default stays default
        assert config.retention_horizon == 14
        assert config.rename_match_floor == 0.3

    def test_similar_modules(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("similar_modules:\n  - [yum, dnf, package]\n  - [copy, template]\n")
        config = load_config(path)
        assert frozenset({"yum", "dnf", "package"}) in config.similar_modules
        assert len(config.similar_modules) == 2

    def test_directive_keys_override(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("directive_keys: [name, block, register]\n")
        assert load_config(path).directive_keys == ("name", "block", "register")


class TestValidation:
    @pytest.mark.parametrize(
        "body",
        [
            "minor_major_threshold: 1.5\n",
            "minor_major_threshold: abc\n",
            "minor_major_threshold: 0\n",
            "retention_horizon: 0\n",
            "dedup_window_seconds: -1\n",
            "rename_match_floor: 2\n",
            "unknown_knob: 3\n",
            "similar_modules: notalist\n",
            "similar_modules: [[yum, 3]]\n",
            "directive_keys: [1, 2]\n",
            "retention_horizon: 1.5\n",
            "- a list\n",
            # values PyYAML's constructor cannot build, and too deep to build
            "retention_horizon: !!int \n",
            "retention_horizon: !!float \n",
            "retention_horizon: !!int +\n",
            "retention_horizon: !!int _\n",
            "retention_horizon: !!bool maybe\n",
            "retention_horizon: !!timestamp \n",
            "directive_keys: " + "[" * 3000 + "]" * 3000 + "\n",
            "directive_keys: " + "[" * 65 + "]" * 65 + "\n",
            # keys that are not strings
            "1: x\nfoo: y\n",
            "null: x\n",
            "? [a]\n: x\n",
            # a horizon past the cap
            "retention_horizon: 36501\n",
            "retention_horizon: 100000000000\n",
            "retention_horizon: 1.0e+300\n",
        ],
    )
    def test_bad_configs(self, tmp_path, body):
        path = tmp_path / "cfg.yaml"
        path.write_text(body)
        with pytest.raises(BadConfig):
            load_config(path)

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(b"retention_horizon: 3\xff\n")
        with pytest.raises(BadConfig):
            load_config(path)

    def test_horizon_cap_is_inclusive(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"retention_horizon: {MAX_RETENTION_HORIZON}\n")
        assert load_config(path).retention_horizon == MAX_RETENTION_HORIZON

    def test_aliases_below_the_cap_are_built(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("directive_keys: &a [yum, dnf]\nsimilar_modules: [*a, *a]\n")
        config = load_config(path)
        assert config.directive_keys == ("yum", "dnf")
        assert config.similar_modules == (frozenset({"yum", "dnf"}),) * 2

    def test_constructor_validates_too(self):
        with pytest.raises(BadConfig):
            Config(minor_major_threshold=1.0)
        with pytest.raises(BadConfig):
            Config(retention_horizon=0)
        with pytest.raises(BadConfig):
            Config(retention_horizon=MAX_RETENTION_HORIZON + 1)
        with pytest.raises(BadConfig):
            Config()._replace(rename_match_floor=1.5)

    @pytest.mark.parametrize(
        "key", ["dedup_window_seconds", "minor_major_threshold", "rename_match_floor", "retention_horizon"]
    )
    @pytest.mark.parametrize("value", [".inf", "-.inf", ".nan", "1.0e+400", "1" + "0" * 400])
    def test_non_finite_numbers_rejected(self, tmp_path, key, value):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"{key}: {value}\n")
        with pytest.raises(BadConfig, match=key):
            load_config(path)

    @pytest.mark.parametrize("body, key", [
        (b"dedup_window_seconds: .nan\n", "dedup_window_seconds"),
        (b"retention_horizon: 3\xff\n", "<file>"),  # not UTF-8
    ])
    def test_bad_config_is_exit_2(self, tmp_path, capsys, body, key):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(body)
        log = tmp_path / "log.jsonl"
        log.write_text("")
        assert main(["analyze", "--events", str(log), "--config", str(path)]) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
