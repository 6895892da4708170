"""Config files: parsing, overrides, validation."""
from __future__ import annotations

from dataclasses import replace

import pytest

from adgame.config import (
    ConfigError,
    ExperimentConfig,
    load_config,
)


def test_defaults_validate():
    ExperimentConfig()


def test_load_file_with_comments_and_blanks(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# campaign setup\n"
        "n_computers = 80   # small\n"
        "\n"
        "distribution = positive\n"
        "seeds = 3,4,5\n"
        "learning_rate = 0.01\n"
    )
    config = load_config(str(path))
    assert config.n_computers == 80
    assert config.distribution == "positive"
    assert config.seeds == (3, 4, 5)
    assert config.learning_rate == 0.01
    assert config.mu == 100


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("budget = 5\n")
    config = load_config(str(path), ["budget=3", "out_dir=elsewhere"])
    assert config.budget == 3
    assert config.out_dir == "elsewhere"
    # a later override wins over an earlier one
    assert load_config(str(path), ["budget=3", "budget=4"]).budget == 4


def test_a_file_that_sets_a_key_twice_is_refused(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("budget = 5\n# the same key again\nbudget = 3\n")
    with pytest.raises(ConfigError, match="exp.cfg:3: budget is already set on line 1"):
        load_config(str(path))


def test_parse_overrides_rejects_bad_shapes():
    with pytest.raises(ConfigError, match="'budget' is not of the form key=value"):
        load_config(overrides=["budget"])
    with pytest.raises(ConfigError, match="unknown config key 'no_such_field'"):
        load_config(overrides=["no_such_field=1"])
    with pytest.raises(ConfigError, match="bad value for budget: 'three'"):
        load_config(overrides=["budget=three"])


def test_validate_rejects_bad_values():
    for bad in (
        {"n_computers": 0},
        {"budget": -1},
        {"mu": 0},
        {"iterations": -5},
        {"explore_prob": 1.5},
        {"learning_rate": 0.0},
        {"distribution": "bimodal"},
        {"seeds": ()},
        {"entry_count": 0},
        {"entry_pool_size": 2, "entry_count": 5},
        {"batch_size": 0},
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)


def test_replace_checks_the_new_config():
    # the CLI's --seed and --out, and callers that set out_dir, build their
    # config this way
    with pytest.raises(ConfigError, match="entry_count"):
        replace(ExperimentConfig(), entry_count=0)


@pytest.mark.parametrize(
    "seeds,message",
    [("-1", "seeds must be nonnegative"), ("1,1", "seeds must be distinct")],
    ids=["negative", "repeated"],
)
def test_load_config_refuses_a_negative_or_repeated_seed(tmp_path, seeds, message):
    path = tmp_path / "exp.cfg"
    path.write_text(f"seeds = {seeds}\n")
    with pytest.raises(ConfigError, match=message):
        load_config(str(path))
    with pytest.raises(ConfigError, match=message):
        load_config(overrides=[f"seeds={seeds}"])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_config_refuses_a_non_finite_learning_rate(tmp_path, value):
    path = tmp_path / "exp.cfg"
    path.write_text(f"learning_rate = {value}\n")
    with pytest.raises(ConfigError, match="learning_rate must be positive and finite"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="learning_rate must be positive and finite"):
        load_config(overrides=[f"learning_rate={value}"])


def test_missing_file_raises():
    with pytest.raises(ConfigError):
        load_config("/does/not/exist.cfg")
