"""Experiment configuration: one flat key-value namespace.

Defaults reproduce the reference setup (budget 5, population 100 over 10000
iterations, 100 alternating rounds, Monte Carlo over 100000 runs, seeds 0-9).
Configs load from a plain ``key = value`` file and accept command-line
overrides, so sweeps never require code changes.  A config checks itself
when it is built, ``dataclasses.replace`` included, so no invalid config
exists and no reader checks one again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

from .graph import DISTRIBUTION_KINDS
from .mdp import MEMO_LIMIT

# defaults that ``Adam`` and ``exhaustive_run`` also fall back on
LEARNING_RATE = 0.001
ENUMERATION_BUDGET = 1_000_000


class ConfigError(Exception):
    """A config file or override could not be parsed or fails validation."""


@dataclass(frozen=True)
class ExperimentConfig:
    # graph source: a saved graph file wins over synthetic generation
    graph_file: str = ""
    n_computers: int = 500
    distribution: str = "independent"
    entry_pool_size: int = 40
    entry_count: int = 20

    # defender search
    budget: int = 5
    mu: int = 100
    iterations: int = 10000
    rounds: int = 100

    # value net and training
    depth: int = 4
    width: int = 256
    batch_size: int = 16
    learning_rate: float = LEARNING_RATE
    epochs_per_round: int = 500
    explore_prob: float = 0.5

    # evaluation
    mc_runs: int = 100000
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
    out_dir: str = "runs"
    memo_limit: int = MEMO_LIMIT
    enumeration_budget: int = ENUMERATION_BUDGET

    def __post_init__(self) -> None:
        if not self.graph_file and self.n_computers < 1:
            raise ConfigError("n_computers must be positive")
        if self.distribution not in DISTRIBUTION_KINDS:
            raise ConfigError(
                f"unknown distribution {self.distribution!r}; "
                f"expected one of {sorted(DISTRIBUTION_KINDS)}"
            )
        if self.entry_count < 1 or self.entry_pool_size < self.entry_count:
            raise ConfigError("need 1 <= entry_count <= entry_pool_size")
        if self.budget < 0:
            raise ConfigError("budget must be nonnegative")
        if self.mu < 1 or self.iterations < 0 or self.rounds < 0:
            raise ConfigError("mu must be positive; iterations and rounds nonnegative")
        if self.depth < 1 or self.width < 1:
            raise ConfigError("depth and width must be positive")
        if self.batch_size < 1 or self.epochs_per_round < 0:
            raise ConfigError("bad training settings")
        if not 0.0 < self.learning_rate < math.inf:
            # nan fails both comparisons
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate!r}"
            )
        if not 0.0 <= self.explore_prob <= 1.0:
            raise ConfigError("explore_prob must lie in [0, 1]")
        if self.mc_runs < 1:
            raise ConfigError("mc_runs must be positive")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be nonnegative, got {list(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            # runs are keyed on the seed: a repeat would overwrite its run
            raise ConfigError(f"seeds must be distinct, got {list(self.seeds)}")
        if self.memo_limit < 1 or self.enumeration_budget < 1:
            raise ConfigError("limits must be positive")


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_value(key: str, text: str):
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    text = text.strip()
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "str":
            return text
        if kind == "tuple[int, ...]":
            return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r}") from exc
    raise ConfigError(f"unsupported field type for {key!r}")


def load_config(
    path: str | None = None, overrides: Sequence[str] = ()
) -> ExperimentConfig:
    """Build a config from defaults, an optional file, then overrides.

    A file sets each key at most once; a later override wins over the file
    and over an earlier override.
    """
    settings = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        set_at: dict[str, int] = {}
        for at, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{at}: expected key = value, got {raw!r}")
            key = key.strip()
            if key in set_at:
                raise ConfigError(
                    f"{path}:{at}: {key} is already set on line {set_at[key]}"
                )
            set_at[key] = at
            settings[key] = _parse_value(key, value)
    for pair in overrides:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        settings[key.strip()] = _parse_value(key.strip(), value)
    return ExperimentConfig(**settings)

