"""Every file the program reads, mutated: the reader succeeds or raises its
typed error.

A tiny search-and-train run writes a valid ``record.json``, ``graph.txt``,
``population.txt`` and ``net.ckpt``; a config file is written by hand.  Each
example truncates one of them, overwrites a byte, flips a bit, or (for
``record.json``) swaps one field for a value of another JSON type, then
feeds it to the command that reads it: ``report`` for the record,
``kernelize`` for the graph and the config, ``simulate --checkpoint`` for
the net.  No command reads a population file, so ``load_population`` is
called directly.  A command must exit 0, or exit with its error's
documented code (2 for ``ConfigError``, 1 for the rest) and one JSON line
on stderr naming an accepted error.  A config that still parses may
describe an instance no graph fits, so the config also accepts the
errors of building that instance.
"""
from __future__ import annotations

import io
import json
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from adgame.cli import main
from adgame.config import ExperimentConfig
from adgame.defense import PopulationFormatError, load_population
from adgame.pipeline import run_dir_for, run_nndp_edo

CONFIG_TEXT = (
    "n_computers = 16\n"
    "entry_pool_size = 4\n"
    "entry_count = 2\n"
    "budget = 2\n"
    "learning_rate = 0.01\n"
    "seeds = 1\n"
)

INSTANCE_ERRORS = {
    "GraphValidationError": 1, "EmptyGameError": 1, "KernelizationError": 1,
}
# per file: the command reading it and the errors it may end with
READERS = {
    "record.json": (["report", "{dir}"], {"PipelineError": 1}),
    "graph.txt": (
        ["kernelize", "--set", "graph_file={path}"],
        {"GraphFormatError": 1, "PipelineError": 1, **INSTANCE_ERRORS},
    ),
    "run.cfg": (
        ["kernelize", "--config", "{path}"], {"ConfigError": 2, **INSTANCE_ERRORS}
    ),
    "net.ckpt": (
        ["simulate", "--set", "graph_file={graph}", "--set", "mc_runs=20",
         "--checkpoint", "{path}"],
        {"CheckpointFormatError": 1},
    ),
}

JSON_VALUES = [None, True, 0, -1, 2.5, "x", [], ["a"], [1], {}, {"a": 1}]


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> dict:
    """The valid bytes of each file, and a scratch directory."""
    root = tmp_path_factory.mktemp("valid")
    config = ExperimentConfig(
        n_computers=16, entry_pool_size=4, entry_count=2, budget=2, mu=6,
        iterations=10, rounds=1, depth=1, width=8, batch_size=8,
        epochs_per_round=2, mc_runs=50, seeds=(1,), out_dir=str(root),
    )
    run_nndp_edo(config, 1)
    run_dir = run_dir_for(config, "nndp-edo", 1)
    blobs = {}
    for name in ("record.json", "graph.txt", "population.txt", "net.ckpt"):
        with open(os.path.join(run_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    blobs["run.cfg"] = CONFIG_TEXT.encode("ascii")
    work = root / "work"
    work.mkdir()
    return {"blobs": blobs, "work": work, "graph": os.path.join(run_dir, "graph.txt")}


def _mutate(blob: bytes, kind: str, data) -> bytes:
    # half the cuts and edits land in the first 64 bytes, where the header is
    head = st.integers(0, min(len(blob), 64) - 1)
    at = data.draw(head | st.integers(0, len(blob) - 1))
    if kind == "truncate":
        return blob[:at]
    if kind == "overwrite":
        byte = data.draw(st.integers(0, 255))
    else:
        byte = blob[at] ^ 1 << data.draw(st.integers(0, 7))
    return blob[:at] + bytes([byte]) + blob[at + 1 :]


def _swap_field(blob: bytes, data) -> bytes:
    raw = json.loads(blob)
    paths = [(k,) for k in raw]
    paths += [(outer, k) for outer in ("config", "simulation") for k in raw[outer]]
    path = data.draw(st.sampled_from(paths))
    inner = raw if len(path) == 1 else raw[path[0]]
    others = [v for v in JSON_VALUES if type(v) is not type(inner[path[-1]])]
    inner[path[-1]] = data.draw(st.sampled_from(others))
    return json.dumps(raw).encode("utf-8")


def _run(argv: list[str]) -> tuple[int, str]:
    """The exit code and stderr of ``adgame argv``."""
    out, err = io.StringIO(), io.StringIO()
    # as a user runs it: a warning (a shrunk entry pool) is not an error
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("default")
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize(
    "name", ["record.json", "graph.txt", "run.cfg", "population.txt", "net.ckpt"]
)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_mutated_input_is_read_or_refused_with_its_readers_error(valid, name, data):
    blob = valid["blobs"][name]
    kinds = ["truncate", "overwrite", "flip"] + ["swap"] * (name == "record.json")
    kind = data.draw(st.sampled_from(kinds))
    mutated = _swap_field(blob, data) if kind == "swap" else _mutate(blob, kind, data)
    work = valid["work"]
    path = work / name
    path.write_bytes(mutated)
    if name == "population.txt":
        try:
            load_population(str(path))
        except PopulationFormatError:
            pass
        return
    command, accepted = READERS[name]
    argv = [
        arg.format(dir=work, path=path, graph=valid["graph"]) for arg in command
    ]
    code, err = _run(argv + ["--out", str(work / "out")] * (name != "record.json"))
    if code == 0:
        return
    lines = err.splitlines()
    assert len(lines) == 1, err
    error = json.loads(lines[0])
    assert accepted.get(error["error"]) == code, error
