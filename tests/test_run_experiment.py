"""The experiment script: strategies the instance cannot support are skipped."""
from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_experiment.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_experiment", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exhaustive_over_the_enumeration_budget_is_skipped(tmp_path, capsys):
    # the instance has 7 block-worthy edges: 21 budget-2 plans, over a budget of 5
    config = tmp_path / "small.cfg"
    config.write_text(
        "n_computers = 40\nentry_pool_size = 8\nentry_count = 4\nbudget = 2\n"
        "enumeration_budget = 5\nmc_runs = 200\nseeds = 0\n"
    )
    script = _load_script()
    argv = [
        "--config", str(config), "--strategies", "greedy,exhaustive",
        "--out", str(tmp_path / "runs"),
    ]
    assert script.main(argv) == 0
    captured = capsys.readouterr()
    table = captured.out.splitlines()
    assert table[0].startswith("strategy,distribution,seeds")
    assert [row.split(",")[0] for row in table[1:]] == ["greedy"]
    assert (
        "exhaustive seed 0: skipped, 21 plans exceed the enumeration budget of 5"
        in captured.err
    )
