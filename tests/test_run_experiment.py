"""The scripts: the experiment skips strategies the instance cannot support,
and the digests tell byte-identical runs from changed ones."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name: str = "run_experiment"):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(tmp_path, strategies: str) -> int:
    # the instance has 7 block-worthy edges: 21 budget-2 plans, over a budget of 5
    config = tmp_path / "small.cfg"
    config.write_text(
        "n_computers = 40\nentry_pool_size = 8\nentry_count = 4\nbudget = 2\n"
        "enumeration_budget = 5\nmc_runs = 200\nseeds = 0\n"
    )
    argv = [
        "--config", str(config), "--strategies", strategies,
        "--out", str(tmp_path / "runs"),
    ]
    return _load_script().main(argv)


def test_exhaustive_over_the_enumeration_budget_is_skipped(tmp_path, capsys):
    assert _main(tmp_path, "greedy,exhaustive") == 0
    captured = capsys.readouterr()
    table = captured.out.splitlines()
    assert table[0].startswith("strategy,distribution,seeds")
    assert [row.split(",")[0] for row in table[1:]] == ["greedy"]
    assert (
        "exhaustive seed 0: skipped, 21 plans exceed the enumeration budget of 5"
        in captured.err
    )


def test_nothing_left_to_report_returns_1(tmp_path, capsys):
    assert _main(tmp_path, "exhaustive") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "every run was skipped; nothing left to report"
    )


def test_unknown_strategy_is_refused_before_any_run(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _main(tmp_path, "greedy,annealing")
    assert exc.value.code == 2
    assert "unknown strategies annealing" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_repeated_seeds_are_refused_before_any_run(tmp_path, capsys):
    config = tmp_path / "twice.cfg"
    config.write_text(
        "n_computers = 40\nentry_pool_size = 8\nentry_count = 4\nseeds = 1,1\n"
    )
    argv = [
        "--config", str(config), "--strategies", "greedy",
        "--out", str(tmp_path / "runs"),
    ]
    with pytest.raises(SystemExit) as exc:
        _load_script().main(argv)
    assert exc.value.code == 2
    assert "seeds must be distinct" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_artifact_digests_match_across_reruns_and_name_a_changed_file(
    tmp_path, capsys
):
    digests = _load_script("artifact_digests")
    root = tmp_path / "runs"
    seen = []
    for _ in range(2):
        assert _main(tmp_path, "greedy") == 0
        capsys.readouterr()  # the experiment's table
        assert digests.main([str(root)]) == 0
        seen.append(capsys.readouterr().out.splitlines())
    assert seen[0] == seen[1]
    names = [line.split("  ", 1)[1] for line in seen[0]]
    assert "greedy-seed0/simulation.csv" in names
    assert "greedy-seed0/timings.json" not in names
    population = root / "greedy-seed0" / "population.txt"
    data = bytearray(population.read_bytes())
    data[0] ^= 1
    population.write_bytes(bytes(data))
    assert digests.main([str(root)]) == 0
    changed = set(capsys.readouterr().out.splitlines()) ^ set(seen[0])
    assert {line.split("  ", 1)[1] for line in changed} == {
        "greedy-seed0/population.txt"
    }
    # a tree without a file to digest is an error, not an empty digest list
    empty = tmp_path / "empty"
    (empty / "run").mkdir(parents=True)
    (empty / "run" / "timings.json").write_text("{}")
    with pytest.raises(SystemExit) as exc:
        digests.main([str(empty)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{empty} holds no file to digest" in captured.err
