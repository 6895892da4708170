"""End-to-end orchestration: instance prep, runs, persistence, CLI."""
from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from adgame import pipeline, valuenet
from adgame.cli import main
from adgame.config import ExperimentConfig
from adgame.defense import ExactFitness, exhaustive_run, greedy_run, load_population
from adgame.graph import EmptyGameError, load_graph, save_graph
from adgame.kernel import condense
from adgame.mdp import ExactSolver, StateSpaceLimitError, initial_state, key_floor_log2
from adgame.pipeline import (
    PipelineError,
    ReportCompatibilityError,
    RunRecord,
    prepare_instance,
    report,
    run_baseline,
    run_dir_for,
    run_nndp_edo,
    simulation_seed,
    write_simulation_csv,
)
from adgame.simulate import DpPolicy, SimulationReport, simulate_on_original
from adgame.valuenet import (
    TrainingDivergedError,
    ValueNet,
    load_checkpoint,
    save_checkpoint,
)

from instances import build_game, write_forged_checkpoint

TINY = dict(
    n_computers=30,
    entry_pool_size=6,
    entry_count=3,
    budget=2,
    mu=8,
    iterations=40,
    rounds=2,
    depth=2,
    width=16,
    batch_size=8,
    epochs_per_round=10,
    mc_runs=2000,
    seeds=(0,),
)


def tiny_config(out_dir: str, **extra) -> ExperimentConfig:
    return ExperimentConfig(**{**TINY, "out_dir": out_dir, **extra})


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory) -> str:
    # seed 4: at seeds 0 and 3 the best budget-2 plan stops every attack
    # (value 0), so no rate simulated there could tell one policy from
    # another; seed 1's 18 NSPs make this file five times slower, and seed 2
    # is the replay test's instance
    cfg = tiny_config(str(tmp_path_factory.mktemp("gen")))
    path = os.path.join(cfg.out_dir, "graph.txt")
    assert main(["generate", "--seed", "4", "--out", cfg.out_dir] + _sets(cfg)) == 0
    cg = prepare_instance(replace(cfg, graph_file=path), 0).cg
    ev = ExactFitness(cg)
    assert 0.0 < ev(exhaustive_run(cg, ev, cfg.budget)) < 1.0
    return path


def _sets(cfg: ExperimentConfig) -> list[str]:
    pairs = []
    for key in TINY:
        value = getattr(cfg, key)
        if key == "seeds":
            value = ",".join(str(s) for s in value)
        pairs += ["--set", f"{key}={value}"]
    return pairs


def test_prepare_instance_is_deterministic(tmp_path):
    cfg = tiny_config(str(tmp_path))
    a = prepare_instance(cfg, 0)
    b = prepare_instance(cfg, 0)
    c = prepare_instance(cfg, 1)
    assert a.instance_key == b.instance_key
    assert a.cg.graph.edges == b.cg.graph.edges
    assert a.instance_key != c.instance_key


@pytest.mark.parametrize(
    "distribution,key",
    [
        ("independent", "3babb507224bef27"),
        ("positive", "86a94d1a7d70ab42"),
        ("negative", "bee863e989b3a3a4"),
    ],
)
def test_paper_scale_instance_key_is_pinned(distribution, key):
    # recorded from an earlier version: generator, sampler, blockable flags
    # and entry selection must keep every draw across code changes
    config = ExperimentConfig(n_computers=500, distribution=distribution)
    assert prepare_instance(config, 0).instance_key == key


@pytest.mark.parametrize(
    "extra,seed,key,dropped",
    [
        ({}, 2, "71bf00607a69d472", ("c205", "c265", "c385", "c455")),
        (TINY, 0, "4de8c4cc9ee7c0ee", ("c17",)),
    ],
    ids=["paper-seed2", "tiny-seed0"],
)
def test_instances_that_drop_entries_are_pinned(extra, seed, key, dropped):
    # recorded from an earlier version: instances that drop entries must
    # keep their graphs across code changes
    inst = prepare_instance(ExperimentConfig(**extra), seed)
    assert inst.instance_key == key
    assert inst.dropped_entries == dropped


def test_paper_scale_exact_attempt_fails_fast():
    # 2**20 keys are provably needed, so the solver raises at once instead
    # of filling its memo to the limit first
    cg = prepare_instance(ExperimentConfig(n_computers=500), 0).cg
    root = initial_state(cg)
    assert key_floor_log2(cg, root) == 20
    solver = ExactSolver(cg)
    with pytest.raises(StateSpaceLimitError, match="2\\*\\*20"):
        solver.value(root)
    assert solver.states_solved == 0


def test_prepare_instance_drops_stranded_entry(tmp_path):
    g = build_game(
        [
            ("e0", "m", 0.1, 0.2, True),
            ("m", "da", 0.1, 0.2, False),
            ("e1", "e0", 0.1, 0.2, False),
        ],
        entries={"e0", "e1"},
        prepare=False,
    )
    path = tmp_path / "g.txt"
    save_graph(g, str(path))
    cfg = tiny_config(str(tmp_path), graph_file=str(path))
    inst = prepare_instance(cfg, 0)
    assert inst.dropped_entries == ("e1",)
    assert inst.cg.graph.entry_nodes == frozenset({"e0"})


def test_prepare_instance_drops_chained_dead_entries_in_one_pass(tmp_path):
    # e1 and e2 reach DA only through e0: one pass drops both
    g = build_game(
        [
            ("e2", "e1", 0.1, 0.2, False),
            ("e1", "e0", 0.1, 0.2, False),
            ("e0", "m", 0.1, 0.2, True),
            ("m", "da", 0.1, 0.2, False),
        ],
        entries={"e0", "e1", "e2"},
        prepare=False,
    )
    path = tmp_path / "g.txt"
    save_graph(g, str(path))
    cfg = tiny_config(str(tmp_path), graph_file=str(path))
    inst = prepare_instance(cfg, 0)
    assert inst.dropped_entries == ("e1", "e2")
    assert inst.cg.graph.entry_nodes == frozenset({"e0"})
    assert inst.cg.graph.node_ids == {"e0", "m", "da"}


def test_prepare_instance_with_no_live_entry_raises(tmp_path):
    g = build_game(
        [
            ("e0", "e1", 0.1, 0.2, False),
            ("e1", "e0", 0.1, 0.2, False),
            ("m", "da", 0.1, 0.2, True),
        ],
        entries={"e0", "e1"},
        prepare=False,
    )
    path = tmp_path / "g.txt"
    save_graph(g, str(path))
    cfg = tiny_config(str(tmp_path), graph_file=str(path))
    with pytest.raises(EmptyGameError):
        prepare_instance(cfg, 0)
    # nor is an entry live in a graph file without a DA node
    path.write_text(
        "adgraph 1 2 1\nnode e computer 1 0\nnode m computer 0 0\n"
        "edge e m generic 0.1 0.2 1\n"
    )
    with pytest.raises(EmptyGameError, match="no DA candidate"):
        prepare_instance(cfg, 0)


def test_graph_file_without_entries_is_refused(tmp_path):
    g = build_game([("m", "da", 0.1, 0.2, True)], entries={"m"}, prepare=False)
    bare = type(g)(nodes=g.nodes, edges=g.edges, entry_nodes=frozenset())
    path = tmp_path / "bare.txt"
    save_graph(bare, str(path))
    cfg = tiny_config(str(tmp_path), graph_file=str(path))
    with pytest.raises(PipelineError):
        prepare_instance(cfg, 0)


RECORD = RunRecord(
    strategy="nndp-edo",
    seed=3,
    config=ExperimentConfig(budget=2),
    instance_key="abc",
    dropped_entries=("u9",),
    n_nsps=4,
    n_bw_edges=3,
    round_best_fitness=(0.5, 0.25),
    loss_curves=((0.1, 0.05), (0.04,)),
    training_flag=False,
    best_plan=(1, 0, 1),
    best_fitness=0.25,
    exact_value=None,
    simulation={
        "plan_id": "plan-101", "evaluator": "net-greedy", "runs": 10,
        "successes": 2, "success_rate": 0.2, "std_error": 0.13,
    },
)


def test_run_record_json_round_trip():
    assert RunRecord.from_json(RECORD.to_json()) == RECORD


def test_simulation_csv_round_trip(tmp_path):
    sim = SimulationReport(
        runs=100, successes=30, success_rate=0.1 + 0.2, std_error=1 / 3, wall_time=1.5
    )
    path = tmp_path / "simulation.csv"
    write_simulation_csv(str(path), sim, (1, 0, 1), "exact")
    with open(path, newline="", encoding="ascii") as fh:
        (row,) = csv.DictReader(fh)
    assert row == {
        "plan_id": "plan-101",
        "evaluator": "exact",
        "runs": "100",
        "success_rate": "0.30000000000000004",
        "std_error": "0.3333333333333333",
        "wall_time_s": "1.500",
    }
    assert float(row["success_rate"]) == sim.success_rate
    assert float(row["std_error"]) == sim.std_error


def test_record_missing_a_field_is_a_pipeline_error(tmp_path):
    run_dir = str(tmp_path / "a")
    os.makedirs(run_dir)
    raw = json.loads(RECORD.to_json())
    del raw["n_bw_edges"]
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump(raw, fh)
    with pytest.raises(PipelineError, match="n_bw_edges"):
        report([run_dir])


def _artifact_bytes(run_dir: str) -> dict[str, bytes]:
    out = {}
    names = ("record.json", "population.txt", "net.ckpt", "graph.txt", "counters.json")
    for name in names:
        p = os.path.join(run_dir, name)
        if os.path.exists(p):
            with open(p, "rb") as fh:
                out[name] = fh.read()
    return out


def test_run_nndp_edo_persists_and_reruns_bit_identical(tmp_path, graph_file):
    cfg = tiny_config(str(tmp_path), graph_file=graph_file)
    rec1 = run_nndp_edo(cfg, 0)
    run_dir = run_dir_for(cfg, "nndp-edo", 0)
    first = _artifact_bytes(run_dir)
    assert set(first) == {
        "record.json", "population.txt", "net.ckpt", "graph.txt", "counters.json"
    }
    assert json.loads(first["counters.json"])["backup_table"]["entries_built"] > 0
    # other runs in between: nothing one run memoizes may reach the next
    run_nndp_edo(cfg, 1)
    run_nndp_edo(cfg, 0, "vec")
    rec2 = run_nndp_edo(cfg, 0)
    assert rec1 == rec2
    assert _artifact_bytes(run_dir) == first

    pop = load_population(os.path.join(run_dir, "population.txt"))
    assert 1 <= len(pop) <= cfg.mu
    assert all(sum(m.bits) == cfg.budget for m in pop)
    inst = prepare_instance(cfg, 0)
    net, round_index = load_checkpoint(
        os.path.join(run_dir, "net.ckpt"), inst.cg.n_nsps
    )
    assert round_index == cfg.rounds
    assert len(rec1.loss_curves) == cfg.rounds + 1
    assert len(rec1.round_best_fitness) == cfg.rounds
    assert rec1.simulation["runs"] == cfg.mc_runs
    assert rec1.exact_value == pytest.approx(
        ExactFitness(inst.cg)(rec1.best_plan), abs=1e-12
    )


def _run_cli(args: list[str], **env: str) -> subprocess.CompletedProcess:
    """Run ``adgame`` in a child process with ``env`` added to its
    environment."""
    src = os.path.dirname(os.path.dirname(valuenet.__file__))
    code = "import sys; from adgame.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": src, **env},
        capture_output=True, text=True, timeout=300,
    )


def test_run_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 400-row batches: at this size a float64 net's gradient sums came out
    # differently with 1 and 2 OpenBLAS threads, and so did its net.ckpt
    sets = []
    for key_value in (
        "n_computers=30", "entry_pool_size=6", "entry_count=3", "budget=1",
        "rounds=1", "mu=8", "iterations=5", "epochs_per_round=1",
        "batch_size=400", "mc_runs=10",
    ):
        sets += ["--set", key_value]
    runs = []
    for threads in ("1", "2"):
        done = _run_cli(
            ["defend", "edo", "--seed", "0", "--out", str(tmp_path), *sets],
            OPENBLAS_NUM_THREADS=threads,
        )
        assert done.returncode == 0, done.stderr
        runs.append(_artifact_bytes(str(tmp_path / "nndp-edo-seed0")))
    assert "net.ckpt" in runs[0]
    assert runs[0] == runs[1]


def test_counters_record_the_backup_table_and_the_exact_attempt(
    tmp_path, graph_file, monkeypatch
):
    cfg = tiny_config(str(tmp_path), graph_file=graph_file, budget=1)
    # count the rollouts and optimizer steps as they happen; the run keeps
    # its own tallies
    calls = {"rollouts": 0, "batches": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(valuenet, "rollout", counted(valuenet.rollout, "rollouts"))
    monkeypatch.setattr(valuenet.Adam, "step", counted(valuenet.Adam.step, "batches"))
    rec = run_nndp_edo(cfg, 0)
    with open(os.path.join(run_dir_for(cfg, "nndp-edo", 0), "counters.json")) as fh:
        counters = json.load(fh)
    assert counters["training"] == calls
    epochs = sum(len(curve) for curve in rec.loss_curves)
    assert epochs == (cfg.rounds + 1) * cfg.epochs_per_round
    assert calls["rollouts"] >= epochs and calls["batches"] >= epochs
    table = counters["backup_table"]
    assert set(table) == {
        "entries_built", "entry_reuses", "q_list_reuses", "net_rows",
        "off_route_actions",
    }
    assert table["entries_built"] > 0 and table["net_rows"] > 0
    assert table["off_route_actions"] > 0
    assert 0 < table["q_list_reuses"] <= table["entry_reuses"]
    # B's plans need far fewer keys than any memo limit
    cg = prepare_instance(cfg, 0).cg
    fresh = ExactSolver(cg)
    assert fresh.value(initial_state(cg, rec.best_plan)) == rec.exact_value
    assert counters["exact_attempt"] == {
        "key_floor_log2": 3, "keys": fresh.states_solved, "skipped_by_bound": False,
    }
    greedy = run_baseline(cfg, "greedy", 0)
    with open(os.path.join(run_dir_for(cfg, "greedy", 0), "counters.json")) as fh:
        counters = json.load(fh)
    # the same search with a fresh evaluator; the simulation adds no key
    ev = ExactFitness(cg)
    assert greedy_run(cg, ev, cfg.budget) == greedy.best_plan
    assert counters == {
        "exact_solver": {
            "keys": ev.policy.states_solved, "step_walks": ev.policy.step_walks,
        },
    }
    assert 0 < counters["exact_solver"]["step_walks"] < counters["exact_solver"]["keys"]


@pytest.mark.parametrize(
    "memo_limit,keys,skipped", [(7, 0, True), (8, 8, False)], ids=["bound", "overflow"]
)
def test_exact_attempt_counts_the_keys_it_stored_before_giving_up(
    tmp_path, graph_file, memo_limit, keys, skipped
):
    # the best plan's key floor is 2**3: a limit of 7 refuses the root before
    # storing a key, and a limit of 8 overflows with the memo full
    cfg = tiny_config(
        str(tmp_path), graph_file=graph_file, budget=1, memo_limit=memo_limit
    )
    rec = run_nndp_edo(cfg, 0)
    assert rec.exact_value is None
    with open(os.path.join(run_dir_for(cfg, "nndp-edo", 0), "counters.json")) as fh:
        attempt = json.load(fh)["exact_attempt"]
    assert attempt == {"key_floor_log2": 3, "keys": keys, "skipped_by_bound": skipped}


# the config accepts this learning rate; round 0 drives the net to nan
DIVERGING = dict(
    n_computers=16, entry_pool_size=4, entry_count=2, budget=2, rounds=3, mu=8,
    iterations=30, depth=2, width=16, epochs_per_round=5, learning_rate=1e30,
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("strategy", ["edo", "vec"])
def test_a_diverged_training_round_ends_the_run(tmp_path, strategy):
    cfg = ExperimentConfig(**DIVERGING, out_dir=str(tmp_path / "runs"))
    with pytest.raises(TrainingDivergedError):
        run_nndp_edo(cfg, 1, strategy)
    assert not os.path.exists(cfg.out_dir)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_reports_a_diverged_training_round(tmp_path, capsys):
    out = tmp_path / "runs"
    args = ["defend", "edo", "--seed", "1", "--out", str(out)]
    for key, value in DIVERGING.items():
        args += ["--set", f"{key}={value}"]
    assert main(args) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.out == ""
    assert json.loads(lines[0])["error"] == "TrainingDivergedError"
    assert not out.exists()


@pytest.mark.parametrize(
    "args,error,warning",
    [
        (
            ["kernelize", "--set", "n_computers=16", "--set", "entry_pool_size=50",
             "--set", "entry_count=40"],
            "GraphValidationError", "shrinking entry pool",
        ),
        (
            ["defend", "edo", "--seed", "1",
             *(f"--set={key}={value}" for key, value in DIVERGING.items())],
            "TrainingDivergedError", "encountered in matmul",
        ),
    ],
    ids=["pool-shrink", "diverged"],
)
def test_a_failing_cli_carries_its_warnings_in_the_one_error_line(
    tmp_path, args, error, warning
):
    # a child process: pytest's own warning capture would hide stray lines
    done = _run_cli([*args, "--out", str(tmp_path / "out")])
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    payload = json.loads(lines[0])
    assert payload["error"] == error
    assert any(warning in w for w in payload["warnings"]), payload


def test_a_successful_cli_shows_the_warnings_it_caught(tmp_path):
    # a child process: pyproject turns a RuntimeWarning into an error here
    done = _run_cli([
        "generate", "--set", "n_computers=5", "--set", "entry_pool_size=40",
        "--set", "entry_count=1", "--out", str(tmp_path / "out"),
    ])
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 1
    assert json.loads(done.stdout)["entry_nodes"] == 1
    warning = "RuntimeWarning: only 16 nodes have a path to DA; shrinking entry pool"
    assert warning in done.stderr


def test_rounds_zero_is_an_untrained_baseline(tmp_path, graph_file):
    cfg = tiny_config(str(tmp_path), graph_file=graph_file, rounds=0)
    rec = run_nndp_edo(cfg, 0)
    assert rec.round_best_fitness == ()
    assert rec.loss_curves == ()
    assert not rec.training_flag
    assert sum(rec.best_plan) == cfg.budget
    pop = load_population(
        os.path.join(run_dir_for(cfg, "nndp-edo", 0), "population.txt")
    )
    assert len(pop) == cfg.mu


def test_edo_strategy_runs_the_search_and_train_loop(tmp_path, graph_file):
    cfg = tiny_config(str(tmp_path), graph_file=graph_file, rounds=0)
    assert run_baseline(cfg, "edo", 0) == run_nndp_edo(cfg, 0)


@pytest.mark.parametrize("strategy", ["vce", "greedy", "diversity"])
def test_run_nndp_edo_refuses_a_misspelt_strategy(tmp_path, graph_file, strategy):
    cfg = tiny_config(str(tmp_path), graph_file=graph_file, rounds=0)
    with pytest.raises(PipelineError, match="unknown search-and-train strategy"):
        run_nndp_edo(cfg, 0, strategy)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("strategy", ["edo", "vec"])
def test_run_nndp_edo_calls_the_search_its_strategy_names(
    tmp_path, graph_file, monkeypatch, strategy
):
    calls = []
    for name in ("edo_run", "vec_run"):
        search = getattr(pipeline, name)

        def recording(*args, _name=name, _search=search, **kwargs):
            calls.append((_name, args))
            return _search(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, recording)
    cfg = tiny_config(str(tmp_path), graph_file=graph_file, rounds=1)
    run_nndp_edo(cfg, 0, strategy)
    assert [name for name, _ in calls] == [f"{strategy}_run"]
    # the iteration count is the fifth positional argument, where a tracer
    # of the search reads it
    assert calls[0][1][4] == cfg.iterations


def test_vec_baseline_uses_training_loop(tmp_path, graph_file):
    cfg = tiny_config(str(tmp_path), graph_file=graph_file)
    rec = run_baseline(cfg, "vec", 0)
    assert rec.strategy == "nndp-vec"
    assert len(rec.loss_curves) == cfg.rounds + 1
    assert os.path.exists(
        os.path.join(run_dir_for(cfg, "nndp-vec", 0), "net.ckpt")
    )


def test_exact_baselines_record_exact_values(tmp_path, graph_file):
    cfg = tiny_config(str(tmp_path), graph_file=graph_file)
    greedy = run_baseline(cfg, "greedy", 0)
    exhaustive = run_baseline(cfg, "exhaustive", 0)
    for rec in (greedy, exhaustive):
        assert rec.round_best_fitness == ()
        assert rec.exact_value == rec.best_fitness
        assert rec.simulation["evaluator"] == "exact-dp"
    assert exhaustive.best_fitness <= greedy.best_fitness + 1e-12
    with pytest.raises(PipelineError):
        run_baseline(cfg, "simulated-annealing", 0)


@pytest.mark.parametrize(
    "strategy,record_name,phases",
    [
        ("edo", "nndp-edo",
         {"prepare_s", "search_s", "train_s", "rescore_s", "exact_s", "simulate_s"}),
        ("greedy", "greedy", {"prepare_s", "search_s", "simulate_s"}),
    ],
    ids=["edo", "greedy"],
)
def test_timings_time_every_phase_within_the_total(
    tmp_path, graph_file, strategy, record_name, phases
):
    cfg = tiny_config(str(tmp_path), graph_file=graph_file)
    run_baseline(cfg, strategy, 0)
    path = os.path.join(run_dir_for(cfg, record_name, 0), "timings.json")
    with open(path, encoding="utf-8") as fh:
        timings = json.load(fh)
    assert set(timings) == phases | {"total_s"}
    assert all(timings[name] >= 0.0 for name in phases)
    assert sum(timings[name] for name in phases) <= timings["total_s"]


def test_report_tabulates_and_refuses_mixed_runs(tmp_path, graph_file):
    cfg = tiny_config(str(tmp_path), graph_file=graph_file)
    run_nndp_edo(cfg, 0)
    run_baseline(cfg, "greedy", 0)
    dirs = [run_dir_for(cfg, s, 0) for s in ("nndp-edo", "greedy")]
    table = report(dirs)
    lines = table.strip().splitlines()
    assert lines[0].startswith("strategy,distribution,seeds,mean_success_rate")
    assert len(lines) == 3
    assert {row.split(",")[0] for row in lines[1:]} == {"greedy", "nndp-edo"}

    with pytest.raises(PipelineError):
        report([])
    with pytest.raises(PipelineError):
        report([str(tmp_path / "nowhere")])

    record_path = os.path.join(dirs[1], "record.json")
    raw = json.loads(open(record_path).read())
    raw["config"]["budget"] = 99
    with open(record_path, "w") as fh:
        json.dump(raw, fh)
    with pytest.raises(ReportCompatibilityError):
        report(dirs)


def _write_record(run_dir: str, **fields) -> str:
    os.makedirs(run_dir)
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        fh.write(replace(RECORD, **fields).to_json())
    return run_dir


def test_report_refuses_a_run_dir_given_twice(tmp_path):
    run = _write_record(str(tmp_path / "a"))
    assert report([run]).splitlines()[1].startswith("nndp-edo,independent,1,")
    with pytest.raises(ReportCompatibilityError, match="seed 3"):
        report([run, run])


def test_report_refuses_two_runs_of_one_seed(tmp_path):
    first = _write_record(str(tmp_path / "a"))
    second = _write_record(str(tmp_path / "b"), best_fitness=0.5)
    with pytest.raises(ReportCompatibilityError, match="seed 3"):
        report([first, second])


@pytest.mark.parametrize(
    "patch",
    [lambda raw: [], lambda raw: {**raw, "config": None},
     lambda raw: {**raw, "round_best_fitness": 5},
     lambda raw: {**raw, "seed": "x"}, lambda raw: {**raw, "strategy": 3},
     lambda raw: {**raw, "best_plan": "01"},
     lambda raw: {**raw, "simulation": {**raw["simulation"], "success_rate": "x"}},
     lambda raw: {**raw, "config": {**raw["config"], "distribution": ["independent"]}},
     lambda raw: {**raw, "best_fitness": "x"}, lambda raw: {**raw, "best_plan": ["a"]},
     lambda raw: {**raw, "exact_value": [1]},
     lambda raw: {**raw, "config": {**raw["config"], "seeds": "x"}},
     lambda raw: {**raw, "config": {**raw["config"], "seeds": [1.5]}},
     lambda raw: {**raw, "config": {"budget": 2}},
     lambda raw: {**raw, "config": {**raw["config"], "budget": -1}},
     lambda raw: {**raw, "loss_curves": [[0.1, "x"]]},
     lambda raw: {**raw, "training_flag": 0},
     # json writes NaN, -Infinity and Infinity; the int is past every float
     lambda raw: {**raw, "best_fitness": float("nan")},
     lambda raw: {**raw, "simulation": {**raw["simulation"], "success_rate": -math.inf}},
     lambda raw: {**raw, "loss_curves": [[0.1, math.inf]]},
     lambda raw: {**raw, "exact_value": 10**400}],
    ids=["a-list", "null-config", "scalar-fitness", "string-seed", "int-strategy",
         "string-plan", "string-rate", "list-distribution", "string-fitness",
         "string-plan-bit", "list-exact-value", "string-seeds", "float-seed",
         "partial-config", "invalid-config", "string-loss", "int-flag",
         "nan-fitness", "infinite-rate", "infinite-loss", "huge-int-value"],
)
def test_cli_report_refuses_a_record_of_the_wrong_shape(tmp_path, capsys, patch):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(patch(json.loads(RECORD.to_json()))))
    assert main(["report", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.out == ""
    err = json.loads(lines[0])
    assert err["error"] == "PipelineError"
    assert err["message"].startswith(f"malformed run record {path}: ")


@pytest.mark.parametrize(
    "patch,timings,code,table",
    [
        # a malformed timings sidecar only blanks the wall-time column
        ({}, '{"total_s": [1]}', 0, "nndp-edo,independent,1,0.200000,,0.200000"),
        ({}, '{"total_s": NaN}', 0, "nndp-edo,independent,1,0.200000,,0.200000"),
        ({}, "[" * 100_000, 0, "nndp-edo,independent,1,0.200000,,0.200000"),
        ({"simulation": {}}, '{"total_s": 1.0}', 1, None),
    ],
    ids=["list-total-s", "nan-total-s", "nested-timings", "empty-simulation"],
)
def test_cli_report_on_a_malformed_sidecar_or_simulation(
    tmp_path, capsys, patch, timings, code, table
):
    path = tmp_path / "record.json"
    path.write_text(json.dumps({**json.loads(RECORD.to_json()), **patch}))
    (tmp_path / "timings.json").write_text(timings)
    assert main(["report", str(tmp_path)]) == code
    captured = capsys.readouterr()
    if table is not None:
        assert captured.err == "" and captured.out.splitlines()[1] == table
        return
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.out == ""
    err = json.loads(lines[0])
    assert err["error"] == "PipelineError"
    assert err["message"].startswith(f"malformed run record {path}: ")
    assert "success_rate" in err["message"]


def test_cli_generate_is_deterministic(tmp_path, capsys):
    cfg = tiny_config(str(tmp_path / "a"))
    assert main(["generate", "--seed", "0", "--out", cfg.out_dir] + _sets(cfg)) == 0
    payload = json.loads(capsys.readouterr().out)
    g = load_graph(payload["graph"])
    assert payload["nodes"] == len(g.nodes)
    assert g.entry_nodes

    cfg2 = tiny_config(str(tmp_path / "b"))
    assert main(["generate", "--seed", "0", "--out", cfg2.out_dir] + _sets(cfg2)) == 0
    capsys.readouterr()
    first = open(os.path.join(cfg.out_dir, "graph.txt"), "rb").read()
    second = open(os.path.join(cfg2.out_dir, "graph.txt"), "rb").read()
    assert first == second


def test_cli_kernelize_and_solve_exact_agree(tmp_path, capsys, graph_file):
    out = str(tmp_path / "k")
    args = ["--set", f"graph_file={graph_file}", "--seed", "0", "--out", out]
    assert main(["kernelize"] + args) == 0
    info = json.loads(capsys.readouterr().out)
    pruned = load_graph(os.path.join(out, "pruned.txt"))
    cg = condense(pruned)
    assert info["nsps"] == cg.n_nsps
    assert info["bw_edges"] == len(cg.bw_edges)

    assert main(["solve-exact"] + args) == 0
    solved = json.loads(capsys.readouterr().out)
    zeros = (0,) * len(cg.bw_edges)
    assert solved["value"] == pytest.approx(ExactFitness(cg)(zeros), abs=1e-12)
    assert solved["instance_key"] == info["instance_key"]

    plan = "1" + "0" * (len(cg.bw_edges) - 1)
    assert main(["solve-exact", "--plan", plan] + args) == 0
    solved_one = json.loads(capsys.readouterr().out)
    want = ExactFitness(cg)(tuple(int(c) for c in plan))
    assert solved_one["value"] == pytest.approx(want, abs=1e-12)


def test_cli_defend_simulate_report(tmp_path, capsys, graph_file):
    out = str(tmp_path / "runs")
    common = ["--set", f"graph_file={graph_file}", "--seed", "0", "--out", out]
    for key, value in TINY.items():
        if key == "seeds":
            continue
        common += ["--set", f"{key}={value}"]

    assert main(["defend", "edo"] + common) == 0
    edo = json.loads(capsys.readouterr().out)
    assert os.path.isdir(edo["run_dir"])
    assert set(edo["best_plan"]) <= {"0", "1"}

    assert main(["defend", "greedy"] + common) == 0
    greedy = json.loads(capsys.readouterr().out)
    assert greedy["exact_value"] == greedy["best_fitness"]

    ckpt = os.path.join(edo["run_dir"], "net.ckpt")
    # the run count comes last: a later --set wins
    assert (
        main(
            ["simulate", "--plan", edo["best_plan"], "--checkpoint", ckpt]
            + common + ["--set", "mc_runs=500"]
        )
        == 0
    )
    sim = json.loads(capsys.readouterr().out)
    assert sim["runs"] == 500
    assert 0.0 <= sim["success_rate"] <= 1.0
    csv_lines = open(sim["csv"]).read().strip().splitlines()
    assert len(csv_lines) == 2
    assert csv_lines[0].startswith("plan_id,evaluator,runs")

    assert main(["report", edo["run_dir"], greedy["run_dir"], "--out", out]) == 0
    table = capsys.readouterr().out
    assert open(os.path.join(out, "report.csv")).read() == table
    assert "nndp-edo" in table and "greedy" in table


@pytest.mark.parametrize("strategy", ["greedy", "edo"])
def test_cli_simulate_replays_a_runs_simulation(tmp_path, capsys, strategy):
    # seed 2's instance: both strategies' plans leave a success rate near 0.29
    out = str(tmp_path)
    common = _sets(tiny_config(out)) + ["--seed", "2", "--out", out]
    assert main(["defend", strategy] + common) == 0
    run = json.loads(capsys.readouterr().out)
    assert run["success_rate"] > 0.0
    ckpt = ["--checkpoint", os.path.join(run["run_dir"], "net.ckpt")]
    policy = ckpt if strategy == "edo" else []
    assert main(["simulate", "--plan", run["best_plan"]] + policy + common) == 0
    sim = json.loads(capsys.readouterr().out)
    assert sim["success_rate"] == run["success_rate"]
    replay, row = (
        [line.rsplit(",", 1)[0] for line in open(path).read().splitlines()]
        for path in (sim["csv"], os.path.join(run["run_dir"], "simulation.csv"))
    )
    assert replay == row and len(row) == 2  # all but the wall-time column


def test_cli_simulate_original_agrees_with_solve_exact_and_the_library(
    tmp_path, capsys, graph_file
):
    args = ["--set", f"graph_file={graph_file}", "--seed", "0", "--out", str(tmp_path)]
    cg = prepare_instance(ExperimentConfig(graph_file=graph_file), 0).cg
    plan = "1" + "0" * (len(cg.bw_edges) - 1)
    assert main(["solve-exact", "--plan", plan] + args) == 0
    value = json.loads(capsys.readouterr().out)["value"]

    cmd = ["simulate", "--original", "--plan", plan]
    assert main(cmd + args + ["--set", "mc_runs=20000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert out["runs"] == 20_000
    assert abs(out["success_rate"] - value) <= 4 * out["std_error"]
    bits = tuple(int(c) for c in plan)
    lib = simulate_on_original(
        cg, bits, DpPolicy(cg), 20_000, seed=simulation_seed(0)
    )
    assert round(out["success_rate"] * out["runs"]) == lib.successes
    assert out["success_rate"] == lib.success_rate


def test_cli_error_lines_are_machine_readable(tmp_path, capsys, graph_file):
    out = str(tmp_path / "x")
    args = ["--set", f"graph_file={graph_file}", "--seed", "0", "--out", out]

    assert main(["simulate", "--plan", "01"] + args) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CommandLineError"

    assert main(["solve-exact", "--plan", "0120"] + args) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {
        "error": "CommandLineError",
        "message": "plan must be a string of 0s and 1s, got '0120'",
    }

    assert main(["defend", "edo", "--set", "no_such=1", "--out", out]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    # report reads persisted runs only, so it takes no config flag
    assert main(["report", "--set", "x=1", out]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "CommandLineError"

    assert main(["defend", "edo", "--config", "/missing.cfg", "--out", out]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    assert main([]) == 2
    assert "error" in json.loads(capsys.readouterr().err)

    assert main(["defend", "greedy", "--set", "budget=99"] + args) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "DefenseConfigError"


CHECKPOINT = "simulate --set graph_file={graph} --set mc_runs=10 --checkpoint {bad}"


@pytest.mark.parametrize(
    "command,name,content,error,code",
    [
        ("kernelize --set graph_file={bad}", "", b"# caf\xe9\n", "GraphFormatError", 1),
        ("kernelize --set graph_file={bad}", None, None, "GraphFormatError", 1),
        ("kernelize --config {bad}", "", b"budget = 2 # caf\xe9\n", "ConfigError", 2),
        ("report {bad}", "record.json", b'{"strategy": "\xe9"}', "PipelineError", 1),
        ("report {bad}", "record.json", b"[" * 100_000, "PipelineError", 1),
        (CHECKPOINT, "", None, "CheckpointFormatError", 1),
        (CHECKPOINT, None, None, "CheckpointFormatError", 1),
    ],
    ids=["latin1-graph", "graph-directory", "latin1-config", "latin1-record",
         "nested-record", "missing-checkpoint", "checkpoint-directory"],
)
def test_cli_refuses_an_unreadable_input_with_its_readers_error(
    tmp_path, capsys, graph_file, command, name, content, error, code
):
    # ``name`` is the file written inside the directory ``bad``, or "" when
    # ``bad`` is that file itself, missing when ``content`` is None
    bad = tmp_path / "bad"
    if name != "":
        bad.mkdir()
    if content is not None:
        (bad / name).write_bytes(content)
    out = tmp_path / "out"
    argv = command.format(bad=bad, graph=graph_file).split()
    assert main(argv + ["--out", str(out)]) == code
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.out == ""
    err = json.loads(lines[0])
    assert err["error"] == error and str(bad) in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "args,message",
    [
        (["--seed", "-1"], "seeds must be nonnegative"),
        (["--set", "seeds=1,1"], "seeds must be distinct"),
    ],
    ids=["negative", "repeated"],
)
def test_cli_refuses_a_negative_or_repeated_seed(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    assert main(["kernelize", "--out", str(out)] + args) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.out == ""
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError" and message in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_refuses_a_non_finite_learning_rate(tmp_path, capsys, value):
    out = tmp_path / "out"
    args = ["--set", f"learning_rate={value}", "--out", str(out)]
    assert main(["kernelize"] + args) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.out == ""
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError"
    assert "learning_rate must be positive and finite" in err["message"]
    assert not out.exists()


def test_cli_simulate_refuses_a_net_of_the_wrong_width(tmp_path, capsys, graph_file):
    ckpt = str(tmp_path / "narrow.ckpt")
    save_checkpoint(ckpt, ValueNet(3, depth=1, width=4))
    args = ["--set", f"graph_file={graph_file}", "--seed", "0", "--out", str(tmp_path)]
    assert main(["simulate", "--set", "mc_runs=10", "--checkpoint", ckpt] + args) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CheckpointFormatError"
    assert "3 inputs" in err["message"] and "15 NSPs" in err["message"]
    assert not os.path.exists(tmp_path / "simulation.csv")


def test_cli_simulate_refuses_a_forged_checkpoint_header(tmp_path, capsys, graph_file):
    # the header matches the instance's 15 NSPs and claims about 17 MB of
    # parameters over a 16-byte payload
    ckpt = str(tmp_path / "forged.ckpt")
    write_forged_checkpoint(ckpt, (15, 2048, 2048, 1))
    args = ["--set", f"graph_file={graph_file}", "--seed", "0", "--out", str(tmp_path)]
    assert main(["simulate", "--set", "mc_runs=10", "--checkpoint", ckpt] + args) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.out == ""
    err = json.loads(lines[0])
    assert err["error"] == "CheckpointFormatError"
    assert "parameters" in err["message"]


def test_cli_simulate_refuses_bad_checkpoint_layer_sizes(tmp_path, capsys, graph_file):
    ckpt = str(tmp_path / "sizes.ckpt")
    write_forged_checkpoint(ckpt, (0, 1), n_params=1)
    args = ["--set", f"graph_file={graph_file}", "--seed", "0", "--out", str(tmp_path)]
    assert main(["simulate", "--set", "mc_runs=10", "--checkpoint", ckpt] + args) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.out == ""
    err = json.loads(lines[0])
    assert err["error"] == "CheckpointFormatError"
    assert "bad layer sizes" in err["message"]


@pytest.mark.parametrize("runs", ["0", "-5"])
def test_cli_simulate_refuses_fewer_than_one_run(tmp_path, capsys, runs):
    # no graph file is needed: the config refuses the count before any
    # instance is built
    args = ["--set", "graph_file=/missing/graph.txt", "--out", str(tmp_path)]
    assert main(["simulate", "--set", f"mc_runs={runs}"] + args) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "mc_runs must be positive" in err["message"]
