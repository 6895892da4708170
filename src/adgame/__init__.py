"""Attacker-defender edge-blocking games on Active Directory attack graphs."""

from .graph import (
    AttackGraph,
    Edge,
    EmptyGameError,
    GraphFormatError,
    GraphValidationError,
    Node,
    assign_blockable,
    load_graph,
    prune,
    sample_edge_probabilities,
    save_graph,
    select_entry_nodes,
)
from .generator import generate_synthetic
from .kernel import CondensedGraph, KernelizationError, Nsp, condense, kernel_report
from .mdp import (
    ExactSolver,
    StateSpaceLimitError,
    admissible_actions,
    dp_value,
    initial_state,
    terminal_value,
    transition,
)
from .simulate import (
    DpPolicy,
    PolicyContractError,
    SimulationReport,
    simulate,
    simulate_on_original,
)
from .valuenet import (
    Adam,
    BackupTable,
    CheckpointFormatError,
    NetGreedyPolicy,
    TrainingDivergedError,
    ValueNet,
    load_checkpoint,
    save_checkpoint,
    train_round,
)
from .defense import (
    DefenseConfigError,
    ExactFitness,
    Member,
    MonteCarloFitness,
    NetFitness,
    PopulationFormatError,
    best_member,
    edo_run,
    exhaustive_run,
    greedy_run,
    load_population,
    save_population,
    vec_run,
)
from .config import ConfigError, ExperimentConfig, load_config
from .pipeline import (
    PipelineError,
    PreparedInstance,
    ReportCompatibilityError,
    RunRecord,
    prepare_instance,
    report,
    run_baseline,
    run_nndp_edo,
)

__version__ = "0.1.0"
