"""Attacker-defender edge-blocking games on Active Directory attack graphs.

The package namespace holds the names of README's Python API; every other
public name is imported from its module.  ``import adgame`` still loads
every module but ``cli``, through ``pipeline``.
"""

from .config import ExperimentConfig
from .defense import ExactFitness, best_member, edo_run
from .mdp import dp_value
from .pipeline import prepare_instance
from .simulate import DpPolicy, simulate

__version__ = "0.1.0"
