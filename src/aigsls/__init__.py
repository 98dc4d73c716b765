"""Stochastic local search SAT solving on constrained And-Inverter circuits.

The package exports what documented library use needs; everything else is
imported from its module (``aigsls.circuit``, ``aiger``, ``metrics``,
``search``, ``harness``).
"""

from .circuit import (
    INPUT,
    Assignment,
    ConstrainedCircuit,
    Literal,
    build_circuit,
    random_complete_extension,
    verify_satisfying,
)
from .aiger import export_dimacs, generate_random_sat_aig, parse_aiger
from .metrics import build_profile
from .harness import (
    CENSORED_STEPS,
    DEFAULT_NOISES,
    ExperimentConfig,
    SolverConfig,
    crsat_solve,
    emit_scatter_csv,
    run_experiment,
    summarize,
)

__version__ = "0.1.0"
