"""Stochastic local search SAT solving on constrained And-Inverter circuits."""

from .circuit import (
    INPUT,
    Assignment,
    Circuit,
    CircuitError,
    ConstrainedCircuit,
    ConstraintNotOnOutput,
    CycleDetected,
    DanglingReference,
    DuplicateDefinition,
    InputGateHasNoJustification,
    Literal,
    build_circuit,
    enumerate_minimal_justifications,
    evaluate,
    is_justified,
    random_complete_extension,
    verify_satisfying,
)
from .aiger import (
    AigerError,
    AigerHeader,
    LatchesUnsupported,
    LiteralOutOfRange,
    MalformedHeader,
    TruncatedDeltaEncoding,
    UnsatisfiableConstraints,
    export_dimacs,
    generate_random_sat_aig,
    load_aiger,
    parse_aiger,
    serialize_ascii,
    serialize_binary,
)
from .metrics import StructuralProfile, build_profile
from .search import (
    HEURISTICS,
    EmptyUnjustSet,
    SearchEngine,
)
from .harness import (
    CENSORED_STEPS,
    DEFAULT_NOISES,
    ExperimentConfig,
    InstanceSummary,
    MismatchedInstanceSets,
    SolveResult,
    SolverConfig,
    TryRecord,
    UnsoundResult,
    crsat_solve,
    derive_seed,
    emit_cactus_csv,
    emit_scatter_csv,
    filter_trivial,
    lower_median,
    optimize_noise,
    run_experiment,
    run_try,
    summarize,
)

__version__ = "0.1.0"
