"""hamcount: random digraph processes, exact Hamilton-cycle and 1-factor
counting, a 1-factor-to-Hamilton-cycle construction pipeline, and a seeded
Monte Carlo experiment harness."""

from .digraph import (
    CoupledProcess,
    Digraph,
    EdgeSequence,
    couple,
    gen_binomial,
    gen_process,
    hitting_time,
    read_edge_list,
    write_edge_list,
)
from .exact import (
    FactorEnumeration,
    OneFactor,
    count_hamilton_cycles,
    count_one_factors,
    enumerate_one_factors,
    permanent,
    rencontres,
)
from .frieze import (
    Constants,
    PipelineConfig,
    PipelineOutcome,
    compute_constants,
    find_hamilton,
    find_one_factor,
)
from .harness import ExperimentConfig, Report, run_experiment

__version__ = "0.1.0"
