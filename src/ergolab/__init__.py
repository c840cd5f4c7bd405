"""Numerical laboratory for cell-weight equilibration of degenerate and
resonant spectra: exact gap/sum combinatorics, Haar-random measurement
decompositions, exact long-time averages, and high-precision evaluation of
the admissibility conditions that govern when almost every decomposition
equilibrates.
"""

from .spectrum import (
    Spectrum,
    SpectrumError,
    GapStructure,
    SumStructure,
    classify,
    gap_structure,
    parse_spectrum,
    structure_report,
    sum_structure,
)
from .randomness import (
    DEFAULT_SEED,
    hypersphere_moments,
    sample_decomposition,
    sample_haar_frame,
    sample_haar_unitary,
    sample_random_state,
    state_weight_statistics,
    substream,
    unitary_block_statistics,
)
from .dynamics import (
    discrete_time_average,
    exact_time_avg_weight,
    gap_buckets,
    integer_rescaled,
    prepare_state,
    shell_overlap_matrix,
    time_fraction_normal,
)
from .typicality import (
    TheoremParams,
    admissible_constant_crossover,
    deviation_breakdowns,
    deviation_exact,
    ergodicity_gap,
    find_admissible_constant,
    mean_deviation_bound,
    resonance_impact,
    resonant_term_bound,
    sufficient_condition,
    sufficient_threshold,
    theorem_condition,
)
from .montecarlo import (
    ExperimentConfig,
    normality_fraction,
    run_experiment,
    wilson_interval,
)

__version__ = "0.1.0"
