"""Seeded ensembles over random decompositions of a fixed spectrum.

Each trial draws its own generator substream from (master seed, 1, trial
index): first the Ginibre matrix of its Haar unitary, then, under
``haar-per-trial``, its state.  Results are therefore reproducible under
any execution order, and a report is a pure function of its configuration.
That configuration, :class:`ExperimentConfig`, is the schema of ``run``'s
config document: its fields are the document's nine keys, with their
defaults, and it checks every value as it is built.

Trials are evaluated in blocks of consecutive indices.  A block is seeded
in one pass (:func:`~ergolab.randomness.substreams` hashes the seed lists
of a block of ``randomness._BATCH_INDICES`` or more trials at once and
re-seeds one generator in place per trial), and its draws are
trial-major: each trial's normals, in the order above, come from one fill
into a row the block reuses, and are copied into the block's
Ginibre matrices and states.  The block then factors all of its Ginibre
matrices in one stacked QR and evaluates every trial once, with
array operations over the block: the per-cell deviations and their
inequality chain (:func:`evaluate_cells`, which ``compute-l`` runs on its
one state) and, when ``normality`` is on, both normality routes.  Each
cell's shell overlap matrices live only until they are gathered into
their gap buckets (:func:`~ergolab.dynamics.gap_buckets`), which the
deviation kernel reads, and from which the direct normality route
evaluates every cell weight on the grid as the gap polynomial
G_0 + 2 sum_{g>0} Re(G_g exp(-i g tau))
(:func:`~ergolab.dynamics.normal_time_fractions`): no trial's coordinates
are evolved.  A drawn state is divided by its norm once, as it is drawn.
A trial's cells are the consecutive column blocks of its Haar unitary, as
:func:`~ergolab.randomness.sample_decomposition` cuts them; the blocks are
never copied out, the kernels read them as columns of the whole unitary.
Every per-trial deviation is kept in a (trials, cells) array.

The block size only trades speed for memory; it changes no result, since
every kernel works trial by trial along the leading axis.  A block gets
BLOCK_BYTES for its working arrays, counted per trial as the complex D x D
matrices alive while it is drawn and factored (_MATRICES_PER_TRIAL of
them; the draws' one row of 2 D^2 + 2 D floats is the block's, smaller
than one trial's matrices, and is not counted) or, with ``normality``,
the arrays the normality route holds per trial, whichever is larger: the
shell coordinates, one cell's overlap matrix and its gathered pairs, each
cell's bucket sums and gap polynomial, and INSTANT_BYTES per time of a
slice of GRID_SLICE grid times.  The grid
is walked in slices, so no array grows with ``grid_points``: a slice's gap
phases, shared by the block, take GAP_PHASE_BYTES per positive gap and
time, and the longer slices of a small block stay within SLICE_BYTES (all
in :mod:`ergolab.dynamics`).  A run builds its gap phases
(:func:`~ergolab.dynamics.gap_phases`) once, so their small-step roots are
formed once whatever the block size, and a phase's bits depend on its gap
and grid index alone, not on the slice that reads it.  The draws' arrays
die before the block is evaluated, and the block's before the next is
drawn.
Measured on the benchmark's ensemble-small workload (D = 8, 1000 grid
points, 500 trials, normality on; 170-trial blocks) in-process on a 2-core
x86-64 VM with one BLAS thread: the tracemalloc peak of a run is 903 KiB,
below BLOCK_BYTES (1 MiB), reached while a block is drawn; budgets of
512 KiB, 1 MiB and 2 MiB raised the peak resident set by about 0.1, 0.5
and 1.5 MiB over blocks of one trial (42.5 MiB), while a run took 26, 22
and 27 ms (medians of 21) against 540 ms.  1 MiB is the largest budget
that keeps the peak well inside 5% of it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    GRID_SLICE,
    INSTANT_BYTES,
    MAX_PHASE_GRID,
    deviation_grid_points,
    gap_buckets,
    gap_phases,
    normal_time_fractions,
    overlap_matrices,
    prepare_state,
    shell_coordinates,
    shell_offsets,
)
from .randomness import (
    DEFAULT_SEED,
    haar_from_ginibre,
    mean_stderr,
    sample_random_state,
    substream,
    substreams,
)
from .spectrum import Spectrum
from .typicality import (
    LOG_BASES,
    TheoremParams,
    deviation_breakdowns,
    mean_deviation_bound,
    resonant_term_bound,
    sufficient_condition,
    sufficient_threshold,
)

__all__ = [
    "CHAIN_SLACK",
    "ExperimentConfig",
    "check_ranks",
    "evaluate_cells",
    "run_experiment",
    "normality_fraction",
    "wilson_interval",
]

# Numerical slack for the per-trial inequality chain.
CHAIN_SLACK = 1e-12

# Normal quantile of the 95% Wilson intervals (wilson_interval).
WILSON_Z = 1.96

# Bytes of the working arrays of one block of trials (see the module docstring).
BLOCK_BYTES = 1 << 20

# Complex D x D arrays alive at once per trial while a block is drawn and
# factored: the Ginibre matrix, the QR's working copy, Q, R, the unitary and
# the product conj(U) * psi that shell_coordinates sums over each shell.
_MATRICES_PER_TRIAL = 6

_POLICIES = ("uniform", "haar-fixed", "haar-per-trial")


def check_ranks(ranks: tuple[int, ...], dim: int) -> None:
    """Cell ranks must be positive and sum to the dimension."""
    if sum(ranks) != dim:
        raise ValueError(f"cell ranks {ranks} do not sum to the dimension {dim}")
    if any(d < 1 for d in ranks):
        raise ValueError(f"all cell ranks must be >= 1, got {list(ranks)}")


@dataclass(eq=False)
class ExperimentConfig:
    """Everything a reproducible ensemble run depends on: the nine keys of
    a run config document, under their names and with their defaults, each
    checked as the config is built (``dataclasses.replace`` checks again).

    ``state`` is a policy name (``uniform``, ``haar-fixed``,
    ``haar-per-trial``) or the amplitudes every trial starts from, whose
    length and norm :func:`~ergolab.dynamics.prepare_state` checks; the
    report calls them policy ``explicit``.  ``log_base`` is a key of
    ``typicality.LOG_BASES``.  Integers go through ``operator.index``: a
    float is refused (TypeError), not truncated.  ``grid`` is the time grid
    the normality audit walks: ``grid_points``, or by default the larger of
    1000 and the least grid allowed.
    """

    spectrum: Spectrum
    dims: tuple[int, ...]
    params: TheoremParams
    state: str | np.ndarray = "uniform"
    trials: int = 100
    seed: int = DEFAULT_SEED
    log_base: str = "e"
    grid_points: int | None = None  # None: max(1000, the least grid allowed)
    normality: bool = False

    def __post_init__(self):
        self.dims = tuple(map(operator.index, self.dims))
        check_ranks(self.dims, self.spectrum.dim_total)
        if self.params.num_cells != len(self.dims):
            raise ValueError(f"params expect {self.params.num_cells} cells, got {len(self.dims)}")
        self.trials = operator.index(self.trials)
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")
        self.seed = operator.index(self.seed)
        if self.seed < 0:
            raise ValueError(f'"seed" must be a non-negative integer, got {self.seed}')
        # Not a field: ``state`` keeps the caller's amplitudes, and a
        # replace prepares the same vector from them again.
        self._vector = None
        if not isinstance(self.state, str):
            self._vector = prepare_state(self.state, self.spectrum)
        elif self.state not in _POLICIES:
            raise ValueError(f"state policy must be one of {_POLICIES}, got {self.state!r}")
        if not isinstance(self.log_base, str) or self.log_base not in LOG_BASES:
            raise ValueError(f'log_base must be "e" or "10", got {self.log_base!r}')
        least, note = 1, ""
        if self.normality:
            least = deviation_grid_points(self.spectrum)
            note = " with normality on (2*spread + 1 of the rescaled levels)"
        if least > MAX_PHASE_GRID:
            raise ValueError(f"normality needs a grid of at least {least} points (2*spread + 1 "
                             f"of the rescaled levels), beyond the limit {MAX_PHASE_GRID}")
        # Not a field either: the grid the audit walks.  ``grid_points``
        # keeps the caller's None, so a replace that turns normality on
        # resolves the default against the larger least grid again.
        if self.grid_points is not None:
            self.grid_points = operator.index(self.grid_points)
        self.grid = max(1000, least) if self.grid_points is None else self.grid_points
        if not least <= self.grid <= MAX_PHASE_GRID:
            raise ValueError(f"grid_points must be between {least} and {MAX_PHASE_GRID}{note}, "
                             f"got {self.grid}")
        try:
            self.threshold(self.dims[0])
        except OverflowError:
            raise ValueError(f"epsilon {self.params.epsilon} overflows the sufficient-condition "
                             f"threshold delta' (epsilon/M)^2 d/D") from None

    @property
    def dim_total(self) -> int:
        return self.spectrum.dim_total

    def threshold(self, rank: int) -> float:
        """Sufficient-condition threshold for one cell rank."""
        return sufficient_threshold(self.params, rank, self.dim_total)


def evaluate_cells(spec: Spectrum, ranks, coords: np.ndarray):
    """Yield ``(record, bound, gap_ok, resonant_ok, buckets)`` for every
    cell, in order.

    ``coords`` is the shell coordinates
    (:func:`~ergolab.dynamics.shell_coordinates`) of one state, or a stack of
    them, on complete bases whose consecutive column blocks of the given
    ranks are the cells.  Each cell's overlap matrices are gathered into
    their gap buckets (:func:`~ergolab.dynamics.gap_buckets`) and dropped;
    the buckets, yielded, go through
    :func:`~ergolab.typicality.deviation_breakdowns`.  The two links of the
    inequality chain, each within CHAIN_SLACK and broken by NaN: the
    ergodicity gap stays below the total, the resonant term below ``bound``.
    """
    index = spec.pair_index
    for rank, columns in zip(ranks, np.split(coords, np.cumsum(ranks)[:-1], axis=-1)):
        buckets = gap_buckets(overlap_matrices(columns), index)
        b = deviation_breakdowns(buckets, rank / spec.dim_total)
        bound = resonant_term_bound(b["time_avg_weight"], index.max_sum_degeneracy)
        yield (b, bound, b["diag_dev_sq"] <= b["total"] + CHAIN_SLACK,
               b["resonant_term"] <= bound + CHAIN_SLACK, buckets)


def _fixed_state(config: ExperimentConfig) -> np.ndarray | None:
    """The prepared state every trial shares, or None under haar-per-trial."""
    dim = config.dim_total
    if not isinstance(config.state, str):
        return config._vector
    if config.state == "haar-per-trial":
        return None
    vector = (sample_random_state(dim, substream(config.seed, 0)) if config.state == "haar-fixed"
              else np.ones(dim, dtype=complex) / math.sqrt(dim))
    return prepare_state(vector, config.spectrum)


def _block_trials(config: ExperimentConfig) -> int:
    """Trials per block: as many as keep one block's arrays within BLOCK_BYTES."""
    dim = config.dim_total
    per_trial = 16 * _MATRICES_PER_TRIAL * dim * dim
    if config.normality:
        levels = config.spectrum.num_levels
        gaps = config.spectrum.pair_index.gap_values.size // 2 + 1
        # the coordinates; one cell's overlap matrix, gathered pairs and
        # their squares (no more than 40 D_E^2 bytes); every cell's bucket
        # sums and gap polynomial
        kept = 16 * levels * dim + 40 * levels * levels + 32 * len(config.dims) * gaps
        per_trial = max(per_trial, kept + INSTANT_BYTES * min(config.grid, GRID_SLICE))
    return max(1, min(config.trials, BLOCK_BYTES // per_trial))


def _block_draws(seed: int, trials: range, dim: int, states: bool):
    """``(ginibre, states)``: the Ginibre matrices of a block of trials and,
    when ``states``, their random states (else None), each trial's drawn
    from ``substream(seed, 1, t)`` in one fill of its 2 D^2 (+ 2 D) normals:
    the matrix's real then imaginary parts, then the state's.  The fill
    goes into one row that each trial reuses and is copied into the
    block's complex arrays, so the draws are bit for bit those of
    ``ginibre_matrix`` and ``sample_random_state`` on that substream."""
    square = dim * dim
    ginibre = np.empty((len(trials), dim, dim), dtype=complex)
    vectors = np.empty((len(trials), dim), dtype=complex) if states else None
    row = np.empty(2 * square + (2 * dim if states else 0))
    # (real, imaginary) pairs of the row's entries, in the complex arrays' layout
    matrix_pairs = row[:2 * square].reshape(2, square).T
    vector_pairs = row[2 * square:].reshape(2, -1).T
    matrix_slots = ginibre.view(np.float64).reshape(len(trials), square, 2)
    vector_slots = None if vectors is None else vectors.view(np.float64).reshape(-1, dim, 2)
    for t, rng in enumerate(substreams(trials, seed, 1)):
        rng.standard_normal(out=row)
        matrix_slots[t] = matrix_pairs
        if vector_slots is not None:
            vector_slots[t] = vector_pairs
    ginibre /= math.sqrt(2.0)
    if vectors is not None:
        # The axis form sums in numpy, not by a BLAS dot: seeded states rely on it.
        vectors /= np.linalg.norm(vectors, axis=-1, keepdims=True)
    return ginibre, vectors


def _block_coordinates(config: ExperimentConfig, trials: range, fixed, offsets) -> np.ndarray:
    """The shell coordinates of the Haar unitaries of a block of trials
    (:func:`_block_draws`), each trial's state its own draw when ``fixed``
    is None.  The D x D arrays die on return."""
    ginibre, states = _block_draws(config.seed, trials, config.dim_total, fixed is None)
    return shell_coordinates(haar_from_ginibre(ginibre), fixed if states is None else states,
                             offsets)


def _evaluate_block(config: ExperimentConfig, trials: range, fixed, offsets, phases,
                    block_totals: np.ndarray) -> tuple[int, int, int, int]:
    """Draw and evaluate a block of trials, writing their deviations into
    ``block_totals``.  Returns the block's chain violations and, with
    normality (``phases`` not None), its sufficient, direct and
    implication-violating trials.  The block's arrays die on return, before
    the next block is drawn."""
    spec, p, dim = config.spectrum, config.params, config.dim_total
    coords = _block_coordinates(config, trials, fixed, offsets)
    chain_violations = 0
    sums = []  # kept for the normality route only
    for k, (b, _, gap_ok, resonant_ok, buckets) in enumerate(
            evaluate_cells(spec, config.dims, coords)):
        block_totals[:, k] = b["total"]
        chain_violations += int(np.sum(~gap_ok) + np.sum(~resonant_ok))
        if phases is not None:
            sums.append(buckets[0])
    if phases is None:
        return chain_violations, 0, 0, 0
    ok_sufficient = np.all([
        sufficient_condition(block_totals[:, k], p, rank, dim)
        for k, rank in enumerate(config.dims)
    ], axis=0)
    fractions = normal_time_fractions(sums, config.dims, p.epsilon, phases)
    ok_direct = fractions >= 1 - p.delta_prime
    return (chain_violations, int(np.sum(ok_sufficient)), int(np.sum(ok_direct)),
            int(np.sum(ok_sufficient & ~ok_direct)))


def run_experiment(config: ExperimentConfig) -> dict:
    """Sample decompositions, evaluate the deviation per cell, aggregate.

    Returns the records ``run`` writes: ``{"experiment": ..., "normality":
    ...}``, the second None unless the config asked for the audit.  The
    experiment's ``trial_totals`` is the read-only (trials, cells) array of
    every per-trial deviation, not a list, so that the CLI's report writer
    formats it row by row without a copy; ``json.dumps(record,
    default=np.ndarray.tolist)`` encodes a record.

    Per-cell means are compared against the decomposition-average bound; a
    per-trial inequality chain (ergodicity gap below the total, resonant
    term below its sum-degeneracy bound) is audited with tiny slack.  Both
    chain quantities come from the breakdown's gap buckets.

    With ``config.normality`` the same pass also asks of each trial whether
    every cell meets the sufficient-condition threshold and whether the
    one-period time fraction of simultaneous closeness reaches
    1 - delta'.  A trial passing the first route must pass the second (a
    theorem on a grid of at least deviation_grid_points(spec) times), so
    violations are counted (and indicate a bug, not noise).
    """
    spec = config.spectrum
    d_f = spec.pair_index.max_sum_degeneracy
    dim = config.dim_total
    fixed = _fixed_state(config)
    offsets = shell_offsets(spec)
    phases = None
    if config.normality:
        phases = gap_phases(spec.pair_index, config.grid)

    totals = np.empty((config.trials, len(config.dims)))
    tallies = [0, 0, 0, 0]
    block = _block_trials(config)
    for first in range(0, config.trials, block):
        trials = range(first, min(first + block, config.trials))
        tallies = [a + b for a, b in zip(tallies, _evaluate_block(
            config, trials, fixed, offsets, phases, totals[trials.start:trials.stop]))]
    chain_violations, sufficient_count, direct_count, implication_violations = tallies

    cells = []
    for k, rank in enumerate(config.dims):
        col = totals[:, k]
        mean, stderr = mean_stderr(col)
        threshold = config.threshold(rank)
        bound = mean_deviation_bound(config.dim_total, rank, d_f,
                                     LOG_BASES[config.log_base])
        cells.append({
            "cell": k + 1,
            "rank": rank,
            "mean": mean,
            "stderr": stderr,
            "max": float(col.max()),
            "min": float(col.min()),
            "threshold": threshold,
            "prob_exceed": float((col > threshold).mean()),
            "mean_bound": bound,
            "mean_below_bound": mean <= bound,
        })

    pooled = totals.ravel()
    mean, stderr = mean_stderr(pooled)
    totals.flags.writeable = False
    experiment = {
        "dims": list(config.dims),
        "trials": config.trials,
        "seed": config.seed,
        "state_policy": config.state if isinstance(config.state, str) else "explicit",
        "D": dim,
        "D_E": spec.num_levels,
        "D_G": spec.pair_index.max_gap_degeneracy,
        "D_F": d_f,
        "cells": cells,
        "overall": {
            "mean": mean,
            "stderr": stderr,
            "max": float(pooled.max()),
            "min": float(pooled.min()),
        },
        "chain_violations": chain_violations,
        "pass": chain_violations == 0 and all(c["mean_below_bound"] for c in cells),
        "trial_totals": totals,
    }
    normality = None
    if config.normality:
        normality = {
            "trials": config.trials,
            "sufficient_fraction": sufficient_count / config.trials,
            "sufficient_ci": list(wilson_interval(sufficient_count, config.trials)),
            "direct_fraction": direct_count / config.trials,
            "direct_ci": list(wilson_interval(direct_count, config.trials)),
            "implication_violations": implication_violations,
        }
    return {"experiment": experiment, "normality": normality}


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson score interval, at the normal quantile WILSON_Z, for a
    binomial fraction."""
    if n < 1:
        raise ValueError("need at least one observation")
    p = successes / n
    denom = 1 + WILSON_Z**2 / n
    center = (p + WILSON_Z**2 / (2 * n)) / denom
    half = (WILSON_Z / denom) * math.sqrt(p * (1 - p) / n + WILSON_Z**2 / (4 * n**2))
    return (max(center - half, 0.0), min(center + half, 1.0))


def normality_fraction(config: ExperimentConfig) -> dict:
    """Fraction of decompositions that are normal, by both available routes.

    The ``"normality"`` record of :func:`run_experiment` run on ``config``.
    """
    return run_experiment(replace(config, normality=True))["normality"]

