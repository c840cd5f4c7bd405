"""Seeded ensembles over random decompositions of a fixed spectrum.

Each trial draws its own generator substream from (master seed, trial
index): first the Ginibre matrix of its Haar unitary, then, under
``haar-per-trial``, its state.  Results are therefore reproducible under
any execution order, and a report is a pure function of its configuration.

Trials are evaluated in blocks of consecutive indices.  A block draws each
of its trials from that trial's substream in the order above, factors all
of its Ginibre matrices in one stacked QR, checks all of its state norms at
once, and then evaluates every trial once, with array operations over the
block: the per-cell deviations and their inequality chain
(:func:`evaluate_cells`, which ``compute-l`` runs on its one state) and,
when ``normality`` is on, both normality routes.  A trial's cells are the
consecutive column blocks of its Haar unitary, as
:func:`~ergolab.randomness.sample_decomposition` cuts them; the blocks are
never copied out, the kernels read them as columns of the whole unitary.
Every per-trial deviation is kept in a (trials, cells) array.

The block size only trades speed for memory; it changes no result, since
every kernel works trial by trial along the leading axis.  A block gets
BLOCK_BYTES for its working arrays, counted per trial as the complex D x D
matrices alive while it is drawn and factored (_MATRICES_PER_TRIAL of
them; the D_E x D shell coordinates and overlap matrices are smaller) or,
with ``normality``, the complex (grid_points, D) evolved coordinates,
whichever is larger.  The budget was read off the benchmark's
ensemble-small workload (D = 8, 1000 grid points, 500 trials, normality
on) on a 2-core x86-64 VM with one BLAS thread, where the peak resident
set is 42.55 MiB trial by trial.  Blocks of 4, 8 and 16 trials (budgets
of 512 KiB, 1 MiB and 2 MiB) ran in 1.80, 1.59 and 1.40 reference units
against 6.45, and raised that peak by 0.2, 0.8 and 2.1 MiB; 1 MiB is the
largest budget that keeps the peak well inside 5% of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    MAX_PHASE_GRID,
    exact_grid_points,
    grid_phases,
    integer_rescaled,
    normal_time_fractions,
    overlap_matrices,
    prepare_state,
    shell_coordinates,
    shell_offsets,
    unit_rows,
)
from .randomness import (
    DEFAULT_SEED,
    ginibre_matrix,
    haar_from_ginibre,
    mean_stderr,
    sample_random_state,
    substream,
)
from .spectrum import Spectrum
from .typicality import (
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
    "markov_check",
    "normality_fraction",
    "wilson_interval",
]

# Numerical slack for the per-trial inequality chain.
CHAIN_SLACK = 1e-12

# Combined standard errors the Markov audit allows (markov_check).
MARKOV_SIGMA = 3.0

# Normal quantile of the 95% Wilson intervals (wilson_interval).
WILSON_Z = 1.96

# Bytes of the working arrays of one block of trials (see the module docstring).
BLOCK_BYTES = 1 << 20

# Complex D x D arrays alive at once per trial while a block is drawn and
# factored: the Ginibre matrix, the QR's working copy, Q, R, the unitary and
# the product conj(U) * psi that shell_coordinates sums over each shell.
_MATRICES_PER_TRIAL = 6

_POLICIES = ("uniform", "haar-fixed", "haar-per-trial", "explicit")


def check_ranks(ranks: tuple[int, ...], dim: int) -> None:
    """Cell ranks must be positive and sum to the dimension."""
    if sum(ranks) != dim:
        raise ValueError(f"cell ranks {ranks} do not sum to the dimension {dim}")
    if any(d < 1 for d in ranks):
        raise ValueError(f"all cell ranks must be >= 1, got {list(ranks)}")


@dataclass(eq=False)
class ExperimentConfig:
    """Everything a reproducible ensemble run depends on."""

    spectrum: Spectrum
    dims: tuple[int, ...]
    params: TheoremParams
    trials: int = 100
    seed: int = DEFAULT_SEED
    state_policy: str = "uniform"
    amplitudes: np.ndarray | None = None
    log_base: float = math.e
    grid_points: int | None = None  # None: max(1000, the least grid allowed)
    normality: bool = False

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        check_ranks(self.dims, self.spectrum.dim_total)
        if self.params.num_cells != len(self.dims):
            raise ValueError(
                f"params expect {self.params.num_cells} cells, got {len(self.dims)}"
            )
        if int(self.trials) < 1:
            raise ValueError("trial count must be >= 1")
        self.trials = int(self.trials)
        if int(self.seed) < 0:
            raise ValueError(f'"seed" must be a non-negative integer, got {self.seed}')
        if self.state_policy not in _POLICIES:
            raise ValueError(
                f"state policy must be one of {_POLICIES}, got {self.state_policy!r}"
            )
        if self.state_policy == "explicit":
            if self.amplitudes is None:
                raise ValueError("explicit state policy needs amplitudes")
            self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        least, note = 1, ""
        if self.normality:
            least = exact_grid_points(2 * int(integer_rescaled(self.spectrum)[0].spread))
            note = " with normality on (2*spread + 1 of the rescaled levels)"
        if self.grid_points is None:
            self.grid_points = max(1000, least)
        if not least <= int(self.grid_points) <= MAX_PHASE_GRID:
            raise ValueError(f"grid_points must be between {least} and {MAX_PHASE_GRID}{note}, "
                             f"got {self.grid_points}")
        try:
            self.threshold(self.dims[0])
        except OverflowError:
            raise ValueError(
                f"epsilon {self.params.epsilon} overflows the sufficient-condition "
                f"threshold delta' (epsilon/M)^2 d/D"
            ) from None

    @property
    def dim_total(self) -> int:
        return self.spectrum.dim_total

    def threshold(self, rank: int) -> float:
        """Sufficient-condition threshold for one cell rank."""
        return sufficient_threshold(self.params, rank, self.dim_total)


def evaluate_cells(spec: Spectrum, ranks, coords: np.ndarray):
    """Yield ``(record, bound, gap_ok, resonant_ok)`` for every cell, in order.

    ``coords`` is the shell coordinates
    (:func:`~ergolab.dynamics.shell_coordinates`) of one state, or a stack of
    them, on complete bases whose consecutive column blocks of the given
    ranks are the cells.  Each cell's overlap matrices go through
    :func:`~ergolab.typicality.deviation_breakdowns`.  The two links of the
    inequality chain, each within CHAIN_SLACK and broken by NaN: the
    ergodicity gap stays below the total, the resonant term below ``bound``.
    """
    index = spec.pair_index
    for rank, columns in zip(ranks, np.split(coords, np.cumsum(ranks)[:-1], axis=-1)):
        b = deviation_breakdowns(overlap_matrices(columns), rank / spec.dim_total, index)
        bound = resonant_term_bound(b["time_avg_weight"], index.max_sum_degeneracy)
        yield (b, bound, b["diag_dev_sq"] <= b["total"] + CHAIN_SLACK,
               b["resonant_term"] <= bound + CHAIN_SLACK)


def _fixed_state(config: ExperimentConfig) -> np.ndarray | None:
    """The prepared state every trial shares, or None under haar-per-trial."""
    dim = config.dim_total
    if config.state_policy == "uniform":
        vector = np.ones(dim, dtype=complex) / math.sqrt(dim)
    elif config.state_policy == "haar-fixed":
        vector = sample_random_state(dim, substream(config.seed, 0))
    elif config.state_policy == "explicit":
        vector = config.amplitudes
    else:
        return None
    return prepare_state(vector, config.spectrum)


def _block_trials(config: ExperimentConfig) -> int:
    """Trials per block: as many as keep one block's arrays within BLOCK_BYTES."""
    dim = config.dim_total
    width = _MATRICES_PER_TRIAL * dim
    if config.normality:
        width = max(width, config.grid_points)
    return max(1, min(config.trials, BLOCK_BYTES // (16 * dim * width)))


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
    chain quantities come from the breakdown's shell overlap matrix.

    With ``config.normality`` the same pass also asks of each trial whether
    every cell meets the sufficient-condition threshold and whether the
    one-period time fraction of simultaneous closeness reaches
    1 - delta'.  A trial passing the first route must pass the second (a
    theorem on a grid of at least exact_grid_points(2 * spread) times), so
    violations are counted (and indicate a bug, not noise).
    """
    spec = config.spectrum
    d_f = spec.pair_index.max_sum_degeneracy
    dim = config.dim_total
    p = config.params
    fixed = _fixed_state(config)
    offsets = shell_offsets(spec)
    phases = None
    if config.normality:
        grid = config.grid_points
        phases = grid_phases(integer_rescaled(spec)[0], grid).rows(np.arange(grid))

    totals = np.empty((config.trials, len(config.dims)))
    chain_violations = 0
    sufficient_count = direct_count = implication_violations = 0
    block = _block_trials(config)
    for first in range(0, config.trials, block):
        trials = range(first, min(first + block, config.trials))
        ginibre = np.empty((len(trials), dim, dim), dtype=complex)
        states = np.empty((len(trials), dim), dtype=complex)
        for i, t in enumerate(trials):
            rng = substream(config.seed, 1, t)
            ginibre[i] = ginibre_matrix(dim, rng)
            if fixed is None:
                states[i] = sample_random_state(dim, rng)
        states = unit_rows(states) if fixed is None else fixed
        coords = shell_coordinates(haar_from_ginibre(ginibre), states, offsets)
        block_totals = totals[trials.start:trials.stop]
        cells = evaluate_cells(spec, config.dims, coords)
        for k, (b, _, gap_ok, resonant_ok) in enumerate(cells):
            block_totals[:, k] = b["total"]
            chain_violations += int(np.sum(~gap_ok) + np.sum(~resonant_ok))
        if config.normality:
            ok_sufficient = np.all([
                sufficient_condition(block_totals[:, k], p, rank, dim)
                for k, rank in enumerate(config.dims)
            ], axis=0)
            fractions = normal_time_fractions(phases, coords, config.dims, p.epsilon)
            ok_direct = fractions >= 1 - p.delta_prime
            sufficient_count += int(np.sum(ok_sufficient))
            direct_count += int(np.sum(ok_direct))
            implication_violations += int(np.sum(ok_sufficient & ~ok_direct))

    cells = []
    for k, rank in enumerate(config.dims):
        col = totals[:, k]
        mean, stderr = mean_stderr(col)
        threshold = config.threshold(rank)
        bound = mean_deviation_bound(config.dim_total, rank, d_f, config.log_base)
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
        "state_policy": config.state_policy,
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


def markov_check(experiment: dict, threshold: float) -> dict:
    """Audit the tail bound Prob[X >= B] <= mean(X)/B on the per-trial totals
    of an experiment record (:func:`run_experiment`).

    Compares the empirical exceedance probability against the *stored*
    aggregate mean divided by B, within MARKOV_SIGMA combined standard errors.
    The inequality is distribution-free, so a failure beyond noise flags an
    inconsistent report rather than an unlucky draw.
    """
    if threshold <= 0:
        raise ValueError(f'"markov_threshold" must be positive, got {threshold!r}')
    samples = np.asarray(experiment["trial_totals"], dtype=float).ravel()
    n = samples.size
    prob = float((samples >= threshold).mean())
    mean = float(experiment["overall"]["mean"])
    se_prob = math.sqrt(max(prob * (1 - prob), 0.0) / n)
    se_mean = float(experiment["overall"]["stderr"]) / threshold
    slack = MARKOV_SIGMA * math.hypot(se_prob, se_mean)
    bound = mean / threshold
    if not (math.isfinite(bound) and math.isfinite(slack)):
        raise ValueError(
            f'"markov_threshold" {threshold!r} is too small: the Markov bound '
            f"mean / threshold ({mean!r} / {threshold!r}) overflows")
    return {
        "pass": prob <= bound + slack,
        "prob_exceed": prob,
        "markov_bound": bound,
        "slack": slack,
        "threshold": threshold,
    }


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

