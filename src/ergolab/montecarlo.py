"""Seeded ensembles over random decompositions of a fixed spectrum.

Each trial draws its own generator substream from (master seed, trial
index), so results are reproducible under any execution order and a report
is a pure function of its configuration.  Per-trial deviation values are
retained up to a size cap; aggregates are streamed regardless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    integer_rescaled,
    prepare_state,
    time_fraction_normal,
)
from .randomness import DEFAULT_SEED, sample_decomposition, sample_random_state, substream
from .spectrum import Spectrum, gap_structure, sum_structure
from .typicality import (
    TheoremParams,
    deviation_exact,
    ergodicity_gap,
    mean_deviation_bound,
    resonant_term_bound,
    sufficient_condition,
)

__all__ = [
    "RETAIN_LIMIT",
    "CHAIN_SLACK",
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
    "markov_check",
    "normality_fraction",
    "wilson_interval",
    "dump_trials",
]

# Per-trial retention is disabled beyond this many trials to bound memory.
RETAIN_LIMIT = 10_000

# Numerical slack for the per-trial inequality chain.
CHAIN_SLACK = 1e-12

_POLICIES = ("uniform", "haar-fixed", "haar-per-trial", "explicit")


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
    retain_trials: bool | None = None
    log_base: float = math.e
    grid_points: int = 1000

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if sum(self.dims) != self.spectrum.dim_total:
            raise ValueError(
                f"cell ranks {self.dims} do not sum to the dimension "
                f"{self.spectrum.dim_total}"
            )
        if any(d < 1 for d in self.dims):
            raise ValueError("all cell ranks must be >= 1")
        if self.params.num_cells != len(self.dims):
            raise ValueError(
                f"params expect {self.params.num_cells} cells, got {len(self.dims)}"
            )
        if int(self.trials) < 1:
            raise ValueError("trial count must be >= 1")
        self.trials = int(self.trials)
        if self.state_policy not in _POLICIES:
            raise ValueError(
                f"state policy must be one of {_POLICIES}, got {self.state_policy!r}"
            )
        if self.state_policy == "explicit":
            if self.amplitudes is None:
                raise ValueError("explicit state policy needs amplitudes")
            self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.retain_trials is None:
            self.retain_trials = self.trials <= RETAIN_LIMIT
        if int(self.grid_points) < 1:
            raise ValueError(f"grid_points must be >= 1, got {self.grid_points}")

    @property
    def dim_total(self) -> int:
        return self.spectrum.dim_total

    def threshold(self, rank: int) -> float:
        """Sufficient-condition threshold for one cell rank."""
        p = self.params
        return p.delta_prime * (p.epsilon / p.num_cells) ** 2 * (rank / self.dim_total)


def _fixed_state_vector(config: ExperimentConfig) -> np.ndarray | None:
    dim = config.dim_total
    if config.state_policy == "uniform":
        return np.ones(dim, dtype=complex) / math.sqrt(dim)
    if config.state_policy == "haar-fixed":
        return sample_random_state(dim, substream(config.seed, 0))
    if config.state_policy == "explicit":
        return config.amplitudes
    return None  # haar-per-trial


def _trial_inputs(config: ExperimentConfig, trial: int, fixed_vector):
    """Decomposition and state for one trial; order of draws is fixed."""
    rng = substream(config.seed, 1, trial)
    decomposition = sample_decomposition(config.dims, rng)
    vector = fixed_vector
    if vector is None:
        vector = sample_random_state(config.dim_total, rng)
    return decomposition, prepare_state(vector, config.spectrum)


@dataclass(eq=False)
class ExperimentReport:
    """Aggregated deviation statistics of an ensemble run."""

    config: ExperimentConfig
    max_gap_degeneracy: int
    max_sum_degeneracy: int
    cells: list[dict]
    overall: dict
    chain_violations: int
    samples: np.ndarray | None = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return self.chain_violations == 0 and all(
            c["mean_below_bound"] for c in self.cells
        )

    def to_dict(self, include_trials: bool = True) -> dict:
        out = {
            "dims": list(self.config.dims),
            "trials": self.config.trials,
            "seed": self.config.seed,
            "state_policy": self.config.state_policy,
            "D": self.config.dim_total,
            "D_E": self.config.spectrum.num_levels,
            "D_G": self.max_gap_degeneracy,
            "D_F": self.max_sum_degeneracy,
            "cells": self.cells,
            "overall": self.overall,
            "chain_violations": self.chain_violations,
            "pass": self.passed,
        }
        if include_trials and self.samples is not None:
            out["trial_totals"] = [
                [float(x) for x in row] for row in self.samples
            ]
        return out


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Sample decompositions, evaluate the deviation per cell, aggregate.

    Per-cell means are compared against the decomposition-average bound; a
    per-trial inequality chain (ergodicity gap below the total, resonant
    term below its sum-degeneracy bound) is audited with tiny slack.
    """
    spec = config.spectrum
    gaps = gap_structure(spec)
    sums = sum_structure(spec)
    d_f = sums.max_sum_degeneracy
    fixed_vector = _fixed_state_vector(config)

    m = len(config.dims)
    totals = np.empty((config.trials, m))
    chain_violations = 0
    for t in range(config.trials):
        decomposition, state = _trial_inputs(config, t, fixed_vector)
        for k, cell in enumerate(decomposition):
            b = deviation_exact(state, cell, gaps, sums)
            totals[t, k] = b.total
            if ergodicity_gap(state, cell) > b.total + CHAIN_SLACK:
                chain_violations += 1
            if b.resonant_term > resonant_term_bound(state, cell, d_f) + CHAIN_SLACK:
                chain_violations += 1

    cells = []
    for k, rank in enumerate(config.dims):
        col = totals[:, k]
        mean = float(col.mean())
        stderr = float(col.std(ddof=1) / math.sqrt(col.size)) if col.size > 1 else 0.0
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
    overall = {
        "mean": float(pooled.mean()),
        "stderr": float(pooled.std(ddof=1) / math.sqrt(pooled.size)) if pooled.size > 1 else 0.0,
        "max": float(pooled.max()),
        "min": float(pooled.min()),
    }
    return ExperimentReport(
        config=config,
        max_gap_degeneracy=gaps.max_gap_degeneracy,
        max_sum_degeneracy=d_f,
        cells=cells,
        overall=overall,
        chain_violations=chain_violations,
        samples=totals if config.retain_trials else None,
    )


def markov_check(report: ExperimentReport, threshold: float, sigma: float = 3.0) -> dict:
    """Audit the tail bound Prob[X >= B] <= mean(X)/B on the retained samples.

    Compares the empirical exceedance probability against the *stored*
    aggregate mean divided by B, within ``sigma`` combined standard errors.
    The inequality is distribution-free, so a failure beyond noise flags an
    inconsistent report rather than an unlucky draw.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if report.samples is None:
        raise ValueError("markov check needs retained per-trial values")
    samples = np.asarray(report.samples, dtype=float).ravel()
    n = samples.size
    prob = float((samples >= threshold).mean())
    mean = float(report.overall["mean"])
    se_prob = math.sqrt(max(prob * (1 - prob), 0.0) / n)
    se_mean = float(report.overall["stderr"]) / threshold
    slack = sigma * math.hypot(se_prob, se_mean)
    bound = mean / threshold
    return {
        "pass": prob <= bound + slack,
        "prob_exceed": prob,
        "markov_bound": bound,
        "slack": slack,
        "threshold": threshold,
    }


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial fraction."""
    if n < 1:
        raise ValueError("need at least one observation")
    p = successes / n
    denom = 1 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2))
    return (max(center - half, 0.0), min(center + half, 1.0))


@dataclass
class NormalityReport:
    """Fractions of sampled decompositions passing the two normality routes."""

    trials: int
    sufficient_count: int
    direct_count: int
    implication_violations: int
    sufficient_ci: tuple[float, float]
    direct_ci: tuple[float, float]

    @property
    def sufficient_fraction(self) -> float:
        return self.sufficient_count / self.trials

    @property
    def direct_fraction(self) -> float:
        return self.direct_count / self.trials

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "sufficient_fraction": self.sufficient_fraction,
            "sufficient_ci": list(self.sufficient_ci),
            "direct_fraction": self.direct_fraction,
            "direct_ci": list(self.direct_ci),
            "implication_violations": self.implication_violations,
        }


def normality_fraction(config: ExperimentConfig) -> NormalityReport:
    """Fraction of decompositions that are normal, by both available routes.

    The strong proxy asks the deviation of every cell to meet the
    sufficient-condition threshold; the direct route asks the one-period
    time fraction of simultaneous closeness to reach 1 - delta'.  Every
    trial passing the proxy must pass the direct route; violations are
    counted (and indicate a bug, not noise).
    """
    spec = config.spectrum
    gaps = gap_structure(spec)
    sums = sum_structure(spec)
    ispec, _ = integer_rescaled(spec)
    fixed_vector = _fixed_state_vector(config)
    p = config.params

    sufficient_count = 0
    direct_count = 0
    violations = 0
    for t in range(config.trials):
        decomposition, state = _trial_inputs(config, t, fixed_vector)
        ok_sufficient = all(
            sufficient_condition(
                deviation_exact(state, cell, gaps, sums).total,
                p, cell.rank, config.dim_total,
            )
            for cell in decomposition
        )
        istate = prepare_state(state.vector, ispec)
        fraction = time_fraction_normal(
            istate, decomposition, p.epsilon, config.grid_points
        )
        ok_direct = fraction >= 1 - p.delta_prime
        sufficient_count += ok_sufficient
        direct_count += ok_direct
        if ok_sufficient and not ok_direct:
            violations += 1

    return NormalityReport(
        trials=config.trials,
        sufficient_count=sufficient_count,
        direct_count=direct_count,
        implication_violations=violations,
        sufficient_ci=wilson_interval(sufficient_count, config.trials),
        direct_ci=wilson_interval(direct_count, config.trials),
    )


def dump_trials(report: ExperimentReport, path) -> None:
    """Columnar per-trial dump: trial, cell, deviation, threshold, flag."""
    if report.samples is None:
        raise ValueError("per-trial dump needs retained values")
    thresholds = [c["threshold"] for c in report.cells]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("trial\tcell\tdeviation\tthreshold\tsufficient\n")
        for t, row in enumerate(report.samples):
            for k, value in enumerate(row):
                fh.write(
                    f"{t}\t{k + 1}\t{float(value)!r}\t{float(thresholds[k])!r}\t"
                    f"{int(value <= thresholds[k])}\n"
                )
