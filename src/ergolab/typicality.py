"""The long-time-averaged squared deviation of a cell weight from its share.

For a rank-d cell P of a D-dimensional space and a state resolved into
energy-shell components, write S[a, b] for the shell overlap matrix (the
component of shell a mapped through P onto the component of shell b).  The
deviation functional

    L = time-average of (||P psi(tau)||^2 - d/D)^2

collapses exactly to three pieces:

    L = sum_{a != b} |S[a, b]|^2  +  (trace(S) - d/D)^2  +  R,

where R collects the cross terms between distinct ordered level pairs that
share an energy-sum value, beyond the always-present pair and its swap.
The same quantity also splits as (d/D)^2 plus a degeneracy term linear in
trace(S) plus a quartic term; both groupings are computed and must agree.

R is computed over gap buckets.  Let g range over the distinct gaps
E_b - E_a of ordered level pairs (a, b) and put

    G_g = sum_{E_b - E_a = g} S[a, b].

Shell a evolves with phase exp(-i E_a tau), so the weight is
w(tau) = sum_g G_g exp(-i g tau).  Its time average keeps g = 0, which
only the diagonal pairs carry (levels are distinct): G_0 = trace(S).  The
time average of w^2 keeps the products with g + h = 0, and S is Hermitian,
so G_{-g} = conj(G_g) and

    time-average of w^2 = sum_g G_g G_{-g} = sum_g |G_g|^2,
    L = sum_g |G_g|^2 - 2 (d/D) trace(S) + (d/D)^2
      = (trace(S) - d/D)^2 + sum_{g != 0} |G_g|^2.

Splitting each |G_g|^2 into its squared moduli and its cross terms gives

    R = sum_{g != 0} ( |G_g|^2 - sum_{E_b - E_a = g} |S[a, b]|^2 ),

the sum of S[a, b] conj(S[c, d]) over distinct pairs with
E_b - E_a = E_d - E_c.  That condition is E_a + E_d = E_b + E_c, and
conj(S[c, d]) = S[d, c]: these are exactly the sum-class cross terms
above.  A bucket holding one pair contributes |S[a, b]|^2 - |S[a, b]|^2 = 0,
so only gaps carried by two or more pairs are summed.  Skipping the
singletons saves work, and it makes R exactly 0.0, not a rounding residue,
when no nonzero gap repeats: the non-resonant case, where every sum value
is carried by at most a pair and its swap.  Each |G_g|^2 is real, so R is
real by construction.  The buckets come from the spectrum's integer
:class:`~ergolab.spectrum.PairIndex`, so each cell costs one gather and one
segmented sum over D_E^2 entries instead of a loop over sum classes.

Everything here is a plain float computation except the asymptotic-regime
condition checks, which run in arbitrary precision because they must
survive dimensions like 2**100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf

from .dynamics import ShellState, exact_time_avg_weight, shell_overlap_matrix
from .randomness import Projection
from .spectrum import GapStructure, PairIndex, SumStructure

__all__ = [
    "DeviationBreakdown",
    "TheoremParams",
    "TheoremVerdict",
    "deviation_exact",
    "resonant_term",
    "resonant_term_bound",
    "sufficient_condition",
    "sufficient_threshold",
    "ergodicity_gap",
    "ergodicity_condition",
    "mean_deviation_bound",
    "theorem_condition",
    "resonance_impact",
    "admissible_constant_crossover",
    "find_admissible_constant",
]

IDENTITY_TOL = 1e-10
DEFAULT_PRECISION_BITS = 256


@dataclass
class DeviationBreakdown:
    """The deviation functional split into its exact constituents.

    Two regroupings of the same quantity are carried side by side:
    ``total = cell_fraction_sq + degeneracy_term + nonresonant_term + resonant_term``
    and ``total = offdiag_sum + diag_dev_sq + resonant_term``.
    ``time_avg_weight`` is trace(S), the exact time-averaged cell weight, so
    ``diag_dev_sq`` is the ergodicity gap; it is not part of :meth:`as_dict`.
    """

    total: float
    cell_fraction_sq: float
    degeneracy_term: float
    nonresonant_term: float
    resonant_term: float
    offdiag_sum: float
    diag_dev_sq: float
    time_avg_weight: float

    def identity_residuals(self) -> tuple[float, float]:
        r1 = abs(
            self.total
            - (self.cell_fraction_sq + self.degeneracy_term
               + self.nonresonant_term + self.resonant_term)
        )
        r2 = abs(self.total - (self.offdiag_sum + self.diag_dev_sq + self.resonant_term))
        return r1, r2

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "cell_fraction_sq": self.cell_fraction_sq,
            "degeneracy_term": self.degeneracy_term,
            "nonresonant_term": self.nonresonant_term,
            "resonant_term": self.resonant_term,
            "offdiag_sum": self.offdiag_sum,
            "diag_dev_sq": self.diag_dev_sq,
        }


@dataclass
class TheoremParams:
    """Tolerances and ensemble parameters of the normality condition."""

    epsilon: float
    delta: float
    delta_prime: float
    num_cells: int
    constant: float = 2.0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0 < self.delta <= 1:
            raise ValueError("delta must lie in (0, 1]")
        if not 0 < self.delta_prime <= 1:
            raise ValueError("delta_prime must lie in (0, 1]")
        if int(self.num_cells) < 1:
            raise ValueError("number of cells must be >= 1")
        self.num_cells = int(self.num_cells)
        if not self.constant > 1:
            raise ValueError("the ordering constant must exceed 1")


def _check_same_spec(state: ShellState, *structures):
    for s in structures:
        if s.spec != state.spec:
            raise ValueError("structure was built from a different spectrum")


def _resonant_sum(s: np.ndarray, index: PairIndex) -> float:
    """R = sum over shared nonzero gaps of |G_g|^2 minus the bucket's own
    |S[a, b]|^2 (see the module docstring)."""
    positions, starts = index.shared_gaps
    if positions.size == 0:
        return 0.0  # no gap recurs: every bucket is a singleton
    z = s.ravel()[positions]
    buckets = np.add.reduceat(z, starts)
    return float(
        np.sum(buckets.real**2 + buckets.imag**2) - np.sum(z.real**2 + z.imag**2)
    )


def resonant_term(state: ShellState, cell: Projection, sums: SumStructure) -> float:
    """The resonance-only part of the deviation functional."""
    _check_same_spec(state, sums)
    return _resonant_sum(shell_overlap_matrix(state, cell), state.spec.pair_index)


def deviation_exact(
    state: ShellState,
    cell: Projection,
    gaps: GapStructure,
    sums: SumStructure,
) -> DeviationBreakdown:
    """Exact evaluation of the deviation functional for one cell.

    ``gaps`` and ``sums`` must come from the same spectrum the state was
    prepared on; the gap structure is accepted (and validated) alongside
    the sum structure because the two decompositions of the result are
    tied to the same resonance bookkeeping.
    """
    _check_same_spec(state, gaps, sums)
    s = shell_overlap_matrix(state, cell)
    frac = cell.rank / state.spec.dim_total

    trace = float(s.diagonal().real.sum())
    offdiag_sum = float(np.sum(np.abs(s) ** 2) - np.sum(s.diagonal().real ** 2))
    diag_dev_sq = (trace - frac) ** 2
    res = _resonant_sum(s, state.spec.pair_index)

    breakdown = DeviationBreakdown(
        total=offdiag_sum + diag_dev_sq + res,
        cell_fraction_sq=frac**2,
        degeneracy_term=-2.0 * frac * trace,
        nonresonant_term=offdiag_sum + trace**2,
        resonant_term=res,
        offdiag_sum=offdiag_sum,
        diag_dev_sq=diag_dev_sq,
        time_avg_weight=trace,
    )
    r1, r2 = breakdown.identity_residuals()
    if max(r1, r2) > IDENTITY_TOL:
        raise ArithmeticError(
            f"deviation regroupings disagree: residuals {r1}, {r2}"
        )
    return breakdown


def resonant_term_bound(time_avg_weight: float, max_sum_degeneracy: int) -> float:
    """Upper bound on the resonant term from the worst sum degeneracy.

    Equals (max_sum_degeneracy - 2) times the squared time-averaged weight
    (``DeviationBreakdown.time_avg_weight``, or
    :func:`~ergolab.dynamics.exact_time_avg_weight`); clamped at zero so the
    guarantee also covers single-level spectra, whose resonant term is
    identically zero.
    """
    return max(int(max_sum_degeneracy) - 2, 0) * time_avg_weight * time_avg_weight


def sufficient_threshold(params: TheoremParams, rank: int, dim: int) -> float:
    """The sufficient-condition threshold delta' * (epsilon/M)^2 * (d/D)."""
    return params.delta_prime * (params.epsilon / params.num_cells) ** 2 * (rank / dim)


def sufficient_condition(
    total: float, params: TheoremParams, rank: int, dim: int
) -> bool:
    """Whether the deviation is small enough to force near-constant weights.

    Meeting :func:`sufficient_threshold` (inclusively) guarantees the
    normality time fraction is at least 1 - delta'.
    """
    return total <= sufficient_threshold(params, rank, dim)


def ergodicity_gap(state: ShellState, cell: Projection) -> float:
    """Squared deviation of the time-averaged weight from the cell's share.

    Never exceeds the deviation functional for the same state and cell
    (the time average of a square dominates the square of the average).
    """
    frac = cell.rank / state.spec.dim_total
    return (exact_time_avg_weight(state, cell) - frac) ** 2


def ergodicity_condition(
    gap: float, params: TheoremParams, rank: int, dim: int
) -> bool:
    """Threshold form of relative ergodicity: gap <= (epsilon/M)^2 (d/D)."""
    return gap <= (params.epsilon / params.num_cells) ** 2 * (rank / dim)


def mean_deviation_bound(
    dim: int, rank: int, max_sum_degeneracy: int, log_base: float = math.e
) -> float:
    """Bound on the decomposition-averaged deviation functional.

    10 log(D)/D plus a resonance correction (max_sum_degeneracy - 2)(d/D)^2.
    Natural log by default; the base is configurable so the base-10 reading
    can be probed.
    """
    log_dim = math.log(dim) / math.log(log_base)
    correction = max(int(max_sum_degeneracy) - 2, 0) * (rank / dim) ** 2
    return 10 * log_dim / dim + correction


@dataclass
class TheoremVerdict:
    """Evaluated ordering condition: holds iff lhs < mid < hi."""

    holds: bool
    lhs: mpf
    mid: mpf
    hi: mpf

    def as_dict(self) -> dict:
        return {
            "holds": self.holds,
            "lhs": mp.nstr(self.lhs, 12),
            "d_over_D": mp.nstr(self.mid, 12),
            "one_over_C": mp.nstr(self.hi, 12),
        }


def _mp_log(x, log_base) -> mpf:
    if log_base in ("e", math.e, None):
        return mp.log(x)
    return mp.log(x) / mp.log(log_base)


def theorem_condition(
    params: TheoremParams,
    rank: int,
    dim: int,
    max_sum_degeneracy: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    log_base="e",
) -> TheoremVerdict:
    """Evaluate the combined admissibility ordering in high precision.

    Checks max{C, (10 M^2 / (delta delta' eps^2)) [1 + (F-2) d^2 / (10 D log D)]}
    * log(D)/D  <  d/D  <  1/C, with F the maximal sum degeneracy.  Runs in
    arbitrary-precision arithmetic so dimensions like 2**100 never overflow.
    """
    with mp.workprec(int(precision_bits)):
        d = mpf(rank)
        dim_mp = mpf(dim)
        log_dim = _mp_log(dim_mp, log_base)
        bracket = 1 + max(int(max_sum_degeneracy) - 2, 0) * d**2 / (10 * dim_mp * log_dim)
        stat = (
            10 * mpf(params.num_cells) ** 2
            / (mpf(params.delta) * mpf(params.delta_prime) * mpf(params.epsilon) ** 2)
        ) * bracket
        lhs = max(mpf(params.constant), stat) * log_dim / dim_mp
        mid = d / dim_mp
        hi = 1 / mpf(params.constant)
        return TheoremVerdict(holds=bool(lhs < mid < hi), lhs=lhs, mid=mid, hi=hi)


def resonance_impact(
    dim: int,
    num_cells: int,
    max_sum_degeneracy: int,
    margin: float = 10.0,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> dict:
    """Whether resonance is negligible against the cell-count budget.

    Implements "much smaller than (10 log(D)/D) M^2" as a strict inequality
    with a configurable margin factor on the left-hand side.
    """
    with mp.workprec(int(precision_bits)):
        rhs = 10 * mp.log(mpf(dim)) / mpf(dim) * mpf(num_cells) ** 2
        lhs = mpf(max_sum_degeneracy) * mpf(margin)
        return {
            "small": bool(lhs < rhs),
            "sum_degeneracy": int(max_sum_degeneracy),
            "margin": float(margin),
            "threshold": mp.nstr(rhs / margin, 12),
        }


def admissible_constant_crossover(
    dim: int, rank: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> mpf:
    """Supremum of constants compatible with the dimension ordering.

    The ordering C log(D)/D < d/D < 1/C caps C at min(d/log D, D/d); the
    two residual power conditions it implies (1/C^2 and 9/C^3) are strictly
    weaker, so this is the exact crossover.
    """
    with mp.workprec(int(precision_bits)):
        return min(mpf(rank) / mp.log(mpf(dim)), mpf(dim) / mpf(rank))


def find_admissible_constant(
    dim: int,
    rank: int,
    block_stats: dict | None = None,
    resolution: float = 0.01,
    precision_bits: int = DEFAULT_PRECISION_BITS,
):
    """Largest constant C > 1 admissible for the pair (rank, dim), or None.

    Searches the geometric grid (1 + resolution)**j from below the analytic
    crossover; ties resolve toward smaller C.  When ``block_stats`` (from
    :func:`ergolab.randomness.unitary_block_statistics`) is supplied, the
    empirical worst-overlap means must additionally sit below their
    log(D)/D and 9 d log(D)/D^2 thresholds, otherwise no C is admissible.
    """
    with mp.workprec(int(precision_bits)):
        crossover = admissible_constant_crossover(dim, rank, precision_bits)
        if crossover <= 1:
            return None
        if block_stats is not None:
            off = block_stats["max_offdiag"]
            diag = block_stats["max_diag_dev"]
            if off["estimate"] > off["threshold"] or diag["estimate"] > diag["threshold"]:
                return None
        step = mpf(1) + mpf(resolution)
        j = int(mp.floor(mp.log(crossover) / mp.log(step)))
        c = step**j
        while c >= crossover and j > 0:
            j -= 1
            c = step**j
        if c >= crossover or c <= 1:
            return None
        return c
