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
trace(S) plus a quartic term; that grouping is reported beside the first.
It is an algebraic rearrangement of the same inputs, so it agrees up to
rounding and checks nothing: the kernel's one gate is that the total is
finite.

R is computed over gap buckets.  Let g range over the distinct gaps
E_b - E_a of ordered level pairs (a, b) and put

    G_g = sum_{E_b - E_a = g} S[a, b],    Q_g = sum_{E_b - E_a = g} |S[a, b]|^2.

Shell a evolves with phase exp(-i E_a tau), so the weight is
w(tau) = sum_g G_g exp(-i g tau).  Its time average keeps g = 0, which
only the diagonal pairs carry (levels are distinct): G_0 = trace(S).  The
time average of w^2 keeps the products with g + h = 0, and S is Hermitian,
so G_{-g} = conj(G_g), Q_{-g} = Q_g and

    time-average of w^2 = sum_g G_g G_{-g} = sum_g |G_g|^2,
    L = sum_g |G_g|^2 - 2 (d/D) trace(S) + (d/D)^2
      = (G_0 - d/D)^2 + 2 sum_{g>0} |G_g|^2.

Splitting each |G_g|^2 into its squared moduli Q_g and its cross terms
gives offdiag_sum = 2 sum_{g>0} Q_g and

    R = 2 sum_{g>0} ( |G_g|^2 - Q_g ),

the sum of S[a, b] conj(S[c, d]) over distinct pairs with
E_b - E_a = E_d - E_c.  That condition is E_a + E_d = E_b + E_c, and
conj(S[c, d]) = S[d, c]: these are exactly the sum-class cross terms
above.  A bucket holding one pair has G_g = S[a, b], and |G_g|^2 and Q_g
are the same float expression of it, so the bucket gives exactly 0.0: R
is exactly 0.0, not a rounding residue, when no nonzero gap repeats, the
non-resonant case, where every sum value is carried by at most a pair and
its swap.  Each
|G_g|^2 is real, so R is real by construction.

Every piece thus reads the buckets of the gaps g >= 0 alone, which
:func:`ergolab.dynamics.gap_buckets` takes from each overlap matrix in one
gather and two segmented sums over the spectrum's integer
:class:`~ergolab.spectrum.PairIndex`.  The same buckets give the weight at
every time, w(tau) = G_0 + 2 sum_{g>0} Re(G_g exp(-i g tau)): ``run``'s
normality audit evaluates it on its time grid
(:func:`ergolab.dynamics.normal_time_fractions`).

The kernel (:func:`deviation_breakdowns`) takes the buckets of a stack of
overlap matrices and returns a dict of every piece as an array over the
stack, which is how ``run`` and ``compute-l`` evaluate every cell (through
:func:`ergolab.montecarlo.evaluate_cells`); :func:`deviation_exact` is the
same kernel on one state and one cell, a (D, d) basis array.
Its finiteness check, like every gate here, is written so that NaN fails it.

Everything here is a plain float computation except the asymptotic-regime
condition checks, which run in arbitrary precision because they must
survive dimensions like 2**100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf

from .dynamics import exact_time_avg_weight, gap_buckets, shell_overlap_matrix
from .spectrum import Spectrum

__all__ = [
    "TheoremParams",
    "deviation_breakdowns",
    "deviation_exact",
    "resonant_term_bound",
    "sufficient_condition",
    "sufficient_threshold",
    "ergodicity_gap",
    "mean_deviation_bound",
    "theorem_condition",
    "resonance_impact",
    "admissible_constant_crossover",
    "find_admissible_constant",
]

DEFAULT_PRECISION_BITS = 256

# find_admissible_constant searches the geometric grid of ratio
# 1 + ADMISSIBLE_RESOLUTION.
ADMISSIBLE_RESOLUTION = 0.01


@dataclass
class TheoremParams:
    """Tolerances and ensemble parameters of the normality condition."""

    epsilon: float
    delta: float
    delta_prime: float
    num_cells: int
    constant: float = 2.0

    def __post_init__(self):
        # A refusal starts with the field's name, a run config key for which
        # check-theorem puts its flag, and ends with the refused value.
        for name, ok, rule in [
            ("epsilon", self.epsilon > 0, "must be positive"),
            ("delta", 0 < self.delta <= 1, "must lie in (0, 1]"),
            ("delta_prime", 0 < self.delta_prime <= 1, "must lie in (0, 1]"),
            ("num_cells", int(self.num_cells) >= 1, "must be at least 1"),
            ("constant", self.constant > 1, "must exceed 1"),
        ]:
            if not ok:
                raise ValueError(f"{name} {rule}, got {getattr(self, name)!r}")
        self.num_cells = int(self.num_cells)


def deviation_breakdowns(buckets: tuple[np.ndarray, np.ndarray], frac: float) -> dict:
    """The deviation functional of every cell in a stack, from its gap buckets.

    ``buckets`` is the pair (G, Q) of :func:`~ergolab.dynamics.gap_buckets`
    for the shell overlap matrices of cells of share ``frac`` = d/D.
    Returns the two regroupings of the same quantity,
    ``total = cell_fraction_sq + degeneracy_term + nonresonant_term + resonant_term``
    and ``total = offdiag_sum + diag_dev_sq + resonant_term``, plus
    ``time_avg_weight``, G_0 = trace(S), the exact time-averaged cell
    weight, of which ``diag_dev_sq`` is the ergodicity gap.  Every value
    except ``cell_fraction_sq`` is an array over the leading axes.  Raises
    ArithmeticError unless every total is finite.
    """
    sums, squares = buckets
    trace = sums[..., 0].real
    positive = sums[..., 1:]
    offdiag_sum = 2 * np.sum(squares[..., 1:], axis=-1)
    res = 2 * np.sum(positive.real**2 + positive.imag**2 - squares[..., 1:], axis=-1)
    diag_dev_sq = (trace - frac) ** 2
    total = offdiag_sum + diag_dev_sq + res
    if not np.all(np.isfinite(total)):
        raise ArithmeticError("deviation functional is not finite")

    return {
        "total": total,
        "cell_fraction_sq": frac**2,
        "degeneracy_term": -2.0 * frac * trace,
        "nonresonant_term": offdiag_sum + trace**2,
        "resonant_term": res,
        "offdiag_sum": offdiag_sum,
        "diag_dev_sq": diag_dev_sq,
        "time_avg_weight": trace,
    }


def deviation_exact(spec: Spectrum, vector: np.ndarray, cell: np.ndarray) -> dict:
    """The record of :func:`deviation_breakdowns`, in floats, for the state
    ``vector`` on ``spec`` and one cell, a (D, d) basis array."""
    buckets = gap_buckets(shell_overlap_matrix(spec, vector, cell), spec.pair_index)
    b = deviation_breakdowns(buckets, cell.shape[1] / spec.dim_total)
    return {name: float(value) for name, value in b.items()}


def resonant_term_bound(time_avg_weight: float, max_sum_degeneracy: int) -> float:
    """Upper bound on the resonant term from the worst sum degeneracy.

    Equals (max_sum_degeneracy - 2) times the squared time-averaged weight
    (the breakdown's ``time_avg_weight``, or
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


def ergodicity_gap(spec: Spectrum, vector: np.ndarray, cell: np.ndarray) -> float:
    """Squared deviation of the time-averaged weight from the cell's share.

    Never exceeds the deviation functional for the same state and cell
    (the time average of a square dominates the square of the average).
    """
    frac = cell.shape[1] / spec.dim_total
    return (exact_time_avg_weight(spec, vector, cell) - frac) ** 2


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


def theorem_condition(
    params: TheoremParams,
    rank: int,
    dim: int,
    max_sum_degeneracy: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    log_base: float = math.e,
) -> dict:
    """Evaluate the combined admissibility ordering in high precision.

    Checks max{C, (10 M^2 / (delta delta' eps^2)) [1 + (F-2) d^2 / (10 D log D)]}
    * log(D)/D  <  d/D  <  1/C, with F the maximal sum degeneracy.  Runs in
    arbitrary-precision arithmetic so dimensions like 2**100 never overflow.
    Its logarithms are to ``log_base``; at math.e they are exactly natural.
    Returns the ``condition`` record of ``check-theorem``: ``holds`` and the
    three sides ``lhs``, ``d_over_D`` and ``one_over_C`` as 12-digit strings.
    """
    with mp.workprec(int(precision_bits)):
        d = mpf(rank)
        dim_mp = mpf(dim)
        log_dim = mp.log(dim_mp)
        if log_base != math.e:
            log_dim /= mp.log(log_base)
        bracket = 1 + max(int(max_sum_degeneracy) - 2, 0) * d**2 / (10 * dim_mp * log_dim)
        stat = (
            10 * mpf(params.num_cells) ** 2
            / (mpf(params.delta) * mpf(params.delta_prime) * mpf(params.epsilon) ** 2)
        ) * bracket
        lhs = max(mpf(params.constant), stat) * log_dim / dim_mp
        mid = d / dim_mp
        hi = 1 / mpf(params.constant)
    return {
        "holds": bool(lhs < mid < hi),
        "lhs": mp.nstr(lhs, 12),
        "d_over_D": mp.nstr(mid, 12),
        "one_over_C": mp.nstr(hi, 12),
    }


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
    dim: int, rank: int, precision_bits: int = DEFAULT_PRECISION_BITS
):
    """Largest constant C > 1 admissible for the pair (rank, dim), or None.

    Searches the geometric grid (1 + ADMISSIBLE_RESOLUTION)**j from below
    the analytic crossover; ties resolve toward smaller C.
    """
    with mp.workprec(int(precision_bits)):
        crossover = admissible_constant_crossover(dim, rank, precision_bits)
        if crossover <= 1:
            return None
        step = mpf(1) + mpf(ADMISSIBLE_RESOLUTION)
        j = int(mp.floor(mp.log(crossover) / mp.log(step)))
        c = step**j
        while c >= crossover and j > 0:
            j -= 1
            c = step**j
        if c >= crossover or c <= 1:
            return None
        return c
