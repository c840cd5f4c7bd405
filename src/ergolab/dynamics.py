"""Shell-resolved states, exact phase evolution, and long-time averages.

The energy eigenbasis is the coordinate basis: level alpha occupies a
contiguous block of e_alpha coordinates, so evolution is a diagonal phase
multiplication and measurement bases are rotated instead of the state.
A cell is a plain (D, d) array of orthonormal basis columns and a
decomposition a list of cells, as :func:`ergolab.randomness.sample_decomposition`
draws them; the kernels see only columns of one basis, never a projector.

Every kernel takes a state and a basis as the *shell coordinates*
X[a, j] = <u_j|Pi_a psi>, the component of shell a along basis vector j, a
D_E x c array (:func:`shell_coordinates`).  Shell a evolves with the one
phase exp(-i E_a tau), so the coordinate of the evolved state along u_j is
sum_a exp(-i E_a tau) X[a, j]: the time-grid kernels take one phase per
level, and everything the cells' weights depend on is read through X.
Every kernel also accepts stacks of these arrays on leading axes, which is
how an ensemble evaluates a block of trials at once; the single-state
functions are the same code on an array without a leading axis.

Time runs on the integer view of the spectrum: the levels rescaled by the
least common multiple of their denominators, which the spectrum's
:class:`~ergolab.spectrum.PairIndex` keeps (``integer_levels``, ``scale``).
The rescaling leaves all gap and sum collision structure, and hence every
time average, unchanged, and every grid route below reads those integers,
so a rational spectrum takes the same routes as an integer one.  On them
every trajectory observable used here is a trigonometric polynomial with
integer frequencies, which turns the infinite-time average into an exact
finite sum: averaging over tau_j = 2*pi*j/N with N = max_frequency + 1
(:func:`exact_grid_points`) annihilates every nonzero frequency of
magnitude <= max_frequency, none of which is a multiple of N; no smaller N
does (Trefethen & Weideman, 2014).
The grid index j is the only time coordinate of the averages: observables
of :func:`discrete_time_average` take slices of GRID_SLICE indices, so
time-grid kernels bound their arrays however long the grid, while the
average holds one row of values per index.

On that grid every phase is an N-th root of unity,
exp(-i f tau_j) = exp(-2*pi*i (f*j mod N)/N) for an integer frequency f,
and :class:`GridPhases` is the one route to it: f is reduced mod N on the
exact integers, and the phase at index j is the product of the exact roots
at f*(j - j mod PHASE_STEP) and at f*(j mod PHASE_STEP).  So a phase is
within a few ulp of the exact root at f = 10^400 as at f = 1, its bits
depend on f mod N and j alone, and no table of N roots is built.  The
oracle reads the levels' phases (:func:`grid_phases`), the trajectory dump
those of the levels times --periods, the normality audit those of the
positive gaps (:func:`gap_phases`).

``run``'s normality audit evolves no coordinates.  :func:`gap_buckets`
gathers each cell's shell overlap matrix once into its gap buckets, the
sums G_g of the entries of gap g >= 0 and the sums Q_g of their squared
moduli.  The deviation functional reads both (:mod:`ergolab.typicality`);
the audit reads G_g alone, as the gap polynomial
w(tau) = G_0 + 2 sum_{g>0} Re(G_g exp(-i g tau)) of the cell weight, so
:func:`normal_time_fractions` needs the phases of the n positive gaps
only.  It walks the grid a slice and one cell at a time, a real
(trials, 2n) x (2n, times) product per cell and slice (each complex phase
read as its real and imaginary parts), and a slice's times
are bounded (SLICE_BYTES), so its arrays do not grow with the grid.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .spectrum import PairIndex, Spectrum

__all__ = [
    "shell_offsets",
    "prepare_state",
    "shell_coordinates",
    "overlap_matrices",
    "gap_buckets",
    "shell_overlap_matrix",
    "exact_time_avg_weight",
    "discrete_time_average",
    "exact_grid_points",
    "deviation_grid_points",
    "GridPhases",
    "grid_phases",
    "gap_phases",
    "evolved_weights",
    "weight_polynomials",
    "polynomial_weights",
    "normal_time_fractions",
    "time_fraction_normal",
]

STATE_NORM_TOL = 1e-10

# Grid indices per observable call of discrete_time_average, and times per
# slice of the trajectory dump and of normal_time_fractions.  compute-l on
# levels 125k/2 (k < 40, D = 80; one pass over a 9 751-point grid for 4
# cells), in-process on a 2-core x86-64 VM at one BLAS thread, median of
# four sweeps of 25 runs: slices of 32, 128 and 1024 took 24, 16 and 23 ms
# at tracemalloc peaks of 926, 929 and 2612 KiB.
GRID_SLICE = 128

# Bytes of normal_time_fractions' arrays per time of a grid slice: a float
# deviation and two booleans per trial, and per positive gap the complex
# phases formed for the whole PHASE_STEP blocks the slice touches, at most
# 2.5 per time since a slice holds at least GRID_SLICE times.  A slice holds GRID_SLICE times, or more while its
# arrays stay within SLICE_BYTES: a block of few trials, such as one trial
# of D = 256, then walks its grid in few slices.
INSTANT_BYTES = 10
GAP_PHASE_BYTES = 48
SLICE_BYTES = 1 << 18

# Grid indices per step of GridPhases, a constant of its own so that no
# slice length reaches a phase's bits.  Its small-step roots take
# 16*PHASE_STEP bytes per frequency.  Any step is within a few ulp of the
# exact roots; at 96, unlike 64 or 128, the benchmark's compute-l reports
# at seeds 1 and 2 keep the bytes of the earlier table of roots.
PHASE_STEP = 96

# Largest grid of GridPhases.  A grid index and a residue are both below N,
# so their int64 product stays below N^2 <= 2^63 - 1 exactly when N is at
# most isqrt(2^63 - 1) = 3 037 000 499.
MAX_PHASE_GRID = math.isqrt(2**63 - 1)

# (-i)^k for k = 0..4: the quarter turns of a root of unity.
_QUARTER_TURNS = np.array([1, -1j, -1, 1j, 1])


def shell_offsets(spec: Spectrum) -> np.ndarray:
    """Level alpha occupies coordinates offsets[alpha]:offsets[alpha + 1]."""
    return np.concatenate([[0], np.cumsum(spec.degeneracies)])


def prepare_state(amplitudes, spec: Spectrum) -> np.ndarray:
    """The amplitudes as a unit complex vector of length D; their norm must
    be 1 within STATE_NORM_TOL."""
    vector = np.asarray(amplitudes, dtype=complex)
    if vector.shape != (spec.dim_total,):
        raise ValueError(
            f"state must have length {spec.dim_total}, got shape {vector.shape}"
        )
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        norm = np.linalg.norm(vector)
    if not abs(norm - 1.0) <= STATE_NORM_TOL:  # also rejects NaN
        raise ValueError(f"state norm {norm} is not 1 within {STATE_NORM_TOL}")
    return vector / norm


def shell_coordinates(bases: np.ndarray, vectors: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The input of every kernel below: X[..., a, j] = <u_j|Pi_a psi>.

    ``bases`` is (..., D, c), any c columns of a basis; ``vectors`` is
    (..., D), states in the coordinate basis whose level a occupies
    ``offsets[a]:offsets[a + 1]``.  Returns (..., D_E, c).
    """
    return np.add.reduceat(bases.conj() * vectors[..., :, None], offsets[:-1], axis=-2)


def overlap_matrices(coords: np.ndarray) -> np.ndarray:
    """S[a, b] = sum_j conj(coords[a, j]) coords[b, j], on the last two axes."""
    return coords.conj() @ np.swapaxes(coords, -1, -2)


def gap_buckets(overlaps: np.ndarray, index: PairIndex) -> tuple[np.ndarray, np.ndarray]:
    """The gap buckets of a stack of shell overlap matrices: the one gather
    that the deviation functional and the normality audit both read.

    ``overlaps`` is (..., D_E, D_E), from :func:`overlap_matrices`, on the
    spectrum whose pair index is ``index``.  The entries S[a, b] of the
    pairs of gap g = E_b - E_a >= 0 (:attr:`PairIndex.gap_groups`) are
    taken once, and two segmented sums give, per gap, ascending from g = 0,
    G_g = sum S[a, b] (complex) and Q_g = sum |S[a, b]|^2 (real); each is
    (..., n + 1) for the n positive gaps.
    """
    positions, starts = index.gap_groups
    # np.take keeps the gathered pairs contiguous per matrix, so the sums
    # run in the same order for a stack as for one matrix.
    pairs = np.take(overlaps.reshape(*overlaps.shape[:-2], -1), positions, axis=-1)
    return (np.add.reduceat(pairs, starts, axis=-1),
            np.add.reduceat(pairs.real**2 + pairs.imag**2, starts, axis=-1))


def shell_overlap_matrix(spec: Spectrum, vector: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """Hermitian matrix of shell-component overlaps through the cell.

    Entry (a, b) is the inner product of shell components a and b mediated
    by the cell projector.  Built from the d basis columns restricted to
    each shell block, so the full projector is never formed.
    """
    return overlap_matrices(shell_coordinates(cell, vector, shell_offsets(spec)))


def exact_time_avg_weight(spec: Spectrum, vector: np.ndarray, cell: np.ndarray) -> float:
    """Infinite-time average of the cell weight, exactly.

    Only the diagonal (equal-energy) terms of the weight survive time
    averaging, so the result is the sum over shells of each component's
    weight in the cell.
    """
    return float(np.sum(np.abs(shell_coordinates(cell, vector, shell_offsets(spec))) ** 2))


def discrete_time_average(
    observable: Callable[[np.ndarray], np.ndarray], spec: Spectrum, max_frequency: int
) -> float | np.ndarray:
    """Exact long-time average of a trigonometric polynomial of the trajectory.

    Valid for observables whose integer frequencies, on the spectrum's
    integer levels, are bounded by ``max_frequency`` (cell weights: the
    spectral spread; squared deviations: twice the spread), on the
    n = :func:`exact_grid_points` grid.  ``spec`` is not read: it stays in
    the positional signature that perfbench's oracle count hook receives.
    ``observable`` maps each slice ``np.arange(j, min(j + GRID_SLICE, n))``
    of grid indices, index j standing for tau_j = 2*pi*j/n, to its values,
    times on the first axis.  Each trailing entry is averaged over the n
    times with one exactly rounded ``math.fsum``: a 1-D observable gives a
    float, a (times, k) one an array of k means.  All n values are held.
    """
    n = exact_grid_points(max_frequency)
    first = np.asarray(observable(np.arange(min(GRID_SLICE, n))))
    values = np.empty((n,) + first.shape[1:])  # filled in place: no second copy
    values[:GRID_SLICE] = first
    for j in range(GRID_SLICE, n, GRID_SLICE):
        values[j:j + GRID_SLICE] = observable(np.arange(j, min(j + GRID_SLICE, n)))
    means = [math.fsum(column.tolist()) / n for column in values.reshape(n, -1).T]
    return means[0] if values.ndim == 1 else np.reshape(means, values.shape[1:])


def exact_grid_points(max_frequency: int) -> int:
    """The least N whose N-point period grid averages every integer frequency
    up to ``max_frequency`` exactly: N = max_frequency + 1 divides none."""
    return int(max_frequency) + 1


def deviation_grid_points(spec: Spectrum) -> int:
    """The least exact grid for squared cell-weight deviations (w - d/D)^2,
    whose frequencies reach twice the spread of the spectrum's integer
    levels: compute-l's oracle grid and the floor of ``run``'s normality
    grid."""
    levels = spec.pair_index.integer_levels
    return exact_grid_points(2 * (levels[-1] - levels[0]))


class GridPhases:
    """The phases exp(-2*pi*i*(f*j mod N)/N) of exact integer frequencies
    f, Python or NumPy integers of any size, on the N-point period grid:
    the one route described in the module docstring.  ``frequencies``
    holds each f mod N; ``steps``, the roots at f*l for l < PHASE_STEP,
    is formed on first use and kept."""

    def __init__(self, frequencies, grid_points: int):
        n = int(grid_points)
        if not 1 <= n <= MAX_PHASE_GRID:
            raise ValueError(f"a phase grid has 1 to {MAX_PHASE_GRID} points, got {n}")
        self.grid_points = n
        self.frequencies = np.array([int(f) % n for f in frequencies], dtype=np.int64)

    @functools.cached_property
    def steps(self) -> np.ndarray:
        n = self.grid_points
        steps = _roots_of_unity(np.multiply.outer(np.arange(PHASE_STEP), self.frequencies) % n, n)
        steps.flags.writeable = False
        return steps

    def at(self, start: int, stop: int) -> np.ndarray:
        """The phases of grid indices start <= j < stop; (stop - start, F)."""
        n, first = self.grid_points, start - start % PHASE_STEP
        blocks = np.arange(first, stop, PHASE_STEP)
        coarse = _roots_of_unity(np.multiply.outer(blocks, self.frequencies) % n, n)
        phases = coarse[:, None] * self.steps
        phases = phases.reshape(blocks.size * PHASE_STEP, self.frequencies.size)
        return phases[start - first:stop - first]


def grid_phases(spec: Spectrum, grid_points: int, periods: int = 1) -> GridPhases:
    """The phases of the spectrum's integer levels times ``periods`` P, so
    that index j reads the level phases at grid time P*j mod N.  The
    products are Python integers, exact at any size."""
    return GridPhases([k * periods for k in spec.pair_index.integer_levels], grid_points)


def gap_phases(index: PairIndex, grid_points: int) -> GridPhases:
    """The phases of the positive gaps of ``index``, ascending: the
    frequencies of :func:`weight_polynomials`."""
    return GridPhases(index.gap_values[index.gap_values.size // 2 + 1:].tolist(), grid_points)


def _roots_of_unity(m: np.ndarray, n: int) -> np.ndarray:
    """exp(-2*pi*i*m/n) for int64 exponents 0 <= m < n.  The angle is split
    into k quarter turns, whose phase (-i)^k is exact, and a rest of at
    most pi/4, so each root is within about an ulp of the exact one (float
    angles up to 2*pi were off by up to 1.2e-15)."""
    k = (8 * m + n) // (2 * n)  # the nearest quarter turn, 0..4
    rest = (math.pi / 2) * ((4 * m - k * n) / n)
    return np.exp(-1j * rest) * _QUARTER_TURNS[k]


def evolved_weights(phases: np.ndarray, coords: np.ndarray, ranks) -> np.ndarray:
    """Weights of consecutive column blocks of the given ranks along a
    time grid whose phase rows (one phase per level) are ``phases``, from
    the shell coordinates ``coords``; shape (..., times, cells).

    The squared real and imaginary parts are formed in place, and each
    cell's share is summed by a product with its 0/1 membership column.
    """
    evolved = phases @ coords
    parts = evolved.view(np.float64)  # real and imaginary parts, interleaved
    np.square(parts, out=parts)
    return parts @ _membership(tuple(int(d) for d in ranks))


@functools.lru_cache(maxsize=64)
def _membership(ranks: tuple[int, ...]) -> np.ndarray:
    """The read-only 0/1 matrix whose column k sums the interleaved real and
    imaginary parts of cell k, built once per rank tuple: compute-l's oracle
    asks for the same one at every slice of its grid."""
    membership = np.repeat(np.eye(len(ranks)), 2 * np.asarray(ranks), axis=0)
    membership.flags.writeable = False
    return membership


def weight_polynomials(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cell weight as its gap polynomial
    w(tau) = G_0 + 2 sum_{g > 0} Re(G_g exp(-i g tau)), from the bucket
    sums G_g (..., n + 1) of :func:`gap_buckets`.  Returns G_0 (...,) and
    the real coefficients (..., 2 n) of the n positive gaps, ascending:
    2 Re G_g, -2 Im G_g for each, which :func:`polynomial_weights` pairs
    with the real and imaginary parts of the gap's phase.
    """
    return sums[..., 0].real, (2 * sums[..., 1:].conj()).view(np.float64)


def polynomial_weights(polynomial: tuple[np.ndarray, np.ndarray], phases: np.ndarray) -> np.ndarray:
    """The weights (..., times) of :func:`weight_polynomials` at the grid
    times of a slice of gap phases (times, n) (:meth:`GridPhases.at`):
    G_0 plus one real product."""
    constant, coefficients = polynomial
    weights = coefficients @ phases.view(np.float64).T
    weights += constant[..., None]
    return weights


def normal_time_fractions(sums, ranks, epsilon: float, phases: GridPhases) -> np.ndarray:
    """Fraction of the grid times at which every cell weight is near its share.

    ``sums`` lists each cell's bucket sums G_g (:func:`gap_buckets`), one
    array or a stack, for consecutive column blocks of the given ranks of
    complete bases, so the ranks sum to D; ``phases`` are the gap phases
    (:func:`gap_phases`) of the spectrum's pair index.  Each weight is
    evaluated from its gap polynomial (:func:`weight_polynomials`), one
    cell and one slice of grid times at a time (GRID_SLICE times, or more
    within SLICE_BYTES), and the closeness of every cell is ANDed into one
    boolean per trial and time of the slice.  One fraction per leading
    index.
    """
    ranks = np.asarray(ranks)
    fracs = ranks / ranks.sum()
    tol = (epsilon / math.sqrt(ranks.size)) * np.sqrt(fracs)
    polynomials = [weight_polynomials(g) for g in sums]
    inside = np.zeros(np.shape(sums[0])[:-1], dtype=np.int64)
    n = phases.grid_points
    gaps = phases.frequencies.size
    times = max(GRID_SLICE, SLICE_BYTES // (INSTANT_BYTES * inside.size + GAP_PHASE_BYTES * gaps))
    for start in range(0, n, times):
        roots = phases.at(start, min(start + times, n))
        near = np.ones((*inside.shape, len(roots)), dtype=bool)
        for polynomial, frac, bound in zip(polynomials, fracs, tol):
            deviations = polynomial_weights(polynomial, roots)
            deviations -= frac
            np.abs(deviations, out=deviations)
            near &= deviations <= bound
        inside += np.count_nonzero(near, axis=-1)
    return inside / n


def time_fraction_normal(
    spec: Spectrum,
    vector: np.ndarray,
    decomposition: list[np.ndarray],
    epsilon: float,
    grid_points: int = 1000,
) -> float:
    """Fraction of one period during which every cell weight is near its share.

    ``decomposition`` lists the cells as (D, d) basis arrays that together
    form a complete basis.

    At each sampled time the weight of cell ``nu`` must satisfy
    ``|w_nu - d_nu/D| <= (epsilon/sqrt(M)) * sqrt(d_nu/D)`` simultaneously
    for all cells.  Time runs on the spectrum's integer levels, whose
    trajectory has period 2*pi, so the long-run fraction equals the
    one-period fraction.  It is :func:`normal_time_fractions` on one state,
    as ``run`` evaluates a block of trials.
    """
    offsets = shell_offsets(spec)
    index = spec.pair_index
    sums = [gap_buckets(overlap_matrices(shell_coordinates(cell, vector, offsets)), index)[0]
            for cell in decomposition]
    ranks = [cell.shape[1] for cell in decomposition]
    return float(normal_time_fractions(sums, ranks, epsilon, gap_phases(index, grid_points)))
