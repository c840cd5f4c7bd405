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

For integer spectra every trajectory observable used here is a
trigonometric polynomial with integer frequencies, which turns the
infinite-time average into an exact finite sum: averaging over
tau_j = 2*pi*j/N with N = max_frequency + 1 (:func:`exact_grid_points`)
annihilates every nonzero frequency of magnitude <= max_frequency, none of
which is a multiple of N; no smaller N does (Trefethen & Weideman, 2014).
Rational spectra are rescaled to integers first; the rescaling leaves all
gap and sum collision structure, and hence every time average, unchanged.
The grid index j is the only time coordinate of the averages: observables
of :func:`discrete_time_average` take slices of GRID_SLICE indices, so
time-grid kernels bound their arrays however long the grid, while the
average holds one row of values per index.

On that grid every evolution phase is an N-th root of unity,
exp(-i E tau_j) = exp(-2*pi*i (E*j mod N)/N).  :func:`grid_phases` forms
the phases that way: the residues E mod N are taken on the exact integers
and the N roots are tabulated once, so a phase is as accurate at E = 10^17
as at E = 1, and a common energy offset stays an exact global phase.
compute-l's oracle gathers its phases from the table; its trajectory dump,
which reads each grid time once, forms its roots without the table.

``run``'s normality audit evolves no coordinates.  The weight of a cell is
the gap polynomial w(tau) = G_0 + 2 sum_{g>0} Re(G_g exp(-i g tau)) over
the buckets G_g of its shell overlap matrix (see :mod:`ergolab.typicality`),
so :func:`normal_time_fractions` needs the phases of the n positive gaps
only: each gap is reduced mod N on the exact integers, and the phase at
index j0 + l is the product of the exact roots at j0 and at l, l within a
slice, so within a few ulp of the exact root.  It walks the grid a slice
and one cell at a time, a real (trials, 2n) x (2n, times) product per cell
and slice, and a slice's times are bounded (SLICE_BYTES), so its arrays do
not grow with the grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spectrum import PairIndex, Spectrum

__all__ = [
    "shell_offsets",
    "prepare_state",
    "unit_rows",
    "shell_coordinates",
    "overlap_matrices",
    "shell_overlap_matrix",
    "exact_time_avg_weight",
    "discrete_time_average",
    "exact_grid_points",
    "deviation_grid_points",
    "integer_rescaled",
    "GridPhases",
    "grid_phases",
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
# deviation and two booleans per trial, and per positive gap three complex
# or paired real phases.  A slice holds GRID_SLICE times, or more while its
# arrays stay within SLICE_BYTES: a block of few trials, such as one trial
# of D = 256, then walks its grid in few slices.
INSTANT_BYTES = 10
GAP_PHASE_BYTES = 48
SLICE_BYTES = 1 << 18

# Largest grid of grid_phases.  A grid index and a residue are both below N,
# so their int64 product stays below N^2 <= 2^63 - 1 exactly when N is at
# most isqrt(2^63 - 1) = 3 037 000 499.
MAX_PHASE_GRID = math.isqrt(2**63 - 1)

# (-i)^k for k = 0..4: the quarter turns of a root of unity.
_QUARTER_TURNS = np.array([1, -1j, -1, 1j, 1])


def shell_offsets(spec: Spectrum) -> np.ndarray:
    """Level alpha occupies coordinates offsets[alpha]:offsets[alpha + 1]."""
    return np.concatenate([[0], np.cumsum(spec.degeneracies)])


def _check_unit_norms(norms) -> None:
    bad = ~(np.abs(norms - 1.0) <= STATE_NORM_TOL)  # also rejects NaN
    if bad.any():
        norm = np.asarray(norms)[bad].flat[0]
        raise ValueError(f"state norm {norm} is not 1 within {STATE_NORM_TOL}")


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
    _check_unit_norms(norm)
    return vector / norm


def unit_rows(vectors: np.ndarray) -> np.ndarray:
    """State vectors stacked as rows, each divided by its norm; every norm
    must be 1 within the tolerance of :func:`prepare_state`."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(vectors, axis=-1, keepdims=True)
    _check_unit_norms(norms)
    return vectors / norms


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

    Valid for integer spectra and observables whose integer frequencies are
    bounded by ``max_frequency`` (cell weights: the spectral spread; squared
    deviations: twice the spread), on the n = :func:`exact_grid_points` grid.
    ``observable`` maps each slice ``np.arange(j, min(j + GRID_SLICE, n))``
    of grid indices, index j standing for tau_j = 2*pi*j/n, to its values,
    times on the first axis.  Each trailing entry is averaged over the n
    times with one exactly rounded ``math.fsum``: a 1-D observable gives a
    float, a (times, k) one an array of k means.  All n values are held.
    """
    if not spec.is_integer:
        raise ValueError(
            "discrete time averaging is exact only for integer spectra; "
            "rescale rational spectra first"
        )
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
    whose frequencies reach twice the spread of the integer-rescaled levels:
    compute-l's oracle grid and the floor of ``run``'s normality grid."""
    return exact_grid_points(2 * int(integer_rescaled(spec)[0].spread))


def integer_rescaled(spec: Spectrum) -> tuple[Spectrum, int]:
    """Scale a rational spectrum to integers by the least common denominator.

    Returns the scaled spectrum and the multiplier.  Scaling leaves the gap
    and sum collision structure (hence every long-time average) unchanged.
    """
    if spec.is_integer:
        return spec, 1
    mult = math.lcm(*(e.denominator for e in spec.energies))
    levels = tuple((e * mult, d) for e, d in spec.levels)
    return Spectrum(levels, approximate=spec.approximate), mult


@dataclass(frozen=True, eq=False)
class GridPhases:
    """Evolution phases on the N-point period grid of an integer spectrum.

    ``residues`` holds each level's energy mod N, so the phase of level a
    at tau_j is the root exp(-2*pi*i*m/N) of exponent m = (j * residues[a])
    mod N.  ``roots``, the table of all N roots, is built when a row is
    first gathered.
    """

    grid_points: int
    residues: np.ndarray

    @functools.cached_property
    def roots(self) -> np.ndarray:
        return _roots_of_unity(np.arange(self.grid_points, dtype=np.int64), self.grid_points)

    def exponents(self, indices) -> np.ndarray:
        """The root exponents of the grid indices j; shape (len(j), D_E)."""
        j = np.asarray(indices, dtype=np.int64)
        return np.multiply.outer(j, self.residues) % self.grid_points

    def rows(self, indices) -> np.ndarray:
        """Phase rows of the grid indices j, gathered from the table."""
        return self.roots[self.exponents(indices)]

    def gap_slices(self, index: PairIndex, times: int):
        """The phases exp(-i g tau_j) of the positive gaps g of ``index``,
        ascending, along the whole grid, as real (2 n, times) rows per slice
        of ``times`` consecutive indices j (the last slice shorter): the real
        parts for each g, then the imaginary parts.  Each gap is reduced mod
        N in Python integers, whether the index holds int64 gaps or, past
        int64, Python ones.  The phase at j0 + l is the product of the exact
        roots at j0 and at l, the roots at l < ``times`` formed once, so a
        phase is within a few ulp of the exact one and no table of N roots
        is built."""
        n = self.grid_points
        positive = index.gap_values[index.gap_values.size // 2 + 1:]
        gaps = np.array([g % n for g in positive.tolist()], dtype=np.int64)
        first = _roots_of_unity(np.multiply.outer(gaps, np.arange(min(times, n))) % n, n)
        for j in range(0, n, times):
            roots = first[:, :n - j] * _roots_of_unity(gaps * j % n, n)[:, None]
            yield np.concatenate([roots.real, roots.imag])

    def formed(self, indices) -> np.ndarray:
        """:meth:`rows` bit for bit, each root formed on its own, so no
        table of N roots is built: for indices read once each."""
        return _roots_of_unity(self.exponents(indices), self.grid_points)


def grid_phases(spec: Spectrum, grid_points: int) -> GridPhases:
    """The phases of an integer spectrum on its ``grid_points``-point period
    grid, exact roots of unity whatever the size of the energies."""
    if not spec.is_integer:
        raise ValueError("grid phases need an integer spectrum; rescale rational spectra first")
    n = int(grid_points)
    if not 1 <= n <= MAX_PHASE_GRID:
        raise ValueError(f"a phase grid has 1 to {MAX_PHASE_GRID} points, got {n}")
    residues = np.array([e.numerator % n for e in spec.energies], dtype=np.int64)
    return GridPhases(n, residues)


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


def weight_polynomials(overlaps: np.ndarray, index: PairIndex) -> tuple[np.ndarray, np.ndarray]:
    """Each cell weight of a stack of shell overlap matrices as its gap
    polynomial w(tau) = G_0 + 2 sum_{g > 0} Re(G_g exp(-i g tau)).

    ``overlaps`` is (..., D_E, D_E), from :func:`overlap_matrices`, on the
    spectrum whose pair index is ``index``; G_g sums the entries S[a, b]
    with E_b - E_a = g, one gather and one segmented sum over the pairs of
    the gaps g >= 0.  Returns G_0 (...,) and the real coefficients
    (..., 2 n) of the n positive gaps, ascending: 2 Re G_g for each, then
    -2 Im G_g, which :func:`polynomial_weights` pairs with the real and
    imaginary rows of :meth:`GridPhases.gap_slices`.
    """
    positions, starts = index.gap_groups
    zero = index.gap_values.size // 2  # gaps are symmetric about 0
    first = starts[zero]
    pairs = np.take(overlaps.reshape(*overlaps.shape[:-2], -1), positions[first:], axis=-1)
    buckets = np.add.reduceat(pairs, starts[zero:] - first, axis=-1)
    positive = buckets[..., 1:]
    return buckets[..., 0].real, np.concatenate([2 * positive.real, -2 * positive.imag], axis=-1)


def polynomial_weights(polynomial: tuple[np.ndarray, np.ndarray], rows: np.ndarray) -> np.ndarray:
    """The weights (..., times) of :func:`weight_polynomials` at the grid
    times of one slice of gap phase rows (:meth:`GridPhases.gap_slices`):
    G_0 plus one real product."""
    constant, coefficients = polynomial
    weights = coefficients @ rows
    weights += constant[..., None]
    return weights


def normal_time_fractions(
    overlaps, ranks, epsilon: float, index: PairIndex, phases: GridPhases
) -> np.ndarray:
    """Fraction of the grid times at which every cell weight is near its share.

    ``overlaps`` lists each cell's shell overlap matrix, or stack of them,
    for consecutive column blocks of the given ranks of complete bases, so
    the ranks sum to D; ``index`` is the pair index of the spectrum and
    ``phases`` its grid.  Each weight is evaluated from its gap polynomial
    (:func:`weight_polynomials`), one cell and one slice of grid times at a
    time (GRID_SLICE times, or more within SLICE_BYTES), and the closeness
    of every cell is ANDed into one boolean per trial and time of the
    slice.  One fraction per leading index.
    """
    ranks = np.asarray(ranks)
    fracs = ranks / ranks.sum()
    tol = (epsilon / math.sqrt(ranks.size)) * np.sqrt(fracs)
    polynomials = [weight_polynomials(s, index) for s in overlaps]
    inside = np.zeros(np.shape(overlaps[0])[:-2], dtype=np.int64)
    gaps = index.gap_values.size // 2
    times = max(GRID_SLICE, SLICE_BYTES // (INSTANT_BYTES * inside.size + GAP_PHASE_BYTES * gaps))
    for rows in phases.gap_slices(index, times):
        near = np.ones((*inside.shape, rows.shape[-1]), dtype=bool)
        for polynomial, frac, bound in zip(polynomials, fracs, tol):
            deviations = polynomial_weights(polynomial, rows)
            deviations -= frac
            np.abs(deviations, out=deviations)
            near &= deviations <= bound
        inside += np.count_nonzero(near, axis=-1)
    return inside / phases.grid_points


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
    for all cells.  Requires an integer spectrum, for which the trajectory
    has period 2*pi and the long-run fraction equals the one-period
    fraction.  It is :func:`normal_time_fractions` on one state, as ``run``
    evaluates a block of trials.
    """
    phases = grid_phases(spec, grid_points)
    offsets = shell_offsets(spec)
    overlaps = [overlap_matrices(shell_coordinates(cell, vector, offsets))
                for cell in decomposition]
    ranks = [cell.shape[1] for cell in decomposition]
    return float(normal_time_fractions(overlaps, ranks, epsilon, spec.pair_index, phases))
