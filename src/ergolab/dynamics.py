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
Observables of :func:`discrete_time_average` take slices of GRID_SLICE
times, so time-grid kernels bound their arrays however long the grid.

On that grid every evolution phase is an N-th root of unity,
exp(-i E tau_j) = exp(-2*pi*i (E*j mod N)/N).  :func:`grid_phases` forms
the phases that way: the residues E mod N are taken on the exact integers
and the N roots are tabulated once, so a phase is as accurate at E = 10^17
as at E = 1, and a common energy offset stays an exact global phase.
Every phase the program evaluates is one of these; compute-l's trajectory
dump, which reads each grid time once, forms its roots without the table.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spectrum import Spectrum

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
    "integer_rescaled",
    "period_grid",
    "GridPhases",
    "grid_phases",
    "evolved_weights",
    "normal_time_fractions",
    "time_fraction_normal",
]

STATE_NORM_TOL = 1e-10

# Times per observable call of discrete_time_average.  compute-l's oracle on a
# 19 501-point grid at D = 80 (2-core x86-64 VM; timed when the oracle took
# 4*spread + 1 points, twice the exact grid) ran fastest with 32..128 and
# kept its peak RSS; slices of 1024 ran slower and cost 2.8 MiB more.
GRID_SLICE = 128

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
) -> float:
    """Exact long-time average of a trigonometric polynomial of the trajectory.

    Valid for integer spectra and observables whose integer frequencies are
    bounded by ``max_frequency`` (cell weights: the spectral spread; squared
    deviations: twice the spread), on :func:`exact_grid_points` grid times.
    ``observable`` maps each slice of at most GRID_SLICE consecutive times
    to its values, which are summed with one exactly rounded ``math.fsum``.
    """
    if not spec.is_integer:
        raise ValueError(
            "discrete time averaging is exact only for integer spectra; "
            "rescale rational spectra first"
        )
    n = exact_grid_points(max_frequency)
    taus = period_grid(n)
    return math.fsum(itertools.chain.from_iterable(
        observable(taus[j:j + GRID_SLICE]) for j in range(0, n, GRID_SLICE)
    )) / n


def exact_grid_points(max_frequency: int) -> int:
    """The least N whose N-point period grid averages every integer frequency
    up to ``max_frequency`` exactly: N = max_frequency + 1 divides none."""
    return int(max_frequency) + 1


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


def period_grid(grid_points: int) -> np.ndarray:
    """``grid_points`` equally spaced times covering one period 2*pi."""
    return _grid_times(np.arange(int(grid_points)), grid_points)


def _grid_times(indices: np.ndarray, grid_points: int) -> np.ndarray:
    return 2 * math.pi * indices / int(grid_points)


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

    def formed(self, indices) -> np.ndarray:
        """:meth:`rows` bit for bit, each root formed on its own, so no
        table of N roots is built: for indices read once each."""
        return _roots_of_unity(self.exponents(indices), self.grid_points)

    def at(self, taus) -> np.ndarray:
        """Phase rows at times of this grid, as :func:`period_grid` gives
        them; any other time is a ValueError."""
        taus = np.asarray(taus, dtype=float)
        j = np.rint(taus * (self.grid_points / (2 * math.pi))).astype(np.int64)
        if not np.array_equal(_grid_times(j, self.grid_points), taus):
            raise ValueError(f"times off the {self.grid_points}-point period grid")
        return self.rows(j)


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


def normal_time_fractions(
    phases: np.ndarray, coords: np.ndarray, ranks, epsilon: float
) -> np.ndarray:
    """Fraction of the grid times at which every cell weight is near its share.

    ``phases`` holds the phase rows of the grid times (from
    :func:`grid_phases`); ``coords`` the shell coordinates of complete bases
    whose consecutive column blocks of the given ranks are the cells, so the
    ranks sum to D.  One fraction per leading index.
    """
    ranks = np.asarray(ranks)
    fracs = ranks / ranks.sum()
    tol = (epsilon / math.sqrt(ranks.size)) * np.sqrt(fracs)
    deviations = evolved_weights(phases, coords, ranks)
    deviations -= fracs
    np.abs(deviations, out=deviations)
    return np.all(deviations <= tol, axis=-1).mean(axis=-1)


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
    fraction; the phases are those of :func:`grid_phases`, as ``run`` takes
    them.
    """
    ranks = [cell.shape[1] for cell in decomposition]
    phases = grid_phases(spec, grid_points).rows(np.arange(grid_points))
    coords = shell_coordinates(np.hstack(decomposition), vector, shell_offsets(spec))
    return float(normal_time_fractions(phases, coords, ranks, epsilon))
