"""Shell-resolved states, exact phase evolution, and long-time averages.

The energy eigenbasis is the coordinate basis: level alpha occupies a
contiguous block of e_alpha coordinates, so evolution is a diagonal phase
multiplication and measurement bases are rotated instead of the state.

For integer spectra every trajectory observable used here is a
trigonometric polynomial with integer frequencies, which turns the
infinite-time average into an exact finite sum: averaging over
tau_j = 2*pi*j/N with N = 2*max_frequency + 1 annihilates every nonzero
frequency of magnitude <= max_frequency (none aliases to 0 mod N).
Rational spectra are rescaled to integers first; the rescaling leaves all
gap and sum collision structure, and hence every time average, unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .randomness import Decomposition, Projection
from .spectrum import Spectrum

__all__ = [
    "ShellState",
    "prepare_state",
    "evolve",
    "cell_weight",
    "shell_overlap_matrix",
    "exact_time_avg_weight",
    "discrete_time_average",
    "integer_rescaled",
    "trajectory_weights",
    "time_fraction_normal",
]

STATE_NORM_TOL = 1e-10


@dataclass(eq=False)
class ShellState:
    """An initial state resolved into energy-shell components.

    ``vector`` is the normalized state in the coordinate basis; level
    ``alpha`` occupies coordinates ``offsets[alpha]:offsets[alpha+1]``.
    ``weights[alpha]`` is the squared norm of the component in that block.
    """

    spec: Spectrum
    vector: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray
    _coord_energies: np.ndarray = field(default=None, repr=False)

    def shell_slice(self, level: int) -> slice:
        return slice(int(self.offsets[level]), int(self.offsets[level + 1]))

    def shell_component(self, level: int) -> np.ndarray:
        """The unnormalized component of the state in one energy shell."""
        out = np.zeros_like(self.vector)
        sl = self.shell_slice(level)
        out[sl] = self.vector[sl]
        return out

    @property
    def coord_energies(self) -> np.ndarray:
        """Energy of each coordinate, as floats, for phase evolution."""
        if self._coord_energies is None:
            self._coord_energies = np.repeat(
                [float(e) for e in self.spec.energies], self.spec.degeneracies
            )
        return self._coord_energies


def prepare_state(amplitudes, spec: Spectrum) -> ShellState:
    """Slice a normalized amplitude vector into energy-shell blocks."""
    vector = np.asarray(amplitudes, dtype=complex)
    if vector.shape != (spec.dim_total,):
        raise ValueError(
            f"state must have length {spec.dim_total}, got shape {vector.shape}"
        )
    norm = np.linalg.norm(vector)
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state norm {norm} is not 1 within {STATE_NORM_TOL}")
    vector = vector / norm
    offsets = np.concatenate([[0], np.cumsum(spec.degeneracies)])
    weights = np.add.reduceat(np.abs(vector) ** 2, offsets[:-1])
    return ShellState(spec=spec, vector=vector, offsets=offsets, weights=weights)


def evolve(state: ShellState, tau: float) -> np.ndarray:
    """State vector after time tau: each shell picks up the phase of its energy."""
    return np.exp(-1j * tau * state.coord_energies) * state.vector


def cell_weight(vector, cell: Projection) -> float:
    """Squared norm of the projection of a vector onto one cell."""
    return float(np.sum(np.abs(cell.basis.conj().T @ np.asarray(vector)) ** 2))


def _shell_coordinates(state: ShellState, cell: Projection) -> np.ndarray:
    """Row a: the coordinates of shell component a in the cell's basis."""
    return np.add.reduceat(
        cell.basis.conj() * state.vector[:, None], state.offsets[:-1], axis=0
    )


def shell_overlap_matrix(state: ShellState, cell: Projection) -> np.ndarray:
    """Hermitian matrix of shell-component overlaps through the cell.

    Entry (a, b) is the inner product of shell components a and b mediated
    by the cell projector.  Built from the d basis columns restricted to
    each shell block, so the full projector is never formed.
    """
    t = _shell_coordinates(state, cell)
    return t.conj() @ t.T


def exact_time_avg_weight(state: ShellState, cell: Projection) -> float:
    """Infinite-time average of the cell weight, exactly.

    Only the diagonal (equal-energy) terms of the weight survive time
    averaging, so the result is the sum over shells of each component's
    weight in the cell.
    """
    return float(np.sum(np.abs(_shell_coordinates(state, cell)) ** 2))


def discrete_time_average(
    observable: Callable[[float], float], spec: Spectrum, max_frequency: int
) -> float:
    """Exact long-time average of a trigonometric polynomial of the trajectory.

    Valid for integer spectra and observables whose integer frequencies are
    bounded by ``max_frequency`` (cell weights: the spectral spread; squared
    deviations of a weight: twice the spread).
    """
    if not spec.is_integer:
        raise ValueError(
            "discrete time averaging is exact only for integer spectra; "
            "rescale rational spectra first"
        )
    n = 2 * int(max_frequency) + 1
    return math.fsum(observable(2 * math.pi * j / n) for j in range(n)) / n


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


def trajectory_weights(
    state: ShellState, decomposition: Decomposition, taus
) -> np.ndarray:
    """Cell weights along a time grid; shape (len(taus), number of cells)."""
    taus = np.asarray(taus, dtype=float)
    psi = np.exp(-1j * np.outer(taus, state.coord_energies)) * state.vector
    out = np.empty((taus.size, len(decomposition)))
    for k, cell in enumerate(decomposition):
        out[:, k] = np.sum(np.abs(psi @ cell.basis.conj()) ** 2, axis=1)
    return out


def time_fraction_normal(
    state: ShellState,
    decomposition: Decomposition,
    epsilon: float,
    grid_points: int = 1000,
) -> float:
    """Fraction of one period during which every cell weight is near its share.

    At each sampled time the weight of cell ``nu`` must satisfy
    ``|w_nu - d_nu/D| <= (epsilon/sqrt(M)) * sqrt(d_nu/D)`` simultaneously
    for all cells.  Requires an integer spectrum, for which the trajectory
    has period 2*pi and the long-run fraction equals the one-period
    fraction.
    """
    if not state.spec.is_integer:
        raise ValueError(
            "time fractions need an integer spectrum; rescale rational spectra first"
        )
    dim = state.spec.dim_total
    m = len(decomposition)
    taus = 2 * math.pi * np.arange(int(grid_points)) / int(grid_points)
    weights = trajectory_weights(state, decomposition, taus)
    fracs = np.array([c.rank / dim for c in decomposition])
    tol = (epsilon / math.sqrt(m)) * np.sqrt(fracs)
    ok = np.all(np.abs(weights - fracs) <= tol, axis=1)
    return float(ok.mean())
