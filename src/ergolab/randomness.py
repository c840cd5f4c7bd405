"""Haar-measure sampling and empirical checks of its low moments.

Unitaries are drawn by QR-factoring a complex Ginibre matrix and absorbing
the phases of the R diagonal into Q, which makes the distribution exactly
invariant under left and right unitary multiplication.  Random states are
normalized complex Gaussian vectors (equivalently, first columns of Haar
unitaries).  A cell is a plain (D, d) array of orthonormal basis columns
and a decomposition a list of cells: a random one is the consecutive column
blocks of a single Haar unitary, the coordinate partition of the given
ranks rotated by it.  Nothing checks a basis a caller builds by hand.

Where only d < D columns of a Haar unitary are read (the d-row blocks of
:func:`unitary_block_statistics`), they are drawn as a Haar D × d frame:
the phase-fixed thin QR of a D × d Ginibre matrix (Stewart, SIAM J. Numer.
Anal. 17, 1980; Mezzadri, Notices AMS 54, 2007).  It has the law of the
first d columns of a Haar unitary, because Gram-Schmidt runs column by
column: the first d columns of the phase-fixed QR of a D × D Ginibre
matrix are the phase-fixed QR of its first d columns, which form a D × d
Ginibre matrix.  The draw costs O(D d^2) against O(D^3), and D d normals
against D^2, but it consumes a seed's generator differently, so its
reports differ from a full draw's in every bit.

All observables handled here (entry moduli, projection weights) are
invariant under a global phase, so sampling from the full unitary group
rather than its unit-determinant subgroup leaves their distributions
unchanged.

Statistical reports follow one record shape per estimated quantity:
``{"estimate", "stderr", "target", "pass"}`` with 5-standard-error gates,
which keeps the false-alarm rate of a seeded check below ~1e-6.

Moment estimates stream their samples: Gaussian vectors are drawn a chunk
of rows at a time, each entry's real and imaginary parts consecutive in one
fill, so the draws are the same for any chunk size.  Each random state is
drawn once and read by both moment checks, the rank-d weight and the sphere
coordinates.  Each chunk adds to power sums taken about the exact target
mean (the shifted-data algorithm of Chan, Golub & LeVeque, Am. Stat. 37,
1983; Pébay, SAND2008-6212, 2008), from which the records' central moments
follow by the binomial expansion, so memory is flat in the sample count.
The chunk never changes the draws, but it fixes the order of the sums, and
with it the last bits of a record.  Sums about the same shifts merge by
addition, so :func:`lemma_statistics` draws its states in two halves on
two threads, each half on its own substream, and the unitary blocks on a
third.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "substream",
    "ginibre_matrix",
    "ginibre_matrices",
    "haar_from_ginibre",
    "sample_haar_unitary",
    "sample_haar_frame",
    "sample_random_state",
    "random_states",
    "sample_decomposition",
    "GATE_SIGMA",
    "mean_stderr",
    "state_weight_statistics",
    "hypersphere_moments",
    "unitary_block_statistics",
    "lemma_statistics",
]

DEFAULT_SEED = 12345

# Standard errors an estimate may sit from its exact target before a gate
# fails (see the module docstring).
GATE_SIGMA = 5

# Complex entries per chunk of the moment estimates' Gaussian rows and of
# the unitary blocks' Gram rows.  The chunk bounds their working memory (a
# few hundred KiB whatever the dimension) and changes no draw.
_CHUNK_ENTRIES = 2**15


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, index, ...).

    Trials seeded this way are reproducible regardless of execution order,
    so concurrent callers can draw their own substreams and still aggregate
    deterministically.  It is ``np.random.default_rng`` of the same seed
    list, built without that function's argument checks, which took a third
    of the time of a trial's draws at D = 8.
    """
    return np.random.Generator(np.random.PCG64([int(seed), *(int(p) for p in path)]))


def ginibre_matrix(dim: int, rng: np.random.Generator, cols: int | None = None) -> np.ndarray:
    """Complex Ginibre matrix with entries of unit mean squared modulus:
    ``dim`` rows and ``cols`` columns (``dim`` when None), real parts
    drawn first."""
    return ginibre_matrices(dim, [rng], cols)[0]


def ginibre_matrices(dim: int, rngs, cols: int | None = None) -> np.ndarray:
    """One :func:`ginibre_matrix` from each generator, stacked: each draw
    fills its matrix's real and imaginary parts in place."""
    shape = (dim, dim if cols is None else cols)
    if min(shape) < 1:
        raise ValueError(f"dimensions must be >= 1, got {shape}")
    z = np.empty((len(rngs), *shape), dtype=complex)
    for matrix, rng in zip(z, rngs):
        matrix.real = rng.standard_normal(shape)
        matrix.imag = rng.standard_normal(shape)
    z /= math.sqrt(2.0)
    return z


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from Ginibre matrices stacked on the leading axes:
    one QR factorisation, then the phases of R's diagonal moved into Q.
    A D × d Ginibre matrix (d < D) gives a Haar D × d frame, the first d
    columns of a Haar unitary (see the module docstring)."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0  # measure-zero guard
    return q * (d / np.abs(d))[..., None, :]


def sample_haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via Ginibre + QR with phase-fixed diagonal."""
    return haar_from_ginibre(ginibre_matrix(dim, rng)[None])[0]


def sample_haar_frame(dim: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar D × d frame (``cols`` orthonormal columns) via the phase-fixed
    thin QR of a D × d Ginibre matrix; it has the law of the first ``cols``
    columns of :func:`sample_haar_unitary` (module docstring)."""
    return haar_from_ginibre(ginibre_matrix(dim, rng, cols))


def sample_random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random unit vector of shape (dim,) in a dim-dimensional
    complex space."""
    return random_states(dim, [rng])[0]


def random_states(dim: int, rngs) -> np.ndarray:
    """One :func:`sample_random_state` from each generator, as the rows of
    one array: each draw fills its row's real and imaginary parts in place,
    and each row is divided by its norm."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    z = np.empty((len(rngs), dim), dtype=complex)
    for row, rng in zip(z, rngs):
        row.real = rng.standard_normal(dim)
        row.imag = rng.standard_normal(dim)
    # The axis form sums in numpy, not by a BLAS dot: seeded states rely on it.
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def sample_decomposition(dims, rng: np.random.Generator) -> list[np.ndarray]:
    """Cells of the given ranks: the consecutive column blocks, each a
    (D, d) orthonormal basis, of one Haar unitary."""
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError(f"all cell ranks must be >= 1, got {dims}")
    u = sample_haar_unitary(sum(dims), rng)
    return np.split(u, np.cumsum(dims)[:-1], axis=1)


def mean_stderr(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error; the error of one sample is 0.0."""
    n = samples.size
    stderr = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(samples.mean()), stderr


def _record(estimate: float, stderr: float, target: float) -> dict:
    return {
        "estimate": estimate,
        "stderr": stderr,
        "target": float(target),
        "pass": abs(estimate - target) <= GATE_SIGMA * stderr,
    }


class _PowerSums:
    """Sums of ``u^i v^j`` (i <= 4, j <= 2) over a stream of samples, with
    ``u`` and ``v`` taken about fixed shifts near their means (module
    docstring), and the moment records they give.  Without ``v`` only the
    five sums of ``u^i`` are taken.  ``+=`` merges the sums of two streams
    about the same shifts."""

    def __init__(self, shift_u: float, shift_v: float = 0.0):
        self.shifts = shift_u, shift_v
        self.n = 0
        self.sums = np.zeros((5, 3))

    def add(self, u: np.ndarray, v: np.ndarray | None = None) -> None:
        u = u - self.shifts[0]
        powers = np.cumprod(np.stack([np.ones_like(u), u, u, u, u]), axis=0)
        # einsum's own loops, not BLAS: the sums do not depend on the BLAS build
        if v is None:
            self.sums[:, 0] += np.einsum("ik->i", powers)
        else:
            v = v - self.shifts[1]
            self.sums += np.einsum("ik,jk->ij", powers,
                                   np.cumprod(np.stack([np.ones_like(v), v, v]), axis=0))
        self.n += u.size

    def __iadd__(self, other: "_PowerSums") -> "_PowerSums":
        self.sums += other.sums
        self.n += other.n
        return self

    def _central(self, i: int, j: int = 0) -> float:
        # mean of (u - ū)^i (v - v̄)^j, by the binomial expansion
        raw = self.sums / self.n
        du, dv = -raw[1, 0], -raw[0, 1]
        return float(sum(math.comb(i, a) * math.comb(j, b) * raw[a, b]
                         * du ** (i - a) * dv ** (j - b)
                         for a in range(i + 1) for b in range(j + 1)))

    def mean(self, target: float) -> dict:
        n = self.n
        estimate = float(self.shifts[0] + self.sums[1, 0] / n)
        return _record(estimate, math.sqrt(max(self._central(2), 0.0) / (n - 1)), target)

    def variance(self, target: float) -> dict:
        # Asymptotic stderr of the sample variance: sqrt((m4 - v^2)/n).
        n = self.n
        v = self._central(2) * n / (n - 1)
        return _record(v, math.sqrt(max(self._central(4) - v * v, 0.0) / n), target)

    def covariance(self, target: float) -> dict:
        n = self.n
        c = self._central(1, 1) * n / (n - 1)
        return _record(c, math.sqrt(max(self._central(2, 2) - c * c, 0.0) / n), target)


def _check_samples(samples: int) -> None:
    if samples < 2:
        raise ValueError(f"need at least 2 samples for a standard error, got {samples}")


def _check_rank(dim: int, rank: int) -> None:
    if not 1 <= rank <= dim:
        raise ValueError(f"need 1 <= rank <= dim, got rank={rank}, dim={dim}")


def _check_ensemble(ensemble: int) -> None:
    if ensemble < 1:
        raise ValueError("ensemble size must be >= 1")


def _gaussian_chunks(dim: int, samples: int, rng: np.random.Generator):
    """Complex Gaussian D-vectors of ``samples`` random states as rows of
    2D reals, each entry's real part then its imaginary part, about
    _CHUNK_ENTRIES entries at a time.  The parts are consecutive draws of
    one fill, so the vectors are the same for any chunk size."""
    chunk = max(1, _CHUNK_ENTRIES // dim)
    for done in range(0, samples, chunk):
        yield rng.standard_normal((min(chunk, samples - done), 2 * dim))


def _moment_sums(dim: int, rank: int, samples: int, rng: np.random.Generator):
    """Power sums of ``samples`` random states, each drawn once and read by
    both moment checks: the weight of the first ``rank`` coordinates, the
    squared real part x^2 of coefficient 0 and the squared moduli of
    coefficients 0 and 1 (0 twice at D = 1), each over the state's squared
    norm.  Returns ``(weight, x2, moduli)``."""
    weight = _PowerSums(rank / dim)
    x2, moduli = _PowerSums(1 / (2 * dim)), _PowerSums(1 / dim, 1 / dim)
    j = 2 * min(1, dim - 1)
    for z in _gaussian_chunks(dim, samples, rng):
        z *= z
        norm2 = z.sum(axis=1)
        weight.add(z[:, :2 * rank].sum(axis=1) / norm2)
        x2.add(z[:, 0] / norm2)
        moduli.add((z[:, 0] + z[:, 1]) / norm2, (z[:, j] + z[:, j + 1]) / norm2)
    return weight, x2, moduli


def _moment_records(dim: int, rank: int, samples: int, sums) -> tuple[dict, dict]:
    """The state-weight and hypersphere records of :func:`_moment_sums`'
    ``sums`` (possibly merged over several streams)."""
    weight, x2, moduli = sums
    frac = rank / dim
    state = {
        "dim": dim,
        "rank": rank,
        "samples": samples,
        "mean": weight.mean(frac),
        "variance": weight.variance((1 / rank) * frac**2 * (dim - rank) / (dim + 1)),
    }
    sphere = {
        "dim": dim,
        "samples": samples,
        "mean": x2.mean(1 / (2 * dim)),
        "variance": moduli.variance((dim - 1) / (dim**2 * (dim + 1))),
    }
    if dim >= 2:
        sphere["covariance"] = moduli.covariance(-1 / (dim**2 * (dim + 1)))
    return state, sphere


def state_weight_statistics(
    dim: int, rank: int, samples: int, rng: np.random.Generator
) -> dict:
    """Empirical mean and variance of the weight of a rank-d cell on random states.

    The projection is taken on the first ``rank`` coordinates; by unitary
    invariance of the state distribution this loses no generality.  Targets
    are d/D and (1/d)(d/D)^2 (D-d)/(D+1).  Needs at least two samples.
    """
    _check_rank(dim, rank)
    _check_samples(samples)
    return _moment_records(dim, rank, samples, _moment_sums(dim, rank, samples, rng))[0]


def hypersphere_moments(dim: int, samples: int, rng: np.random.Generator) -> dict:
    """Low moments of a uniform point on the unit sphere in 2D real dimensions.

    A normalized complex D-vector has 2D real coordinates on the unit
    sphere.  The mean record is for one squared real coordinate (target
    1/(2D)).  The variance and covariance records are for the squared
    moduli of complex coefficients, i.e. sums of two sphere coordinates:
    these are the variables whose D-term decomposition reproduces the
    variance of a rank-d cell weight, with targets (D-1)/(D^2 (D+1)) and,
    between two distinct coefficients, -1/(D^2 (D+1)).  Needs at least two
    samples.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    _check_samples(samples)
    return _moment_records(dim, 1, samples, _moment_sums(dim, 1, samples, rng))[1]


def unitary_block_statistics(
    dim: int, rank: int, ensemble: int, rng: np.random.Generator
) -> dict:
    """Ensemble means of the worst column overlaps of a d-row block of Haar unitaries.

    For each sampled unitary U, with V its first ``rank`` rows and
    W = V^H V, records max_{i != j} |W_ij|^2 and max_i (W_ii - d/D)^2.
    The reference thresholds log(D)/D and 9 d log(D)/D^2 (natural log) are
    included for the caller to compare against; no pass flag is attached
    because the comparison is only meaningful when the dimension ordering
    that licenses it holds.

    Only V enters, so U is never formed: W = Q Q^H with Q = V^H, the first
    d columns of the Haar unitary U^H, a Haar D × d frame.  Each member's Q
    is the phase-fixed thin QR of the next D × d Ginibre matrix the stream
    draws, which has that law (module docstring).  W is taken in chunks of
    about _CHUNK_ENTRIES entries (at least one row), rows i against columns
    j >= i only, since |W_ij| = |W_ji|; no D × D array is formed once D^2
    exceeds the chunk.
    """
    if not 1 <= rank < dim:
        raise ValueError(f"need 1 <= rank < dim, got rank={rank}, dim={dim}")
    ensemble = int(ensemble)
    _check_ensemble(ensemble)
    frac = rank / dim
    chunk = max(1, _CHUNK_ENTRIES // dim)
    max_off = np.zeros(ensemble)
    max_diag = np.zeros(ensemble)
    for t in range(ensemble):
        q = sample_haar_frame(dim, rank, rng)
        qh = q.conj().T
        for start in range(0, dim, chunk):
            w = q[start:start + chunk] @ qh[:, start:]
            rows = np.arange(w.shape[0])
            diag = w[rows, rows].real
            w[rows, rows] = 0.0
            max_off[t] = max(max_off[t], (w.real**2 + w.imag**2).max())
            max_diag[t] = max(max_diag[t], ((diag - frac) ** 2).max())
    return _block_record(dim, rank, max_off, max_diag)


def _block_record(dim: int, rank: int, max_off, max_diag) -> dict:
    log_dim = math.log(dim)

    def record(samples, threshold):
        estimate, stderr = mean_stderr(samples)
        return {"estimate": estimate, "stderr": stderr, "threshold": threshold}

    return {
        "dim": dim,
        "rank": rank,
        "ensemble": max_off.size,
        "max_offdiag": record(max_off, log_dim / dim),
        "max_diag_dev": record(max_diag, 9 * rank * log_dim / dim**2),
    }


def lemma_statistics(dim: int, rank: int, samples: int, ensemble: int, seed: int):
    """``(state, sphere, blocks)``: the :func:`state_weight_statistics` and
    :func:`hypersphere_moments` records of one set of ``samples`` random
    states, each read by both, and, when rank < dim,
    :func:`unitary_block_statistics` on substream (seed, 2), else None.

    The states come in two halves: the first ``samples - samples // 2``
    rows of substream (seed, 0) on the calling thread and the first
    ``samples // 2`` rows of (seed, 1) on a thread of its own; the unitary
    blocks run on a third (numpy's Gaussian fills, its array arithmetic and
    LAPACK's QR release the GIL).  The halves' power sums are taken about
    the same shifts, so adding them, in that order, gives the sums of the
    whole set, from which both records are built.  Each stream owns its
    generator and keeps only its power sums or its ensemble's maxima, so no
    result depends on scheduling or on the number of cores: the report
    equals that of the halves and the blocks run one after another.  The
    arguments are checked before any thread starts.  Every thread is joined,
    at the end of the thread pool's ``with`` block, before anything is
    returned or raised.
    """
    # Imported here: at module level it adds about 6% to ``import ergolab``.
    from concurrent.futures import ThreadPoolExecutor

    _check_rank(dim, rank)
    _check_samples(samples)
    _check_ensemble(int(ensemble))
    with ThreadPoolExecutor(max_workers=2 if rank < dim else 1) as pool:
        second = pool.submit(_moment_sums, dim, rank, samples // 2, substream(seed, 1))
        blocks = None
        if rank < dim:
            blocks = pool.submit(unitary_block_statistics, dim, rank, ensemble,
                                 substream(seed, 2))
        sums = _moment_sums(dim, rank, samples - samples // 2, substream(seed, 0))
    for whole, half in zip(sums, second.result()):
        whole += half
    return (*_moment_records(dim, rank, samples, sums),
            None if blocks is None else blocks.result())
