"""Shared generators and independent brute-force oracles for the test suite.

The oracles here deliberately use different algorithms from the package
(quadruple loops and pairwise counting instead of value grouping, dense
projectors instead of shell coordinates) so that agreement is evidence, not
tautology.  The ensemble reference evaluates one trial at a time through the
public single-state functions, where the package evaluates blocks of trials,
and takes its normality fractions from evolved coordinates, where the package
evaluates gap polynomials.
A cell is a (D, d) array of orthonormal basis columns, as the package takes
it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ergolab import (
    Spectrum,
    deviation_exact,
    prepare_state,
    resonant_term_bound,
    sample_decomposition,
    sample_haar_unitary,
    sample_random_state,
    substream,
    sum_structure,
    unitary_block_statistics,
)
from ergolab.dynamics import (
    GRID_SLICE,
    evolved_weights,
    exact_grid_points,
    grid_phases,
    shell_coordinates,
    shell_offsets,
)
from ergolab.randomness import (
    GATE_SIGMA,
    _block_record,
    _moment_records,
    _moment_sums,
    mean_stderr,
)


def brute_max_gap_degeneracy(energies) -> int:
    """Largest number of ordered pairs sharing a nonzero difference, by counting."""
    n = len(energies)
    best = 0
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            value = energies[b] - energies[a]
            count = sum(
                1
                for c in range(n)
                for d in range(n)
                if energies[d] - energies[c] == value
            )
            best = max(best, count)
    return best


def brute_max_sum_degeneracy(energies) -> int:
    """Largest number of ordered pairs sharing a sum, by counting."""
    n = len(energies)
    best = 0
    for a in range(n):
        for b in range(n):
            value = energies[a] + energies[b]
            count = sum(
                1
                for c in range(n)
                for d in range(n)
                if energies[c] + energies[d] == value
            )
            best = max(best, count)
    return best


def brute_pair_classes(energies, combine) -> dict:
    """Ordered level pairs grouped by ``combine(E_a, E_b)`` in exact
    Fraction arithmetic: values ascending, pairs ascending within a value."""
    groups = {}
    for a, e_a in enumerate(energies):
        for b, e_b in enumerate(energies):
            groups.setdefault(combine(e_a, e_b), []).append((a, b))
    return {value: tuple(groups[value]) for value in sorted(groups)}


def structure_report_reference(spec: Spectrum) -> dict:
    """The ``analyze`` report as nested dicts and lists, built by Fraction
    grouping of the level pairs; ``json.dumps(..., indent=2,
    sort_keys=True)`` of it is what the command must print."""
    gaps = brute_pair_classes(spec.energies, lambda e_a, e_b: e_b - e_a)
    sums = brute_pair_classes(spec.energies, lambda e_a, e_b: e_a + e_b)
    max_gap = max((len(p) for v, p in gaps.items() if v != 0), default=0)

    def rows(classes):
        return [{"value": str(value), "count": len(pairs),
                 "pairs": [[a + 1, b + 1] for a, b in pairs]}
                for value, pairs in classes.items()]

    return {
        "D": spec.dim_total,
        "D_E": spec.num_levels,
        "D_G": max_gap,
        "D_F": max(map(len, sums.values())),
        "non_degenerate": all(d == 1 for d in spec.degeneracies),
        "non_resonant": max_gap <= 1,
        "approximate": spec.approximate,
        "levels": [{"energy": str(e), "degeneracy": d} for e, d in spec.levels],
        "gaps": rows(gaps),
        "sums": rows(sums),
    }


def brute_resonant_cross_terms(s: np.ndarray, energies) -> float:
    """Quadruple-loop evaluation of the resonance cross terms.

    Sums s[a, b] * s[sig, g] over all index quadruples whose energy sums
    collide (E_a + E_sig == E_b + E_g) except (b, g) equal to (a, sig) or
    its swap.  No sum classes are formed; this is the defining sum.
    """
    n = len(energies)
    acc = 0.0 + 0.0j
    for a in range(n):
        for sig in range(n):
            for b in range(n):
                for g in range(n):
                    if energies[a] + energies[sig] != energies[b] + energies[g]:
                        continue
                    if (b, g) == (a, sig) or (b, g) == (sig, a):
                        continue
                    acc += s[a, b] * s[sig, g]
    assert abs(acc.imag) < 1e-10
    return float(acc.real)


def shared_gap_breakdowns(s: np.ndarray, frac: float, index) -> dict:
    """The record of ``deviation_breakdowns`` by the both-sign shared-gap
    formula, from a stack of shell overlap matrices ``s`` (..., D_E, D_E)
    rather than its gap buckets: trace(S) and the off-diagonal squares read
    off the whole matrix, and R summed over the nonzero gaps of either sign
    that two or more pairs carry, each bucket's |G_g|^2 less its pairs'
    |S[a, b]|^2.  A gap carried by one pair is skipped, so R is 0.0 when no
    gap recurs."""
    shared = (index.gap_counts >= 2) & (index.gap_values != 0)
    positions = np.argsort(index.gap_ids, kind="stable")[np.repeat(shared, index.gap_counts)]
    sizes = index.gap_counts[shared]
    diag = np.diagonal(s, axis1=-2, axis2=-1).real
    trace = diag.sum(axis=-1)
    offdiag_sum = np.sum(np.abs(s) ** 2, axis=(-2, -1)) - np.sum(diag**2, axis=-1)
    res = np.zeros(s.shape[:-2])
    if positions.size:
        z = np.take(s.reshape(*s.shape[:-2], -1), positions, axis=-1)
        buckets = np.add.reduceat(z, np.cumsum(sizes) - sizes, axis=-1)
        res = (np.sum(buckets.real**2 + buckets.imag**2, axis=-1)
               - np.sum(z.real**2 + z.imag**2, axis=-1))
    diag_dev_sq = (trace - frac) ** 2
    return {
        "total": offdiag_sum + diag_dev_sq + res,
        "cell_fraction_sq": frac**2,
        "degeneracy_term": -2.0 * frac * trace,
        "nonresonant_term": offdiag_sum + trace**2,
        "resonant_term": res,
        "offdiag_sum": offdiag_sum,
        "diag_dev_sq": diag_dev_sq,
        "time_avg_weight": trace,
    }


def random_composition(rng: np.random.Generator, total: int, parts: int) -> list[int]:
    """Uniform composition of ``total`` into ``parts`` positive integers."""
    if parts == 1:
        return [total]
    cuts = np.sort(rng.choice(total - 1, size=parts - 1, replace=False)) + 1
    bounds = np.concatenate([[0], cuts, [total]])
    return list(np.diff(bounds).astype(int))


def random_integer_spectrum(
    rng: np.random.Generator,
    dim_range: tuple[int, int] = (4, 12),
    spread: int = 12,
) -> Spectrum:
    """Random integer spectrum with bounded total dimension and energy spread."""
    dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
    num_levels = int(rng.integers(2, min(dim, spread + 1) + 1))
    energies = np.sort(rng.choice(spread + 1, size=num_levels, replace=False))
    degens = random_composition(rng, dim, num_levels)
    return Spectrum(tuple((Fraction(int(e)), d) for e, d in zip(energies, degens)))


def random_nonresonant_levels(rng: np.random.Generator, num_levels: int) -> list[int]:
    """Distinct integers whose nonzero pairwise differences are all distinct."""
    span = 8 * num_levels**3 + 16
    while True:
        values = np.sort(rng.choice(span, size=num_levels, replace=False))
        diffs = {int(b - a) for i, a in enumerate(values) for b in values[i + 1:]}
        if len(diffs) == num_levels * (num_levels - 1) // 2:
            return [int(v) for v in values]


def greedy_nonresonant_levels(count: int) -> list[int]:
    """Deterministic integer levels with all pairwise sums (hence gaps) distinct."""
    levels = [0]
    sums = {0}
    x = 0
    while len(levels) < count:
        x += 1
        new = {x + a for a in levels} | {2 * x}
        if not (new & sums):
            sums |= new
            levels.append(x)
    return levels


def coordinate_energies(spec: Spectrum) -> np.ndarray:
    """Energy of each coordinate of the eigenbasis, as floats: each level's
    energy repeated over its degeneracy."""
    return np.repeat([float(e) for e in spec.energies], spec.degeneracies)


def integer_spread(spec: Spectrum) -> int:
    """Largest minus smallest of the spectrum's integer levels, which its
    pair index keeps: the spread of an integer spectrum itself."""
    levels = spec.pair_index.integer_levels
    return levels[-1] - levels[0]


def level_energies(spec: Spectrum) -> np.ndarray:
    """Energy of each level as a float, for float phases at any time."""
    return np.array([float(e) for e in spec.energies])


def time_phases(energies: np.ndarray, taus) -> np.ndarray:
    """Float evolution phases exp(-i E tau) of the levels of
    :func:`level_energies`, one row per time; shape (times, D_E).  A phase
    is off by about 2.2e-16 * |E tau| rad, as E tau is rounded before the
    exponential."""
    return np.exp(-1j * np.outer(np.asarray(taus, dtype=float), energies))


def trajectory_weights(energies: np.ndarray, coords: np.ndarray, ranks, taus) -> np.ndarray:
    """Cell weights at any times, by the package's kernel on the float
    phases of :func:`time_phases`; shape (..., times, cells)."""
    return evolved_weights(time_phases(energies, taus), coords, ranks)


def evolved_time_fraction(spec: Spectrum, vector, decomposition, epsilon: float,
                          grid_points: int) -> float:
    """``time_fraction_normal`` by the evolved-coordinate route: every cell
    weight at every time of the grid of the spectrum's integer levels, from
    ``evolved_weights`` on the phase rows of the whole grid, then the share
    of times at which every weight is within its tolerance."""
    ranks = [cell.shape[1] for cell in decomposition]
    fracs = np.array(ranks) / spec.dim_total
    tol = (epsilon / math.sqrt(len(ranks))) * np.sqrt(fracs)
    coords = shell_coordinates(np.hstack(decomposition), vector, shell_offsets(spec))
    rows = grid_phases(spec, grid_points).at(0, grid_points)
    deviations = np.abs(evolved_weights(rows, coords, ranks) - fracs)
    return float(np.all(deviations <= tol, axis=-1).mean())


def evolve(spec: Spectrum, vector: np.ndarray, tau: float) -> np.ndarray:
    """State vector on ``spec`` after time tau: each coordinate picks up the
    float phase exp(-i E tau) of its energy."""
    return np.exp(-1j * tau * coordinate_energies(spec)) * vector


def cell_weight(vector, cell: np.ndarray) -> float:
    """<v|P|v> for the cell's dense projector P = B B^H."""
    vector = np.asarray(vector)
    return float(np.vdot(vector, cell @ cell.conj().T @ vector).real)


def random_instance(spec: Spectrum, rng: np.random.Generator, max_cells: int = 4):
    """Random prepared state vector plus random decomposition for a spectrum."""
    dim = spec.dim_total
    parts = int(rng.integers(1, min(max_cells, dim) + 1))
    dims = random_composition(rng, dim, parts)
    decomposition = sample_decomposition(dims, rng)
    vector = prepare_state(sample_random_state(dim, rng), spec)
    return vector, decomposition


def grid_times(indices, grid_points: int) -> np.ndarray:
    """The reference float time axis: tau_j = 2*pi*j/N of the grid indices j
    of the N-point period grid."""
    return 2 * math.pi * np.asarray(indices) / int(grid_points)


def per_point(observable, max_frequency: int):
    """An index observable for :func:`discrete_time_average` with this
    ``max_frequency`` that maps each grid index to its float time and
    evaluates ``observable`` one time at a time, as a per-point reference."""
    n = exact_grid_points(max_frequency)
    return lambda indices: [observable(tau) for tau in grid_times(indices, n)]


@dataclass
class EnsembleReference:
    """Per-trial recomputation of what ``run_experiment`` reports."""

    totals: np.ndarray
    chain_violations: int
    sufficient_count: int
    direct_count: int
    implication_violations: int


def per_trial_reference(config, chain_slack: float = 1e-12) -> EnsembleReference:
    """Redraw and evaluate every trial of ``config`` on its own.

    Trial t draws from ``substream(seed, 1, t)`` a Haar decomposition, then
    (``haar-per-trial`` only) a state; a fixed state is the config's
    amplitudes or comes from its policy alone.  Each cell goes through :func:`deviation_exact`, the chain is
    checked on the breakdown, and the direct normality route runs
    :func:`evolved_time_fraction`, whose grid phases read the spectrum's
    integer levels from its pair index.
    """
    spec, dim, p = config.spectrum, config.dim_total, config.params
    d_f = sum_structure(spec).max_sum_degeneracy
    fixed = config.state
    if isinstance(fixed, str):
        fixed = {
            "uniform": np.ones(dim, dtype=complex) / math.sqrt(dim),
            "haar-fixed": sample_random_state(dim, substream(config.seed, 0)),
            "haar-per-trial": None,
        }[fixed]
    totals = np.empty((config.trials, len(config.dims)))
    chain = sufficient = direct = violations = 0
    for t in range(config.trials):
        rng = substream(config.seed, 1, t)
        decomposition = sample_decomposition(config.dims, rng)
        vector = prepare_state(fixed if fixed is not None else sample_random_state(dim, rng),
                               spec)
        ok_sufficient = True
        for k, cell in enumerate(decomposition):
            b = deviation_exact(spec, vector, cell)
            totals[t, k] = b["total"]
            chain += not b["diag_dev_sq"] <= b["total"] + chain_slack
            bound = resonant_term_bound(b["time_avg_weight"], d_f)
            chain += not b["resonant_term"] <= bound + chain_slack
            ok_sufficient = ok_sufficient and b["total"] <= config.threshold(cell.shape[1])
        if config.normality:
            fraction = evolved_time_fraction(
                spec, vector, decomposition, p.epsilon, config.grid)
            ok_direct = fraction >= 1 - p.delta_prime
            sufficient += ok_sufficient
            direct += ok_direct
            violations += ok_sufficient and not ok_direct
    return EnsembleReference(totals, chain, sufficient, direct, violations)


def trial_dump_reference(experiment) -> str:
    """The ``run --dump-trials`` text of an experiment record, written a line
    at a time: trial, cell, deviation, threshold and sufficient flag per
    trial and cell."""
    thresholds = [c["threshold"] for c in experiment["cells"]]
    lines = ["trial\tcell\tdeviation\tthreshold\tsufficient\n"]
    for t, row in enumerate(experiment["trial_totals"]):
        for k, value in enumerate(row):
            lines.append(f"{t}\t{k + 1}\t{float(value)!r}\t{float(thresholds[k])!r}\t"
                         f"{int(value <= thresholds[k])}\n")
    return "".join(lines)


def trajectory_dump_reference(phases, coords, dims, span) -> str:
    """The ``compute-l --dump-trajectory`` text, written a line at a time:
    tau = span * j / n and every cell's weight at grid index j of the
    n-point grid of ``phases``.  The weights are evaluated in slices of
    GRID_SLICE times, as the program evaluates them, since BLAS may round a
    product of another shape differently."""
    n = phases.grid_points
    lines = ["tau\t" + "\t".join(f"cell_{k + 1}" for k in range(len(dims))) + "\n"]
    for j in range(0, n, GRID_SLICE):
        indices = range(j, min(j + GRID_SLICE, n))
        taus = [span * i / n for i in indices]
        weights = evolved_weights(phases.at(j, indices.stop), coords, dims)
        for tau, row in zip(taus, weights.tolist()):
            lines.append("\t".join(repr(x) for x in [tau, *row]) + "\n")
    return "".join(lines)


def gaussian_rows_reference(dim: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Whole complex Gaussian D-vectors, all in one fill: each entry's real
    part, then its imaginary part.  Read with no chi-square sums, they are
    the full route to the moment estimates' random states, which agrees
    with the package's draw of two coefficients and chi-square blocks in
    law, not in bits."""
    pairs = rng.standard_normal((samples, dim, 2))
    return pairs[..., 0] + 1j * pairs[..., 1]


def read_rows_reference(dim: int, rank: int, samples: int, rng: np.random.Generator
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of the moment estimates, restated from their documented
    layout as ``(z, middle, tail)``: the complex Gaussian rows of
    coefficients 0 and 1 (0 alone at D = 1) in one fill of ``rng``, then,
    from its first spawned child, one gamma sequence whose shapes run state
    by state, d - 2 for the cell's other squares (d > 2) then D - max(d, 2)
    for the unread ones (when any), each doubled into a chi-square sum;
    zeros for an empty block."""
    z = gaussian_rows_reference(min(dim, 2), samples, rng)
    shapes = [rank - 2, dim - max(rank, 2)]
    blocks = np.zeros((2, samples))
    drawn = [k for k, shape in enumerate(shapes) if shape > 0]
    if drawn:
        sequence = np.tile([shapes[k] for k in drawn], samples)
        gammas = rng.spawn(1)[0].standard_gamma(sequence)  # no size: one per shape
        blocks[drawn] = 2 * gammas.reshape(samples, len(drawn)).T
    return z, blocks[0], blocks[1]


# The two-sample Kolmogorov-Smirnov critical value c at a false-alarm rate
# of 1e-6: sqrt(n m / (n + m)) times the statistic exceeds c with
# probability 2 exp(-2 c^2) for large samples (Smirnov's limit law).
KS_CRITICAL_1E6 = math.sqrt(math.log(2 / 1e-6) / 2)


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """The two-sample Kolmogorov-Smirnov statistic: the largest distance
    between the empirical distribution functions of ``a`` and ``b``."""
    a, b = np.sort(a), np.sort(b)
    at = np.concatenate([a, b])
    return float(np.abs(np.searchsorted(a, at, side="right") / a.size
                        - np.searchsorted(b, at, side="right") / b.size).max())


def _record(estimate: float, stderr: float, target: float) -> dict:
    return {"estimate": estimate, "stderr": stderr, "target": target,
            "pass": abs(estimate - target) <= GATE_SIGMA * stderr}


def _centered(x: np.ndarray, shift: float) -> np.ndarray:
    # The values are taken about a shift first: at D = 1, |c_0|^2 is 1 within
    # a few ulp, and a mean taken of values near 1 is off by about as much
    # as they spread.
    x = x - shift
    return x - x.mean()


def _variance_record(x: np.ndarray, shift: float, target: float) -> dict:
    n, c = x.size, _centered(x, shift)
    v = float(np.sum(c**2) / (n - 1))
    return _record(v, math.sqrt(max(float(np.mean(c**4)) - v * v, 0.0) / n), target)


def _covariance_record(a: np.ndarray, b: np.ndarray, shift: float, target: float) -> dict:
    n, da, db = a.size, _centered(a, shift), _centered(b, shift)
    c = float(np.sum(da * db) / (n - 1))
    m22 = float(np.mean(da**2 * db**2))
    return _record(c, math.sqrt(max(m22 - c * c, 0.0) / n), target)


def lemma_rows_reference(dim: int, rank: int, samples: int, seed: int
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The random states ``randomness.lemma_statistics`` reads, as the
    :func:`read_rows_reference` draws of the first
    ``samples - samples // 2`` states of substream (seed, 0), then of the
    first ``samples // 2`` of (seed, 1)."""
    half = samples // 2
    parts = [read_rows_reference(dim, rank, samples - half, substream(seed, 0)),
             read_rows_reference(dim, rank, half, substream(seed, 1))]
    return tuple(np.concatenate(kind) for kind in zip(*parts))


def state_weights_reference(dim: int, rank: int, z: np.ndarray, middle=0.0, tail=0.0) -> dict:
    """``randomness.state_weight_statistics`` by two passes over the weight
    of every row of the complex Gaussian rows ``z``: the squares of its
    first ``rank`` entries plus ``middle``, the sum of the cell's squares
    not drawn, over the row's squared norm plus ``middle`` and ``tail``,
    the sum of the other squares not drawn."""
    samples = len(z)
    z2 = np.abs(z) ** 2
    cell = z2[:, :rank].sum(axis=1) + middle
    w = cell / (z2.sum(axis=1) + middle + tail)
    frac = rank / dim
    return {"dim": dim, "rank": rank, "samples": samples,
            "mean": _record(*mean_stderr(w), frac),
            "variance": _variance_record(w, frac, frac**2 * (dim - rank) / (rank * (dim + 1)))}


def hypersphere_reference(dim: int, z: np.ndarray, middle=0.0, tail=0.0) -> dict:
    """``randomness.hypersphere_moments`` by two passes over every row of
    the complex Gaussian rows ``z``, squared norms as in
    :func:`state_weights_reference`: the squares of coefficients 0 and 1,
    each over the squared norm (which at D = 1 makes |c_0|^2 exactly 1, as
    in the package)."""
    samples = len(z)
    z2 = np.abs(z) ** 2
    norm2 = z2.sum(axis=1) + middle + tail
    m0, m1 = z2[:, 0] / norm2, z2[:, min(1, dim - 1)] / norm2
    out = {"dim": dim, "samples": samples,
           "mean": _record(*mean_stderr(z[:, 0].real ** 2 / norm2), 1 / (2 * dim)),
           "variance": _variance_record(m0, 1 / dim, (dim - 1) / (dim**2 * (dim + 1)))}
    if dim >= 2:
        out["covariance"] = _covariance_record(m0, m1, 1 / dim, -1 / (dim**2 * (dim + 1)))
    return out


def lemma_statistics_reference(dim: int, rank: int, samples: int, ensemble: int, seed: int):
    """``randomness.lemma_statistics`` restated from its documented stream
    layout: the two halves of the random states on substreams (seed, 0)
    and (seed, 1), their power sums merged in that order, then the unitary
    blocks on (seed, 2)."""
    half = samples // 2
    sums = _moment_sums(dim, rank, samples - half, substream(seed, 0))
    for whole, part in zip(sums, _moment_sums(dim, rank, half, substream(seed, 1))):
        whole += part
    blocks = (unitary_block_statistics(dim, rank, ensemble, substream(seed, 2))
              if rank < dim else None)
    return (*_moment_records(dim, rank, samples, sums), blocks)


def gram_maxima(v: np.ndarray, frac: float) -> tuple[float, float]:
    """``max_{i != j} |W_ij|^2`` and ``max_i (W_ii - frac)^2`` of the whole
    D × D Gram ``W = V^H V`` of a d × D block ``v``, in one product, the
    diagonal masked out."""
    w = v.conj().T @ v
    offdiag = ~np.eye(len(w), dtype=bool)
    return float((np.abs(w) ** 2)[offdiag].max()), float(((w.diagonal().real - frac) ** 2).max())


def unitary_block_reference(dim: int, rank: int, ensemble: int, rng) -> dict:
    """``randomness.unitary_block_statistics`` by the full-unitary route:
    each member is the first ``rank`` rows of a whole
    :func:`sample_haar_unitary` and its D × D Gram.  It consumes the
    generator differently from the package's thin frames, so the two agree
    in law, not in bits."""
    maxima = np.array([gram_maxima(sample_haar_unitary(dim, rng)[:rank], rank / dim)
                       for _ in range(ensemble)])
    return _block_record(dim, rank, maxima[:, 0], maxima[:, 1])
