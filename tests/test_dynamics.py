"""Shell states, evolution, and the exact discrete-averaging oracle."""

import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from ergolab import (
    Spectrum,
    discrete_time_average,
    exact_time_avg_weight,
    prepare_state,
    sample_decomposition,
    sample_random_state,
    substream,
    time_fraction_normal,
)
from ergolab.dynamics import (
    GRID_SLICE,
    MAX_PHASE_GRID,
    PHASE_STEP,
    deviation_grid_points,
    evolved_weights,
    exact_grid_points,
    gap_buckets,
    gap_phases,
    grid_phases,
    overlap_matrices,
    polynomial_weights,
    shell_coordinates,
    shell_offsets,
    weight_polynomials,
)

from support import (
    cell_weight,
    evolve,
    evolved_time_fraction,
    grid_times,
    integer_spread,
    level_energies,
    per_point,
    random_instance,
    time_phases,
    trajectory_weights,
)


def spec_of(levels):
    return Spectrum(tuple((F(e), d) for e, d in levels))


def kernel_inputs(spec, vector, dec):
    """Level energies, shell coordinates and ranks of the time-grid kernel."""
    ranks = [cell.shape[1] for cell in dec]
    coords = shell_coordinates(np.hstack(dec), vector, shell_offsets(spec))
    return level_energies(spec), coords, ranks


def shell_weights(spec, vector):
    """Squared norm of the state's component in each energy shell."""
    return np.add.reduceat(np.abs(vector) ** 2, shell_offsets(spec)[:-1])


def weights_now(vector, dec):
    """Weights of the cells of ``dec`` on ``vector``, from the trajectory
    kernel at time 0, with the whole space one level."""
    vector = np.asarray(vector, dtype=complex)
    coords = shell_coordinates(np.hstack(dec), vector, np.array([0, len(vector)]))
    return trajectory_weights(np.zeros(1), coords, [c.shape[1] for c in dec], [0.0])[0]


class TestPrepareState:
    def test_single_shell_basis_vector(self):
        spec = spec_of([(0, 2), (1, 3)])
        amp = np.zeros(5, dtype=complex)
        amp[3] = 1.0  # inside the second shell block
        vector = prepare_state(amp, spec)
        np.testing.assert_allclose(shell_weights(spec, vector), [0.0, 1.0], atol=1e-15)

    def test_uniform_superposition_weights(self):
        spec = spec_of([(0, 2), (1, 2)])
        vector = prepare_state(np.full(4, 0.5, dtype=complex), spec)
        np.testing.assert_allclose(shell_weights(spec, vector), [0.5, 0.5], atol=1e-15)

    def test_weights_sum_to_one(self):
        spec = spec_of([(0, 3), (2, 2), (5, 4)])
        vector = prepare_state(sample_random_state(9, substream(1, 0)), spec)
        assert abs(shell_weights(spec, vector).sum() - 1) < 1e-12

    def test_components_reconstruct_state(self):
        spec = spec_of([(0, 2), (1, 1), (4, 3)])
        vector = prepare_state(sample_random_state(6, substream(1, 1)), spec)
        offsets = shell_offsets(spec)
        blocks = [vector[offsets[a]:offsets[a + 1]] for a in range(spec.num_levels)]
        assert [len(b) for b in blocks] == list(spec.degeneracies)
        np.testing.assert_array_equal(np.concatenate(blocks), vector)

    def test_wrong_length_rejected(self):
        spec = spec_of([(0, 2)])
        with pytest.raises(ValueError, match="length"):
            prepare_state(np.ones(3) / math.sqrt(3), spec)

    def test_unnormalized_rejected(self):
        spec = spec_of([(0, 2)])
        with pytest.raises(ValueError, match="norm"):
            prepare_state(np.array([1.0, 1.0]), spec)


class TestEvolve:
    """The float phases exp(-i E tau) of the tests' reference kernel."""

    def test_zero_time_identity(self):
        spec = spec_of([(0, 1), (1, 1), (3, 1)])
        np.testing.assert_array_equal(time_phases(level_energies(spec), [0.0]),
                                      np.ones((1, 3)))

    def test_integer_spectrum_periodic(self):
        spec = spec_of([(0, 1), (1, 2), (3, 1)])
        np.testing.assert_allclose(
            time_phases(level_energies(spec), [2 * math.pi]), np.ones((1, 3)),
            atol=1e-12)

    def test_norm_preserved(self):
        spec = spec_of([(0, 2), (F(1, 3), 2)])
        vector = prepare_state(sample_random_state(4, substream(2, 2)), spec)
        taus = np.linspace(0, 20, 17)
        weights = trajectory_weights(*kernel_inputs(spec, vector, [np.eye(4)]), taus)
        np.testing.assert_allclose(weights, 1, rtol=0, atol=1e-12)

    def test_stationary_state_constant_weights(self):
        spec = spec_of([(0, 3), (1, 2)])
        amp = np.zeros(5, dtype=complex)
        amp[:3] = sample_random_state(3, substream(2, 3))
        vector = prepare_state(amp, spec)
        dec = sample_decomposition([2, 3], substream(2, 4))
        w0 = [cell_weight(vector, c) for c in dec]
        taus = [0.3, 1.7, 9.2]
        for wt in trajectory_weights(*kernel_inputs(spec, vector, dec), taus):
            np.testing.assert_allclose(wt, w0, atol=1e-12)


class TestCellWeight:
    """Cell weights of the trajectory kernel against dense projectors."""

    def test_full_rank_is_one(self):
        v = sample_random_state(5, substream(3, 0))
        dec = sample_decomposition([5], substream(3, 1))
        assert abs(weights_now(v, dec)[0] - 1) < 1e-12
        assert abs(cell_weight(v, dec[0]) - 1) < 1e-12

    def test_orthogonal_vector_is_zero(self):
        dec = [np.eye(4)[:, [0, 1]], np.eye(4)[:, [2, 3]]]
        v = np.array([0, 0, 1, 0], dtype=complex)
        assert list(weights_now(v, dec)) == [0.0, 1.0]

    def test_weights_complete(self):
        v = sample_random_state(12, substream(3, 2))
        dec = sample_decomposition([3, 4, 5], substream(3, 3))
        weights = weights_now(v, dec)
        assert abs(weights.sum() - 1) < 1e-10
        np.testing.assert_allclose(weights, [cell_weight(v, c) for c in dec],
                                   rtol=0, atol=1e-14)


class TestExactTimeAverage:
    def test_stationary_equals_instantaneous(self):
        spec = spec_of([(2, 4)])
        vector = prepare_state(sample_random_state(4, substream(4, 0)), spec)
        cell = sample_decomposition([2, 2], substream(4, 1))[0]
        assert abs(
            exact_time_avg_weight(spec, vector, cell) - cell_weight(vector, cell)
        ) < 1e-12

    def test_full_projection_is_one(self):
        spec = spec_of([(0, 2), (1, 2)])
        vector = prepare_state(sample_random_state(4, substream(4, 2)), spec)
        cell = sample_decomposition([4], substream(4, 3))[0]
        assert abs(exact_time_avg_weight(spec, vector, cell) - 1) < 1e-12

    def test_matches_discrete_average(self):
        spec = spec_of([(0, 1), (1, 1), (2, 1), (3, 1)])
        rng = substream(4, 4)
        vector, dec = random_instance(spec, rng)
        for cell in dec:
            oracle = discrete_time_average(
                per_point(lambda tau: cell_weight(evolve(spec, vector, tau), cell),
                          integer_spread(spec)),
                spec,
                integer_spread(spec),
            )
            assert abs(exact_time_avg_weight(spec, vector, cell) - oracle) < 1e-10

    def test_convex_combination_form(self):
        # average weight equals the weight-mixture of normalized shell
        # components and therefore sits in [0, 1]
        spec = spec_of([(0, 2), (1, 3), (5, 1)])
        rng = substream(4, 6)
        vector, dec = random_instance(spec, rng)
        cell = dec[0]
        mixture = 0.0
        offsets = shell_offsets(spec)
        for a, weight in enumerate(shell_weights(spec, vector)):
            comp = np.zeros_like(vector)
            shell = slice(offsets[a], offsets[a + 1])
            comp[shell] = vector[shell]
            if weight > 0:
                mixture += weight * cell_weight(comp / np.linalg.norm(comp), cell)
        avg = exact_time_avg_weight(spec, vector, cell)
        assert avg == pytest.approx(mixture, abs=1e-12)
        assert 0.0 <= avg <= 1.0

    def test_nondegenerate_coordinate_form(self):
        # with every level simple, the shell average equals the direct
        # coordinate sum over all D levels
        spec = spec_of([(0, 1), (1, 1), (3, 1), (7, 1)])
        rng = substream(4, 5)
        vector, dec = random_instance(spec, rng)
        cell = dec[0]
        row_weights = np.sum(np.abs(cell) ** 2, axis=1)
        direct = float(np.sum(np.abs(vector) ** 2 * row_weights))
        assert abs(exact_time_avg_weight(spec, vector, cell) - direct) < 1e-12


class TestDiscreteTimeAverage:
    def test_constant(self):
        spec = spec_of([(0, 1), (2, 1)])
        assert discrete_time_average(lambda j: np.full(j.shape, 3.25), spec, 4) == pytest.approx(3.25)

    def test_pure_oscillation_vanishes(self):
        spec = spec_of([(0, 1), (1, 1)])
        avg = discrete_time_average(lambda j: np.cos(grid_times(j, 2)), spec, 1)
        assert abs(avg) < 1e-14

    @pytest.mark.parametrize("f", [1, 2, 7, 40, 9750])
    def test_least_exact_grid(self, f):
        # F + 1 points average cos(F tau) to 0; F points alias it to 1
        assert exact_grid_points(f) == f + 1
        spec = spec_of([(0, 1), (f, 1)])
        assert abs(discrete_time_average(lambda j: np.cos(f * grid_times(j, f + 1)), spec, f)) < 1e-12
        assert np.mean(np.cos(f * grid_times(np.arange(f), f))) == pytest.approx(1.0)

    @pytest.mark.parametrize("f", [0, 5, GRID_SLICE - 1, GRID_SLICE, 3 * GRID_SLICE + 7])
    def test_observable_reads_consecutive_index_slices(self, f):
        slices = []
        discrete_time_average(lambda j: slices.append(j) or np.zeros(len(j)),
                              spec_of([(0, 1)]), f)
        assert all(j.dtype == np.int64 and 1 <= len(j) <= GRID_SLICE for j in slices)
        assert np.concatenate(slices).tolist() == list(range(f + 1))

    def test_columns_average_as_separate_observables(self):
        # a (times, k) observable gives the k means of its columns, each the
        # one exactly rounded sum a 1-D observable of that column gives
        spec = spec_of([(0, 1), (3, 2), (700, 1)])
        columns = [lambda j: np.sin(grid_times(j, 1401)) ** 2,
                   lambda j: np.exp(-j / 1000.0),
                   lambda j: np.full(j.shape, 0.1)]
        means = discrete_time_average(lambda j: np.column_stack([c(j) for c in columns]),
                                      spec, 1400)
        assert means.shape == (3,)
        assert means.tolist() == [discrete_time_average(c, spec, 1400) for c in columns]

    def test_agrees_with_dense_quadrature(self):
        # independent numeric check: trapezoid rule over one full period
        spec = spec_of([(0, 1), (1, 1), (3, 1)])
        rng = substream(5, 0)
        vector, dec = random_instance(spec, rng)
        cell = dec[0]
        exact = discrete_time_average(
            per_point(lambda tau: cell_weight(evolve(spec, vector, tau), cell),
                      integer_spread(spec)),
            spec,
            integer_spread(spec),
        )
        taus = np.linspace(0, 2 * math.pi, 20001)
        dense = np.trapezoid(
            trajectory_weights(*kernel_inputs(spec, vector, dec), taus)[:, 0], taus
        ) / (2 * math.pi)
        assert abs(exact - dense) < 1e-6


class TestGridPhases:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 64, 1000, 19_501])
    def test_every_root_within_an_ulp_or_two(self, n):
        # frequency 1 reads every root once; float angles 2*pi*m/n up to
        # 2*pi gave errors up to 1.2e-15
        roots = grid_phases(spec_of([(1, 1)]), n).at(0, n)[:, 0]
        with mpmath.workprec(100):
            exact = np.array([complex(mpmath.expjpi(mpmath.mpf(-2 * m) / n))
                              for m in range(n)])
        assert np.max(np.abs(roots - exact)) <= 5e-16

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 64, 19_501, 100_003])
    def test_phases_are_the_roots_of_unity_past_int64(self, n):
        # energies beyond 2^63, negative ones and one beyond 10^30
        energies = [-(2**70) - 3, 0, 1, 2**63 + 5, 3 * 2**64 + 1, 10**30 + 7]
        spec = spec_of([(e, 1) for e in energies])
        phases = grid_phases(spec, n)
        j = sorted(x for x in {0, 1, 2, n // 4, n // 2, n - 2, n - 1} if x >= 0)
        rows = [phases.at(jj, jj + 1)[0] for jj in j]
        with mpmath.workprec(200):
            for jj, row in zip(j, rows):
                for e, value in zip(energies, row):
                    exact = mpmath.exp(-2j * mpmath.pi * ((e * jj) % n) / n)
                    assert abs(complex(exact) - value) <= 1e-15

    # energies beyond 2^63, negative ones and one beyond the float range
    PAST_INT64 = [-(2**70) - 3, -7, 0, 1, 2**63 + 5, 3 * 2**64 + 1, 10**400 + 9]

    WALKED = {
        # run's normality audit on ensemble-small's levels 0..3
        "gaps of 4 levels": lambda n: gap_phases(
            spec_of([(e, 2) for e in range(4)]).pair_index, n),
        "past int64": lambda n: grid_phases(
            spec_of([(e, 1) for e in TestGridPhases.PAST_INT64]), n),
    }

    @pytest.mark.parametrize("n", [1, 7, 97, 1000, 19_501])
    @pytest.mark.parametrize("name", WALKED)
    def test_phase_bits_do_not_depend_on_the_walk(self, name, n):
        # slices of 142 and 150 are those of ensemble-small's 170- and
        # 160-trial blocks, 1702 that of a one-trial block; the audit's
        # per-slice roots gave 142- and 150-slices 3 110 differing entries
        phases = self.WALKED[name](n)
        whole = phases.at(0, n)
        assert whole.shape == (n, phases.frequencies.size)
        for length in (1, 5, 128, 142, 150, 1702):
            walked = np.concatenate([phases.at(j, min(j + length, n))
                                     for j in range(0, n, length)])
            assert walked.tobytes() == whole.tobytes(), length

    def test_no_table_of_grid_roots(self):
        # a million-point grid keeps its PHASE_STEP small-step roots only
        phases = grid_phases(spec_of([(0, 1), (3, 2)]), 10**6)
        assert phases.at(10**6 - 5, 10**6).shape == (5, 2)
        assert vars(phases).keys() == {"grid_points", "frequencies", "steps"}
        assert phases.steps.shape == (PHASE_STEP, 2)

    def test_small_energies_match_float_phases(self):
        spec = spec_of([(-3, 2), (0, 1), (4, 3), (11, 1)])
        n = 31
        rows = grid_phases(spec, n).at(0, n)
        floats = time_phases(level_energies(spec), grid_times(np.arange(n), n))
        # one phase per level, not per coordinate
        assert rows.shape == floats.shape == (n, spec.num_levels)
        # the float phases lose about |E tau| ulps
        np.testing.assert_allclose(rows, floats, rtol=0, atol=1e-13)

    def test_offset_is_a_global_phase(self):
        n, offset = 257, 10**40 + 3
        plain = grid_phases(spec_of([(0, 1), (1, 2), (5, 1)]), n).at(0, n)
        shifted = grid_phases(spec_of([(offset, 1), (offset + 1, 2), (offset + 5, 1)]), n)
        global_phase = grid_phases(spec_of([(offset, 1)]), n).at(0, n)
        np.testing.assert_allclose(shifted.at(0, n), global_phase * plain,
                                   rtol=0, atol=1e-15)

    def test_grid_bound_keeps_index_products_in_int64(self):
        # indices and residues are below N, so their products below N^2
        assert MAX_PHASE_GRID**2 <= 2**63 - 1 < (MAX_PHASE_GRID + 1) ** 2
        spec = spec_of([(0, 1), (1, 1)])
        for n in (0, MAX_PHASE_GRID + 1):
            with pytest.raises(ValueError, match="phase grid"):
                grid_phases(spec, n)


class TestRationalEqualsIntegerCopy:
    """A rational spectrum R and its integer copy L*R, L the least common
    denominator, read the same integer levels from their pair indices, so
    every grid route gives them the same bits."""

    RATIONAL = [(0, 2), (F(1, 3), 1), (F(1, 2), 3), (F(7, 4), 1), (F(-5, 6), 2)]
    L = 12

    def pair(self):
        return (spec_of(self.RATIONAL),
                spec_of([(self.L * e, d) for e, d in self.RATIONAL]))

    def test_indices_hold_the_same_integer_levels(self):
        rational, integer = self.pair()
        assert rational.pair_index.scale == self.L and integer.pair_index.scale == 1
        assert rational.pair_index.integer_levels == integer.pair_index.integer_levels
        assert rational.pair_index.integer_levels == [-10, 0, 4, 6, 21]

    @pytest.mark.parametrize("periods", [1, 3])
    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_grid_phases_agree_bit_for_bit(self, n, periods):
        rational, integer = self.pair()
        assert (grid_phases(rational, n, periods).at(0, n).tobytes()
                == grid_phases(integer, n, periods).at(0, n).tobytes())

    def test_deviation_grid_points_agree(self):
        rational, integer = self.pair()
        assert deviation_grid_points(rational) == deviation_grid_points(integer) == 63

    @pytest.mark.parametrize("n", [7, 1000])
    def test_time_fractions_agree(self, n):
        rational, integer = self.pair()
        rng = substream(8, n)
        dec = sample_decomposition([3, 3, 3], rng)
        vector = sample_random_state(9, rng)
        fractions = [time_fraction_normal(spec, prepare_state(vector, spec), dec, 0.6,
                                          grid_points=n)
                     for spec in (rational, integer)]
        assert fractions[0] == fractions[1]
        assert 0 < fractions[0] < 1


class TestTrajectoryKernel:
    def test_weights_match_evolve_then_project(self):
        spec = spec_of([(0, 2), (1, 1), (3, 2)])
        vector, dec = random_instance(spec, substream(7, 0))
        taus = np.linspace(0.0, 7.0, 23)
        weights = trajectory_weights(*kernel_inputs(spec, vector, dec), taus)
        for tau, row in zip(taus, weights):
            psi = evolve(spec, vector, tau)
            expected = [cell_weight(psi, cell) for cell in dec]
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-14)

    def test_mixed_degeneracies_past_int64_match_the_dense_route(self):
        # one phase per level evolves shells of 5, 1 and 4 coordinates; the
        # dense reference evolves every coordinate of the unshifted spectrum,
        # which differs by a global phase only
        offset, n = 2**63 + 5, 17
        levels = [(0, 5), (1, 1), (3, 4)]
        big = spec_of([(offset + e, d) for e, d in levels])
        rng = substream(7, 2)
        spec = spec_of(levels)
        vector = prepare_state(sample_random_state(10, rng), spec)
        dec = sample_decomposition([3, 3, 4], rng)
        ranks = [3, 3, 4]
        phases = grid_phases(big, n).at(0, n)
        assert phases.shape == (n, 3)
        coords = shell_coordinates(np.hstack(dec), vector, shell_offsets(spec))
        weights = evolved_weights(phases, coords, ranks)
        for j, row in enumerate(weights):
            psi = evolve(spec, vector, 2 * math.pi * j / n)
            expected = [cell_weight(psi, cell) for cell in dec]
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-14)

    def test_fraction_counts_grid_times_within_tolerance(self):
        spec = spec_of([(0, 2), (1, 2), (2, 2), (3, 2)])
        vector, dec = random_instance(spec, substream(7, 1))
        dim, m, epsilon, n = spec.dim_total, len(dec), 0.6, 200
        inside = 0
        for j in range(n):
            psi = evolve(spec, vector, 2 * math.pi * j / n)
            inside += all(
                abs(cell_weight(psi, c) - c.shape[1] / dim)
                <= epsilon / math.sqrt(m) * math.sqrt(c.shape[1] / dim)
                for c in dec
            )
        assert time_fraction_normal(spec, vector, dec, epsilon, grid_points=n) == inside / n


class TestTimeFractionNormal:
    def test_stationary_exact_shares(self):
        # one fully degenerate level: every state is stationary; uniform
        # state on coordinate cells hits d/D exactly, so any epsilon works
        spec = spec_of([(0, 4)])
        vector = prepare_state(np.full(4, 0.5, dtype=complex), spec)
        dec = [np.eye(4)[:, [0, 1]], np.eye(4)[:, [2, 3]]]
        assert time_fraction_normal(spec, vector, dec, 1e-9, grid_points=64) == 1.0

    def test_huge_epsilon_vacuous(self):
        spec = spec_of([(0, 1), (1, 1), (2, 1), (5, 1)])
        rng = substream(6, 0)
        vector, dec = random_instance(spec, rng)
        assert time_fraction_normal(spec, vector, dec, 1e6, grid_points=128) == 1.0


class TestGapPolynomialKernel:
    """The normality kernel's gap polynomials against the evolved-coordinate
    route: every weight at every grid time, and the fraction of times."""

    # (levels, cell ranks, grid points, epsilon); every fraction lies
    # strictly between 0 and 1, so both sides of each tolerance are hit
    SHAPES = {
        "4x2 equally spaced": ([(e, 2) for e in range(4)], [2, 2, 2, 2], 300, 0.8),
        "8x32": ([(e, 32) for e in range(8)], [64, 64, 64, 64], 300, 0.05),
        "powers of 2 x4": ([(2**k, 4) for k in range(6)], [6, 6, 6, 6], 300, 0.4),
        "thirds": ([(F(k, 3), 2) for k in range(6)], [3, 3, 3, 3], 300, 0.6),
        "offset 2^63": ([(2**63, 2), (2**63 + 1, 1), (2**63 + 3, 3)], [3, 3], 300, 0.3),
        "16 rank-1 cells": ([(e, 1) for e in range(16)], [1] * 16, 300, 3.0),
        # 11 points, below 2*spread + 1 = 33: mod 11 the gaps 13 and 15 alias
        # the gaps 2 and 4
        "aliased gaps": ([(0, 2), (1, 1), (3, 2), (7, 1), (16, 2)], [4, 4], 11, 0.5),
    }

    def instance(self, name):
        levels, ranks, n, epsilon = self.SHAPES[name]
        spec = spec_of(levels)
        rng = substream(17, list(self.SHAPES).index(name))
        dec = sample_decomposition(ranks, rng)
        vector = prepare_state(sample_random_state(spec.dim_total, rng), spec)
        return spec, vector, dec, n, epsilon

    @pytest.mark.parametrize("name", SHAPES)
    def test_weights_match_evolved_coordinates(self, name):
        spec, vector, dec, n, _ = self.instance(name)
        index = spec.pair_index
        offsets = shell_offsets(spec)
        expected = evolved_weights(grid_phases(spec, n).at(0, n),
                                   shell_coordinates(np.hstack(dec), vector, offsets),
                                   [cell.shape[1] for cell in dec])
        gaps = gap_phases(index, n)
        slices = [gaps.at(j, min(j + GRID_SLICE, n)) for j in range(0, n, GRID_SLICE)]
        for k, cell in enumerate(dec):
            polynomial = weight_polynomials(gap_buckets(
                overlap_matrices(shell_coordinates(cell, vector, offsets)), index)[0])
            weights = np.concatenate([polynomial_weights(polynomial, rows) for rows in slices])
            np.testing.assert_allclose(weights, expected[:, k], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", SHAPES)
    def test_fractions_equal_the_evolved_route(self, name):
        spec, vector, dec, n, epsilon = self.instance(name)
        fraction = time_fraction_normal(spec, vector, dec, epsilon, grid_points=n)
        assert fraction == evolved_time_fraction(spec, vector, dec, epsilon, n)
        assert 0 < fraction < 1

    def test_gap_phases_reduce_exactly_past_int64(self):
        # the shifted index holds Python integers; its gaps, reduced mod 7,
        # give the unshifted spectrum's phases bit for bit
        offset = 2**63
        shifted = spec_of([(offset, 1), (offset + 1, 1), (offset + 3, 1)])
        plain = spec_of([(0, 1), (1, 1), (3, 1)])
        assert shifted.pair_index.gap_values.dtype == object
        far, near = (gap_phases(spec.pair_index, 7).at(0, 7) for spec in (shifted, plain))
        assert far.shape == (7, 3)
        assert far.tobytes() == near.tobytes()
