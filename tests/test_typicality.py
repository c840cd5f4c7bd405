"""Deviation functional: exact evaluation, bounds, and asymptotic conditions."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from ergolab import (
    Spectrum,
    TheoremParams,
    admissible_constant_crossover,
    deviation_breakdowns,
    deviation_exact,
    discrete_time_average,
    ergodicity_gap,
    exact_time_avg_weight,
    find_admissible_constant,
    gap_buckets,
    gap_structure,
    mean_deviation_bound,
    prepare_state,
    resonance_impact,
    resonant_term_bound,
    sample_decomposition,
    sample_random_state,
    shell_overlap_matrix,
    substream,
    sufficient_condition,
    sum_structure,
    theorem_condition,
)

from support import (
    brute_max_gap_degeneracy,
    brute_max_sum_degeneracy,
    brute_resonant_cross_terms,
    cell_weight,
    evolve,
    integer_spread,
    per_point,
    random_composition,
    random_instance,
    random_integer_spectrum,
    random_nonresonant_levels,
    shared_gap_breakdowns,
)

SPIN_CHAIN_SCALE = dict(dim=2**100, rank=10**8, cells=10**22)


def spec_of(levels):
    return Spectrum(tuple((F(e), d) for e, d in levels))


def oracle_deviation(spec, vector, cell):
    """The trajectory oracle on the spectrum's integer levels, whose time
    tau is the spectrum's own time scale * tau, scale its pair index's."""
    frac = cell.shape[1] / spec.dim_total
    scale = spec.pair_index.scale
    return discrete_time_average(
        per_point(lambda tau: (cell_weight(evolve(spec, vector, scale * tau), cell) - frac) ** 2,
                  2 * integer_spread(spec)),
        spec,
        2 * integer_spread(spec),
    )


class TestDeviationExact:
    def test_stationary_single_shell(self):
        spec = spec_of([(0, 4)])
        vector = prepare_state(sample_random_state(4, substream(1, 0)), spec)
        cell = sample_decomposition([2, 2], substream(1, 1))[0]
        b = deviation_exact(spec, vector, cell)
        w = cell_weight(vector, cell)
        assert b["total"] == pytest.approx((w - 0.5) ** 2, abs=1e-12)
        assert b["offdiag_sum"] == pytest.approx(0.0, abs=1e-12)
        assert b["resonant_term"] == 0.0

    def test_resonant_matches_oracle(self):
        spec = spec_of([(0, 1), (1, 1), (2, 1), (3, 1)])
        rng = substream(1, 2)
        vector, dec = random_instance(spec, rng)
        for cell in dec:
            b = deviation_exact(spec, vector, cell)
            assert abs(b["total"] - oracle_deviation(spec, vector, cell)) < 1e-10

    def test_nonresonant_empty_resonant_part(self):
        spec = spec_of([(0, 1), (1, 1), (3, 1), (7, 1)])
        rng = substream(1, 3)
        vector, dec = random_instance(spec, rng)
        for cell in dec:
            b = deviation_exact(spec, vector, cell)
            assert b["resonant_term"] == 0.0
            assert abs(b["total"] - oracle_deviation(spec, vector, cell)) < 1e-10

    def test_both_regroupings_agree(self):
        rng = substream(1, 4)
        for levels in ([(0, 2), (1, 2), (2, 1)], [(0, 1), (2, 3), (3, 2)]):
            spec = spec_of(levels)
            vector, dec = random_instance(spec, rng)
            for cell in dec:
                b = deviation_exact(spec, vector, cell)
                first = (b["cell_fraction_sq"] + b["degeneracy_term"] + b["nonresonant_term"]
                         + b["resonant_term"])
                second = b["offdiag_sum"] + b["diag_dev_sq"] + b["resonant_term"]
                assert abs(first - b["total"]) <= 1e-14 and abs(second - b["total"]) <= 1e-14
                assert b["total"] >= 0 and b["offdiag_sum"] >= 0 and b["diag_dev_sq"] >= 0

    def test_nan_amplitude_fails_the_finiteness_check(self):
        spec = spec_of([(0, 2), (1, 2)])
        vector = prepare_state(sample_random_state(4, substream(1, 7)), spec)
        vector[1] = np.nan
        cell = sample_decomposition([2, 2], substream(1, 8))[0]
        with pytest.raises(ArithmeticError, match="not finite"):
            deviation_exact(spec, vector, cell)

    def test_stack_equals_single_cells(self):
        # one kernel: the buckets of a stack of overlap matrices give,
        # matrix by matrix, exactly the breakdown of deviation_exact
        spec = spec_of([(0, 2), (1, 2), (2, 1), (3, 2)])
        rng = substream(1, 9)
        vectors = [prepare_state(sample_random_state(7, rng), spec) for _ in range(5)]
        cells = [sample_decomposition([2, 5], rng)[0] for _ in range(5)]
        stack = np.stack([shell_overlap_matrix(spec, v, c) for v, c in zip(vectors, cells)])
        b = deviation_breakdowns(gap_buckets(stack, spec.pair_index), 2 / 7)
        assert b["resonant_term"].shape == (5,)
        for i, (vector, cell) in enumerate(zip(vectors, cells)):
            one = deviation_exact(spec, vector, cell)
            assert one.keys() == b.keys()
            for name, value in one.items():
                assert np.broadcast_to(b[name], (5,))[i] == value, name


class TestResonantTerm:
    def test_brute_force_enumeration(self):
        spec = spec_of([(0, 1), (1, 1), (2, 1)])
        rng = substream(2, 0)
        vector, dec = random_instance(spec, rng)
        cell = dec[0]
        s = shell_overlap_matrix(spec, vector, cell)
        expected = brute_resonant_cross_terms(s, spec.energies)
        term = deviation_exact(spec, vector, cell)["resonant_term"]
        assert term == pytest.approx(expected, abs=1e-12)
        assert expected != 0.0  # generically nonzero for this spectrum

    def test_brute_force_degenerate_resonant(self):
        spec = spec_of([(0, 2), (1, 1), (2, 2), (4, 1)])
        rng = substream(2, 1)
        vector, dec = random_instance(spec, rng)
        for cell in dec:
            s = shell_overlap_matrix(spec, vector, cell)
            expected = brute_resonant_cross_terms(s, spec.energies)
            term = deviation_exact(spec, vector, cell)["resonant_term"]
            assert term == pytest.approx(expected, abs=1e-12)

    def test_bound_chain(self):
        rng = substream(2, 2)
        for levels in ([(0, 1), (1, 1), (2, 1)], [(0, 2), (1, 2), (2, 2)],
                       [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]):
            spec = spec_of(levels)
            d_f = sum_structure(spec).max_sum_degeneracy
            for _ in range(10):
                vector, dec = random_instance(spec, rng)
                for cell in dec:
                    term = deviation_exact(spec, vector, cell)["resonant_term"]
                    bound = resonant_term_bound(exact_time_avg_weight(spec, vector, cell), d_f)
                    assert term <= bound + 1e-12

    def test_bound_trivial_cases(self):
        spec = spec_of([(0, 1), (1, 1), (3, 1)])
        rng = substream(2, 3)
        vector, dec = random_instance(spec, rng)
        assert deviation_exact(spec, vector, dec[0])["resonant_term"] == 0.0
        assert resonant_term_bound(exact_time_avg_weight(spec, vector, dec[0]), 2) == 0.0
        # full projection: the time-averaged weight is 1, bound is F - 2
        full = sample_decomposition([spec.dim_total], substream(2, 4))[0]
        assert resonant_term_bound(exact_time_avg_weight(spec, vector, full), 5) == pytest.approx(
            3.0, abs=1e-10)

    def test_positivity_inequality(self):
        # real part of any cross term is dominated by the diagonal average
        spec = spec_of([(0, 2), (1, 2), (2, 1)])
        rng = substream(2, 5)
        vector, dec = random_instance(spec, rng)
        s = shell_overlap_matrix(spec, vector, dec[0])
        n = spec.num_levels
        for a in range(n):
            for sig in range(n):
                for b in range(n):
                    for g in range(n):
                        lhs = (s[a, b] * s[sig, g]).real
                        rhs = 0.5 * (s[a, a].real * s[sig, sig].real
                                     + s[b, b].real * s[g, g].real)
                        assert lhs <= rhs + 1e-12


class TestGapBucketKernel:
    """The gap-bucket kernel against the quadruple-loop resonance sum and
    the trajectory oracle, on random spectra of every kind."""

    @staticmethod
    def check(spec, rng, with_oracle=True):
        gaps, sums = gap_structure(spec), sum_structure(spec)
        energies = spec.energies
        assert gaps.max_gap_degeneracy == (
            brute_max_gap_degeneracy(energies) if spec.num_levels > 1 else 0)
        assert sums.max_sum_degeneracy == brute_max_sum_degeneracy(energies)
        vector, dec = random_instance(spec, rng)
        for cell in dec:
            expected = brute_resonant_cross_terms(
                shell_overlap_matrix(spec, vector, cell), energies)
            b = deviation_exact(spec, vector, cell)
            assert b["resonant_term"] == pytest.approx(expected, abs=1e-12)
            if with_oracle:
                assert abs(b["total"] - oracle_deviation(spec, vector, cell)) < 1e-10

    def test_integer_and_degenerate_spectra(self):
        rng = substream(6, 0)
        for _ in range(25):
            self.check(random_integer_spectrum(rng, dim_range=(3, 10)), rng)

    def test_rational_spectra(self):
        rng = substream(6, 1)
        for _ in range(15):
            spec = random_integer_spectrum(rng, dim_range=(3, 9), spread=10)
            q = int(rng.choice([2, 3, 6]))
            shift = F(int(rng.integers(-3, 4)), 5)
            self.check(spec_of([(e / q + shift, d) for e, d in spec.levels]), rng)

    def test_python_int_fallback(self):
        # Rescaled by 3, these energies exceed int64; 2**70 recurs as a gap.
        big = 2**70
        spec = spec_of([(0, 2), (F(1, 3), 1), (big, 1), (2 * big, 2), (2 * big + 1, 1)])
        assert spec.pair_index.gap_values.dtype == object
        rng = substream(6, 2)
        for _ in range(3):
            self.check(spec, rng, with_oracle=False)

    def test_nonresonant_exactly_zero(self):
        rng = substream(6, 3)
        for _ in range(20):
            levels = random_nonresonant_levels(rng, int(rng.integers(2, 7)))
            degens = random_composition(rng, len(levels) + 3, len(levels))
            q = int(rng.integers(1, 5))
            spec = spec_of([(F(e, q), d) for e, d in zip(levels, degens)])
            vector, dec = random_instance(spec, rng)
            for cell in dec:
                assert deviation_exact(spec, vector, cell)["resonant_term"] == 0.0


def resonant_levels(rng):
    """n = 5 to 8 simple levels among the integers 0..n+2: their
    n(n - 1)/2 positive gaps take at most n + 2 values, fewer once n > 4,
    so some gap recurs."""
    n = int(rng.integers(5, 9))
    return spec_of([(int(e), 1) for e in np.sort(rng.choice(n + 3, size=n, replace=False))])


def nonresonant_levels(rng):
    levels = random_nonresonant_levels(rng, int(rng.integers(2, 7)))
    degens = random_composition(rng, len(levels) + 3, len(levels))
    return spec_of(list(zip(levels, degens)))


class TestBucketKernelAgainstReference:
    """Every breakdown key of the bucket kernel, on stacks and on single
    matrices, against the both-sign shared-gap formula it replaced, and its
    resonant term against the quadruple-loop cross terms."""

    SPECTRA = {
        "resonant": resonant_levels,
        "degenerate": lambda rng: random_integer_spectrum(rng, dim_range=(4, 10)),
        "nonresonant": nonresonant_levels,
    }

    @pytest.mark.parametrize("kind", SPECTRA)
    def test_every_key_matches_the_shared_gap_formula(self, kind):
        rng = substream(8, list(self.SPECTRA).index(kind))
        for _ in range(8):
            spec = self.SPECTRA[kind](rng)
            index, dim, levels = spec.pair_index, spec.dim_total, spec.num_levels
            rank = int(rng.integers(1, dim + 1))
            stack = np.stack([
                shell_overlap_matrix(spec, prepare_state(sample_random_state(dim, rng), spec),
                                     sample_decomposition([dim], rng)[0][:, :rank])
                for _ in range(4)])
            # |S[a, b]| <= n_a n_b for the shell norms n, whose squares sum
            # to 1, so every key sums at most D_E^2 terms whose moduli sum
            # to at most D_E^2: a rounding error below D_E^4 ulp of 1
            tol = levels**4 * np.finfo(float).eps
            got = deviation_breakdowns(gap_buckets(stack, index), rank / dim)
            want = shared_gap_breakdowns(stack, rank / dim, index)
            assert got.keys() == want.keys()
            for name in want:
                np.testing.assert_allclose(got[name], want[name], rtol=0, atol=tol, err_msg=name)
            for i, s in enumerate(stack):
                one = deviation_breakdowns(gap_buckets(s, index), rank / dim)
                for name, value in one.items():
                    assert np.broadcast_to(got[name], (4,))[i] == value, name
                expected = brute_resonant_cross_terms(s, spec.energies)
                assert abs(one["resonant_term"] - expected) <= tol
            if kind == "nonresonant":
                assert np.all(got["resonant_term"] == 0.0)
                assert np.all(want["resonant_term"] == 0.0)
            if kind == "resonant":
                assert index.max_gap_degeneracy >= 2


class TestSufficientAndErgodicity:
    def test_zero_deviation_always_sufficient(self):
        params = TheoremParams(0.5, 0.5, 0.5, 4)
        assert sufficient_condition(0.0, params, 2, 16)

    def test_boundary_inclusive(self):
        params = TheoremParams(1.0, 1.0, 0.5, 2)
        threshold = 0.5 * (1.0 / 2) ** 2 * (4 / 16)
        assert sufficient_condition(threshold, params, 4, 16)
        assert not sufficient_condition(threshold * (1 + 1e-9), params, 4, 16)

    def test_gap_below_total(self):
        rng = substream(3, 0)
        for levels in ([(0, 1), (1, 2), (2, 1)], [(0, 1), (1, 1), (4, 1), (6, 1)]):
            spec = spec_of(levels)
            for _ in range(10):
                vector, dec = random_instance(spec, rng)
                for cell in dec:
                    b = deviation_exact(spec, vector, cell)
                    assert ergodicity_gap(spec, vector, cell) <= b["total"] + 1e-12
                    # trace(S) is the independent time average, to rounding
                    avg = exact_time_avg_weight(spec, vector, cell)
                    assert b["time_avg_weight"] == pytest.approx(avg, abs=1e-14)
                    assert b["diag_dev_sq"] == pytest.approx(ergodicity_gap(spec, vector, cell),
                                                          abs=1e-14)

    def test_stationary_share_has_zero_gap(self):
        spec = spec_of([(0, 4)])
        vector = prepare_state(np.full(4, 0.5, dtype=complex), spec)
        cell = np.eye(4)[:, [0, 1]]
        assert ergodicity_gap(spec, vector, cell) < 1e-15


class TestMeanBound:
    def test_nonresonant_reduces_to_log_term(self):
        assert mean_deviation_bound(64, 8, 2) == pytest.approx(10 * math.log(64) / 64)

    def test_frozen_values(self):
        assert mean_deviation_bound(64, 8, 2) == pytest.approx(0.6498254818, abs=1e-9)
        assert mean_deviation_bound(64, 8, 5) == pytest.approx(0.6967004818, abs=1e-9)

    def test_log_base_configurable(self):
        assert mean_deviation_bound(64, 8, 2, log_base=10) == pytest.approx(
            10 * math.log10(64) / 64
        )


class TestTheoremCondition:
    def test_hundred_spin_scale_holds_at_c_1e6(self):
        params = TheoremParams(1e20, 1.0, 1.0, SPIN_CHAIN_SCALE["cells"], 1e6)
        v = theorem_condition(params, SPIN_CHAIN_SCALE["rank"], SPIN_CHAIN_SCALE["dim"], 2)
        assert v["holds"]
        assert 1e-30 < float(v["lhs"]) < 1e-22
        assert float(v["d_over_D"]) == pytest.approx(7.8886e-23, rel=1e-3)

    def test_hundred_spin_scale_marginal_at_c_1e7(self):
        params = TheoremParams(1e20, 1.0, 1.0, SPIN_CHAIN_SCALE["cells"], 1e7)
        assert not theorem_condition(
            params, SPIN_CHAIN_SCALE["rank"], SPIN_CHAIN_SCALE["dim"], 2
        )["holds"]

    def test_upper_bound_violation_fails(self):
        # d/D = 1/2 >= 1/C for C = 3: fails regardless of other params
        params = TheoremParams(100.0, 1.0, 1.0, 2, 3.0)
        assert not theorem_condition(params, 8, 16, 2)["holds"]

    def test_resonance_penalty_can_flip(self):
        base = TheoremParams(5.0, 1.0, 1.0, 2, 1.5)
        lo = theorem_condition(base, 100, 4096, 2)
        hi = theorem_condition(base, 100, 4096, 5000)
        assert float(lo["lhs"]) < float(hi["lhs"])

    def test_param_validation(self):
        with pytest.raises(ValueError):
            TheoremParams(0.0, 0.5, 0.5, 2)
        with pytest.raises(ValueError):
            TheoremParams(1.0, 1.5, 0.5, 2)
        with pytest.raises(ValueError):
            TheoremParams(1.0, 0.5, 0.0, 2)
        with pytest.raises(ValueError):
            TheoremParams(1.0, 0.5, 0.5, 2, constant=1.0)

    def test_fractional_cell_count_refused(self):
        # not truncated to 2 cells
        with pytest.raises(TypeError):
            TheoremParams(epsilon=1, delta=.1, delta_prime=.1, num_cells=2.5)


class TestResonanceImpact:
    def test_minimal_sum_degeneracy_passes_when_budget_large(self):
        out = resonance_impact(2**100, 10**22, 2)
        assert out["small"]

    def test_single_cell_fails(self):
        assert not resonance_impact(2**100, 1, 2)["small"]

    def test_margin_controls_verdict(self):
        dim, cells = SPIN_CHAIN_SCALE["dim"], SPIN_CHAIN_SCALE["cells"]
        assert resonance_impact(dim, cells, 10**16, margin=1.0)["small"]
        assert not resonance_impact(dim, cells, 10**16, margin=10.0)["small"]


class TestAdmissibleConstant:
    def test_crossover_at_hundred_spin_scale(self):
        c = admissible_constant_crossover(SPIN_CHAIN_SCALE["dim"], SPIN_CHAIN_SCALE["rank"])
        assert 1e6 < float(c) < 1e7
        assert float(c) == pytest.approx(1e8 / math.log(2**100), rel=1e-9)

    def test_rank_not_below_dim_gives_none(self):
        assert find_admissible_constant(16, 16) is None
        assert find_admissible_constant(16, 20) is None

    def test_hundred_spin_scale_value(self):
        c = find_admissible_constant(SPIN_CHAIN_SCALE["dim"], SPIN_CHAIN_SCALE["rank"])
        assert c is not None
        assert 1e6 < float(c) < 1.45e6
        assert float(c) < float(
            admissible_constant_crossover(SPIN_CHAIN_SCALE["dim"], SPIN_CHAIN_SCALE["rank"])
        )

    def test_desk_scale_value(self):
        # the largest power of 1.01 below min(8 / log 64, 64 / 8) = 1.92
        c = float(find_admissible_constant(64, 8))
        assert c == pytest.approx(1.01**65, rel=1e-12)
        assert c < float(admissible_constant_crossover(64, 8)) < 1.01 * c
