"""Spectrum parsing and gap/sum combinatorics."""

import json
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import (
    Spectrum,
    SpectrumError,
    classify,
    gap_structure,
    parse_spectrum,
    structure_report,
    sum_structure,
)
from ergolab.randomness import substream

from support import (
    brute_max_gap_degeneracy,
    brute_max_sum_degeneracy,
    brute_pair_classes,
    random_nonresonant_levels,
    structure_report_reference,
)


def simple(*energies):
    return Spectrum(tuple((F(e), 1) for e in energies))


def doc(levels):
    return {"levels": [{"energy": e, "degeneracy": d} for e, d in levels]}


class TestParse:
    def test_simple_levels(self):
        spec = parse_spectrum(doc([(0, 1), (1, 1), (3, 1)]))
        assert spec.num_levels == 3
        assert spec.dim_total == 3
        assert spec.energies == (F(0), F(1), F(3))

    def test_degeneracy_sum(self):
        spec = parse_spectrum(doc([(0, 2), (1, 1)]))
        assert spec.num_levels == 2
        assert spec.dim_total == 3

    def test_duplicate_energy_rejected(self):
        with pytest.raises(SpectrumError, match="duplicate"):
            parse_spectrum(doc([(0, 1), (0, 1)]))

    def test_duplicate_reports_colliding_value(self):
        with pytest.raises(SpectrumError, match="1/2"):
            parse_spectrum(doc([("1/2", 1), ("2/4", 1)]))

    def test_nonpositive_degeneracy_rejected(self):
        with pytest.raises(SpectrumError, match="degeneracy"):
            parse_spectrum(doc([(0, 0)]))

    def test_malformed_number_rejected(self):
        with pytest.raises(SpectrumError, match="malformed"):
            parse_spectrum(doc([("abc", 1)]))
        with pytest.raises(SpectrumError, match="malformed"):
            parse_spectrum(doc([("1/0", 1)]))

    def test_rational_strings_exact(self):
        spec = parse_spectrum(doc([("1/3", 1), ("2/3", 2)]))
        assert spec.energies == (F(1, 3), F(2, 3))
        assert not spec.approximate

    def test_sorted_canonical_form(self):
        spec = parse_spectrum(doc([(5, 1), (0, 2), (3, 1)]))
        assert spec.energies == (F(0), F(3), F(5))

    def test_float_requires_snap(self):
        with pytest.raises(SpectrumError, match="snap"):
            parse_spectrum(doc([(0.5, 1)]))

    def test_float_snapped_and_flagged(self):
        spec = parse_spectrum(doc([(0.5001, 1), (0, 1)]), snap_denominator=2)
        assert spec.energies == (F(0), F(1, 2))
        assert spec.approximate

    def test_empty_and_missing(self):
        with pytest.raises(SpectrumError):
            parse_spectrum({})
        with pytest.raises(SpectrumError):
            parse_spectrum({"levels": []})

    def test_fractional_snap_denominator_refused(self):
        # not truncated to 2, which would snap 0.75 to 1/2
        with pytest.raises(TypeError):
            parse_spectrum(doc([(0.75, 1), (0, 1)]), snap_denominator=2.5)


class TestSpectrumChecks:
    """The library constructor checks every level as a document's are."""

    @pytest.mark.parametrize("levels, fragment", [
        (((0, 2.5), (1, 1)), "level 0: degeneracy must be a positive integer, got 2.5"),
        (((0, 1), (1, True)), "level 1: degeneracy must be a positive integer, got True"),
        (((0, 1), (1, 0)), "level 1: degeneracy must be a positive integer, got 0"),
        (((0.1, 1), (1, 1)), "level 0: energy must be an exact rational, got 0.1"),
        (((0, 1), (True, 1)), "level 1: energy must be an exact rational, got True"),
        (((0, 1), ("1/2", 1)), "level 1: energy must be an exact rational, got '1/2'"),
        (((0, 1), (10**5000, 1)), "level 1: twice the energy's magnitude"),
        (((0, 9 * 10**4299), (1, 10**4299)), "level 1: the sum of the degeneracies"),
        (((0, 1), (F(1, 2**7000), 1), (F(1, 3**5000), 1)),
         "level 2: the common denominator of the energies up to this level"),
    ])
    def test_bad_level_refused_by_name(self, levels, fragment):
        with pytest.raises(SpectrumError, match=re.escape(fragment)):
            Spectrum(levels)

    def test_level_that_is_not_a_pair_refused_by_name(self):
        # three items, a bare number and one item: no unpacking error escapes
        for levels, got in [(((0, 1, 2),), "(0, 1, 2)"), ((5,), "5"), (((0,),), "(0,)"),
                            (((0, 1), (1, 1, 1)), "(1, 1, 1)")]:
            i = len(levels) - 1
            with pytest.raises(SpectrumError, match=re.escape(
                    f"level {i}: must be an (energy, degeneracy) pair, got {got}")):
                Spectrum(levels)

    def test_numpy_integers_accepted_as_python_ints(self):
        big = np.int32(2**31 - 1)
        spec = Spectrum(((np.int64(3), big), (F(1, 2), np.uint8(1)), (-1, big)))
        assert spec.levels == ((F(-1), big), (F(1, 2), 1), (F(3), big))
        assert all(type(d) is int for d in spec.degeneracies)
        assert spec.dim_total == 2**32 - 1  # no int32 sum wraps around
        assert spec.pair_index.scale == 2


class TestStructures:
    def test_all_gaps_distinct(self):
        gaps = gap_structure(simple(0, 1, 3))
        assert gaps.max_gap_degeneracy == 1

    def test_repeated_gap(self):
        gaps = gap_structure(simple(0, 1, 2))
        assert gaps.entries[F(1)] == ((0, 1), (1, 2))
        assert gaps.max_gap_degeneracy == 2

    def test_single_level_gap(self):
        gaps = gap_structure(Spectrum(((F(0), 1),)))
        assert gaps.entries == {F(0): ((0, 0),)}
        assert gaps.max_gap_degeneracy == 0

    def test_sum_pairs_with_swaps(self):
        sums = sum_structure(simple(0, 1, 3))
        assert max(len(p) for p in sums.entries.values()) == 2
        assert sums.max_sum_degeneracy == 2

    def test_sum_triple(self):
        sums = sum_structure(simple(0, 1, 2))
        assert sums.entries[F(2)] == ((0, 2), (1, 1), (2, 0))
        assert sums.max_sum_degeneracy == 3

    def test_single_level_sum(self):
        sums = sum_structure(Spectrum(((F(0), 1),)))
        assert sums.entries == {F(0): ((0, 0),)}
        assert sums.max_sum_degeneracy == 1


class TestClassify:
    def test_nondegenerate_nonresonant(self):
        assert classify(simple(0, 1, 3)) == (True, True)

    def test_degenerate_nonresonant(self):
        spec = Spectrum(((F(0), 2), (F(1), 1)))
        assert classify(spec) == (False, True)

    def test_nondegenerate_resonant(self):
        assert classify(simple(0, 1, 2)) == (True, False)


class TestNonresonantSumDegeneracy:
    """A non-resonant spectrum of at least two levels has D_F = 2: every sum
    value is carried by at most a pair and its swap."""

    def test_holds(self):
        spec = simple(0, 1, 3)
        assert classify(spec).non_resonant
        assert spec.pair_index.max_sum_degeneracy == 2

    def test_resonant_exceeds_two(self):
        # 0 + 2 = 1 + 1: the pairs (0, 2), (2, 0) and (1, 1) share a sum
        spec = simple(0, 1, 2)
        assert not classify(spec).non_resonant
        assert spec.pair_index.max_sum_degeneracy == 3

    def test_smallest_nonresonant(self):
        spec = simple(0, 1)
        assert classify(spec).non_resonant
        assert spec.pair_index.max_sum_degeneracy == 2
        assert sum_structure(spec).max_sum_degeneracy == 2

    def test_single_level_has_one_pair(self):
        # the property needs two levels: one level carries only (0, 0)
        assert Spectrum(((F(0), 3),)).pair_index.max_sum_degeneracy == 1


level_lists = st.lists(
    st.tuples(st.integers(-30, 30), st.integers(1, 4)),
    min_size=1,
    max_size=8,
    unique_by=lambda t: t[0],
)


@st.composite
def spectra(draw):
    return Spectrum(tuple((F(e), d) for e, d in draw(level_lists)))


@settings(max_examples=150, derandomize=True)
@given(spectra())
def test_counting_invariants(spec):
    gaps = gap_structure(spec)
    sums = sum_structure(spec)
    d_e = spec.num_levels
    assert len(gaps.entries[F(0)]) == d_e
    assert sum(len(p) for v, p in gaps.entries.items() if v != 0) == d_e * (d_e - 1)
    assert sum(len(p) for p in sums.entries.values()) == d_e**2
    # swap symmetry
    for value, pairs in gaps.entries.items():
        for a, b in pairs:
            assert (b, a) in gaps.entries[-value]
    for pairs in sums.entries.values():
        for a, b in pairs:
            assert (b, a) in pairs
    # every ordered pair lands in exactly one sum entry
    all_pairs = [p for pairs in sums.entries.values() for p in pairs]
    assert len(all_pairs) == len(set(all_pairs)) == d_e**2
    if d_e >= 2:
        assert sums.max_sum_degeneracy >= 2


@settings(max_examples=100, derandomize=True)
@given(spectra())
def test_brute_force_degeneracies(spec):
    energies = spec.energies
    expected_gap = brute_max_gap_degeneracy(energies) if spec.num_levels > 1 else 0
    assert gap_structure(spec).max_gap_degeneracy == expected_gap
    assert sum_structure(spec).max_sum_degeneracy == brute_max_sum_degeneracy(energies)


# Rationals, plus integers whose gaps and sums overflow int64.
exact_energies = st.one_of(
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    st.integers(2**62, 2**66).map(F),
)


@settings(max_examples=100, derandomize=True)
@given(st.lists(st.tuples(exact_energies, st.integers(1, 3)), min_size=1,
                max_size=7, unique_by=lambda t: t[0]))
def test_tables_match_fraction_grouping(levels):
    spec = Spectrum(tuple(levels))
    energies = spec.energies
    gaps = brute_pair_classes(energies, lambda e_a, e_b: e_b - e_a)
    sums = brute_pair_classes(energies, lambda e_a, e_b: e_a + e_b)
    # Same values, in the same order, with the same pairs: reports built
    # from the tables are byte-identical to ones built by Fraction grouping.
    assert list(gap_structure(spec).entries.items()) == list(gaps.items())
    assert list(sum_structure(spec).entries.items()) == list(sums.items())
    assert gap_structure(spec).max_gap_degeneracy == max(
        (len(p) for v, p in gaps.items() if v != 0), default=0)
    assert sum_structure(spec).max_sum_degeneracy == max(map(len, sums.values()))


def test_int64_overflow_falls_back_to_python_ints():
    big = 2**62
    spec = simple(0, big, 2 * big, F(1, 3))
    assert spec.pair_index.gap_values.dtype == object
    assert simple(0, big - 1).pair_index.gap_values.dtype == np.int64
    assert gap_structure(spec).entries[F(big)] == ((0, 2), (2, 3))
    assert classify(spec) == (True, False)
    assert sum_structure(spec).entries[F(4 * big)] == ((3, 3),)


@settings(max_examples=100, derandomize=True)
@given(spectra(), st.fractions(min_value=-5, max_value=5, max_denominator=6))
def test_shift_invariance(spec, shift):
    shifted = Spectrum(tuple((e + shift, d) for e, d in spec.levels))
    assert gap_structure(spec).entries == gap_structure(shifted).entries
    base = sum_structure(spec).entries
    moved = sum_structure(shifted).entries
    assert {v + 2 * shift: p for v, p in base.items()} == moved


def test_nonresonant_implies_sum_degeneracy_two():
    # random spectra with up to 12 distinct levels, checked exhaustively
    rng = substream(404, 0)
    for trial in range(200):
        n = int(rng.integers(2, 13))
        levels = random_nonresonant_levels(rng, n)
        spec = simple(*levels)
        assert classify(spec).non_resonant
        assert spec.pair_index.max_sum_degeneracy == 2
        assert sum_structure(spec).max_sum_degeneracy == 2


def test_structure_report_round_trip():
    spec = Spectrum(((F(0), 2), (F(1, 2), 1), (F(3), 1)))
    report = structure_report(spec)
    assert set(report) >= {"D", "D_E", "D_G", "D_F", "non_degenerate",
                           "non_resonant", "gaps", "sums"}
    assert report["D"] == 4 and report["D_E"] == 3
    # the report's own levels block parses back to the same spectrum
    again = parse_spectrum({"levels": report["levels"]})
    assert again == spec
    # the report through the documented JSON recipe, and its class dicts
    # with their pair arrays as lists, give the reference report
    reference = structure_report_reference(spec)
    assert json.loads(json.dumps(report, default=np.ndarray.tolist)) == reference
    for table in ("gaps", "sums"):
        assert [{**c, "pairs": c["pairs"].tolist()} for c in report[table]] == reference[table]
    assert sum(c["count"] for c in report["sums"]) == spec.num_levels ** 2
    # every class's pairs are a view of one stacked array
    base = report["gaps"][0]["pairs"].base
    assert base is not None and all(c["pairs"].base is base for c in report["gaps"])
