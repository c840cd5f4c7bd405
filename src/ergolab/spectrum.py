"""Exact Hamiltonian spectra and their gap / energy-sum combinatorics.

A spectrum is a sorted list of distinct rational energies, each carrying a
positive degeneracy.  From it we build two value-indexed families over
ordered pairs of level indices: the gap structure (pairs grouped by energy
difference) and the sum structure (pairs grouped by energy sum).  Grouping
is exact throughout; equality of gap or sum values is never decided by a
floating-point tolerance, because the downstream time-averaging identities
require exact value collisions.

Every collision is decided once per spectrum, by :class:`PairIndex`: the
energies are rescaled to integers by the least common multiple of their
denominators, and ``np.unique`` over the integer gap and sum tables gives
each ordered pair the rank of its value.  The degeneracy maxima, the
classification, the deviation kernel's gap buckets, the report's gap and
sum tables and the Fraction-keyed tables all derive from that one index.
The report tables are plain lists of class dicts whose level pairs are
slices of one integer array, so no per-pair Python object is built.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, NamedTuple

import numpy as np

__all__ = [
    "SpectrumError",
    "Spectrum",
    "PairIndex",
    "GapStructure",
    "SumStructure",
    "Classification",
    "json_int",
    "parse_spectrum",
    "gap_structure",
    "sum_structure",
    "classify",
    "structure_report",
]

# Most digits of an integer the program takes as text: Python converts at
# most 4300 digits of an int to text or back, and every energy and integer
# flag is written into a report.  A string energy's decimal exponent is
# bounded by it before the power of ten is formed.  DIGIT_LIMIT is the
# least integer with more digits.
MAX_DIGITS = 4300
DIGIT_LIMIT = 10**MAX_DIGITS


class SpectrumError(ValueError):
    """Malformed or inconsistent spectrum input."""


def json_int(text: str) -> int:
    """The ``parse_int`` of every JSON document the program reads: an
    integer of at most MAX_DIGITS digits, refused before it is converted."""
    digits = len(text.lstrip("-"))
    if digits > MAX_DIGITS:
        raise ValueError(f"a JSON integer has {digits} digits, beyond the limit of {MAX_DIGITS}")
    return int(text)


@dataclass(frozen=True)
class Spectrum:
    """Distinct energy levels in ascending order with their degeneracies.

    ``levels`` is a tuple of ``(energy, degeneracy)`` pairs; energies are
    exact :class:`~fractions.Fraction` values (dimensionless, hbar = 1).
    ``approximate`` marks spectra whose energies were snapped from floats.
    """

    levels: tuple[tuple[Fraction, int], ...]
    approximate: bool = False

    def __post_init__(self):
        if not self.levels:
            raise SpectrumError("spectrum must contain at least one level")
        canonical = tuple(
            sorted((Fraction(e), int(d)) for e, d in self.levels)
        )
        object.__setattr__(self, "levels", canonical)
        seen: set[Fraction] = set()
        for energy, deg in canonical:
            if deg < 1:
                raise SpectrumError(
                    f"non-positive degeneracy {deg} for energy {energy}"
                )
            if energy in seen:
                raise SpectrumError(f"duplicate energy value {energy}")
            seen.add(energy)

    @property
    def energies(self) -> tuple[Fraction, ...]:
        return tuple(e for e, _ in self.levels)

    @property
    def degeneracies(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.levels)

    @property
    def num_levels(self) -> int:
        """Number of distinct eigenvalues."""
        return len(self.levels)

    @property
    def dim_total(self) -> int:
        """Full Hilbert-space dimension (degeneracies included)."""
        return sum(d for _, d in self.levels)

    @property
    def is_integer(self) -> bool:
        return all(e.denominator == 1 for e, _ in self.levels)

    @property
    def spread(self) -> Fraction:
        """Largest minus smallest energy."""
        return self.levels[-1][0] - self.levels[0][0]

    @cached_property
    def pair_index(self) -> PairIndex:
        """Integer gap and sum classes of the level pairs, built on first use."""
        return PairIndex(self.energies)


# Rescaled energies at or beyond this magnitude could overflow int64 in a
# gap or a sum, so the index then holds them as Python integers.
_INT64_SAFE = 2**62


def _classes(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted distinct values, the rank of each entry's value, and counts."""
    return np.unique(table.ravel(), return_inverse=True, return_counts=True)


class PairIndex:
    """Ordered level pairs ``(a, b)`` classed by exact gap and exact sum.

    Energies are multiplied by ``scale``, the least common multiple of their
    denominators, which maps equal gaps (sums) to equal integers and keeps
    their order.  Pair ``(a, b)`` sits at flat position ``a * D_E + b``;
    ``gap_ids[p]`` is the rank of its gap ``E_b - E_a`` among the sorted
    distinct scaled gaps ``gap_values``, each carried by ``gap_counts``
    pairs.  ``sum_ids``/``sum_values``/``sum_counts`` do the same for the
    sum ``E_a + E_b``.
    """

    def __init__(self, energies):
        self.num_levels = len(energies)
        self.scale = math.lcm(*(e.denominator for e in energies))
        scaled = [e.numerator * (self.scale // e.denominator) for e in energies]
        dtype = np.int64 if max(map(abs, scaled)) < _INT64_SAFE else object
        k = np.array(scaled, dtype=dtype)
        self.gap_values, self.gap_ids, self.gap_counts = _classes(
            np.subtract.outer(k, k).T
        )
        self.sum_values, self.sum_ids, self.sum_counts = _classes(np.add.outer(k, k))

    @property
    def max_gap_degeneracy(self) -> int:
        """Largest pair count among nonzero gaps; 0 for a single level."""
        return int(self.gap_counts[self.gap_values != 0].max(initial=0))

    @property
    def max_sum_degeneracy(self) -> int:
        return int(self.sum_counts.max())

    @cached_property
    def gap_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """The pairs of gap ``g >= 0``, which are the pairs ``a <= b`` since
        levels ascend, grouped by gap, gaps ascending from the zero gap's
        diagonal pairs: flat positions, each group's pairs ascending, and
        the offset of each group."""
        zero = self.gap_values.size // 2  # gaps are symmetric about 0
        sizes = self.gap_counts[zero:]
        order = np.argsort(self.gap_ids, kind="stable")
        return order[order.size - sizes.sum():], np.cumsum(sizes) - sizes

    def _ordered_pairs(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """First and second level of every pair, class by class.  A stable
        sort keeps each class's pairs in ascending (a, b) order."""
        return np.divmod(np.argsort(ids, kind="stable"), self.num_levels)

    def _entries(self, values, ids, counts) -> dict[Fraction, tuple[tuple[int, int], ...]]:
        first, second = self._ordered_pairs(ids)
        pairs = list(zip(first.tolist(), second.tolist()))
        ends = np.cumsum(counts).tolist()
        return {
            Fraction(value, self.scale): tuple(pairs[end - count:end])
            for value, count, end in zip(values.tolist(), counts.tolist(), ends)
        }

    def gap_entries(self) -> dict[Fraction, tuple[tuple[int, int], ...]]:
        return self._entries(self.gap_values, self.gap_ids, self.gap_counts)

    def sum_entries(self) -> dict[Fraction, tuple[tuple[int, int], ...]]:
        return self._entries(self.sum_values, self.sum_ids, self.sum_counts)

    def _report_classes(self, values, ids, counts) -> list[dict]:
        pairs = np.stack(self._ordered_pairs(ids), axis=1) + 1
        ends = np.cumsum(counts).tolist()
        return [
            {"count": end - start, "pairs": pairs[start:end],
             "value": str(Fraction(value, self.scale))}
            for value, start, end in zip(values.tolist(), [0] + ends, ends)
        ]

    def gap_classes(self) -> list[dict]:
        """The report's gap table: per distinct gap, ascending, the dict
        ``{"count", "pairs", "value"}``.  ``value`` is the exact gap as a
        string, like ``"-1/2"``; ``pairs`` holds the class's 1-based level
        pairs ``(a, b)``, ascending, as a ``(count, 2)`` view of one int64
        array shared by the table, so no per-pair object is built."""
        return self._report_classes(self.gap_values, self.gap_ids, self.gap_counts)

    def sum_classes(self) -> list[dict]:
        """The report's sum table, laid out like :meth:`gap_classes`."""
        return self._report_classes(self.sum_values, self.sum_ids, self.sum_counts)


@dataclass
class GapStructure:
    """Ordered level pairs ``(a, b)`` grouped by the exact gap ``E_b - E_a``.

    Indices are 0-based.  The zero gap collects the diagonal pairs, one per
    level; negative gaps are kept as their own entries (the pair ``(a, b)``
    sits in the gap opposite to ``(b, a)``).  ``entries`` maps each gap, in
    ascending order, to its sorted pairs; it is built when first read.
    """

    spec: Spectrum

    @cached_property
    def entries(self) -> dict[Fraction, tuple[tuple[int, int], ...]]:
        return self.spec.pair_index.gap_entries()

    @property
    def max_gap_degeneracy(self) -> int:
        """Largest pair count among nonzero gaps; 0 for a single level."""
        return self.spec.pair_index.max_gap_degeneracy


@dataclass
class SumStructure:
    """Ordered level pairs ``(a, c)`` grouped by the exact sum ``E_a + E_c``.

    Diagonal pairs ``(a, a)`` are included; every ordered pair appears in
    exactly one entry, and entries are closed under pair swap.  ``entries``
    is built when first read, like :attr:`GapStructure.entries`.
    """

    spec: Spectrum

    @cached_property
    def entries(self) -> dict[Fraction, tuple[tuple[int, int], ...]]:
        return self.spec.pair_index.sum_entries()

    @property
    def max_sum_degeneracy(self) -> int:
        return self.spec.pair_index.max_sum_degeneracy


class Classification(NamedTuple):
    non_degenerate: bool
    non_resonant: bool


def _as_fraction(value: Any, snap_denominator: int | None) -> tuple[Fraction, bool]:
    """Convert a schema energy value to an exact Fraction.

    Returns (fraction, snapped).  Floats are only admitted when a snapping
    denominator is supplied, since exact gap/sum collisions are meaningless
    on raw floating-point input.
    """
    if isinstance(value, bool):
        raise SpectrumError(f"malformed energy value {value!r}")
    if isinstance(value, int):
        return Fraction(value), False
    if isinstance(value, str):
        # A nonzero mantissa of n characters lies within a factor 10^n of 1,
        # so beyond this exponent the value has too many digits.
        mantissa, marker, exponent = value.strip().lower().partition("e")
        try:
            too_long = bool(marker) and abs(int(exponent)) > MAX_DIGITS + len(mantissa)
        except ValueError:  # not a decimal exponent: Fraction judges the text
            too_long = False
        if too_long:
            raise SpectrumError(
                f"energy {value!r} has a decimal exponent beyond {MAX_DIGITS} digits")
        try:
            return Fraction(value), False
        except (ValueError, ZeroDivisionError) as exc:
            raise SpectrumError(f"malformed energy value {value!r}") from exc
    if isinstance(value, float):
        if snap_denominator is None:
            raise SpectrumError(
                f"float energy {value!r} requires an explicit snap denominator"
            )
        try:
            numerator = round(value * snap_denominator)
        except (OverflowError, ValueError):  # the product is infinite or NaN
            raise SpectrumError(
                f"float energy {value!r} times the snap denominator "
                f"{snap_denominator} is not a finite float") from None
        return Fraction(numerator, snap_denominator), True
    raise SpectrumError(f"malformed energy value {value!r}")


def parse_spectrum(document, snap_denominator: int | None = None) -> Spectrum:
    """Parse the spectrum schema into a canonical :class:`Spectrum`.

    ``document`` is either a JSON string or an already-decoded mapping of
    the form ``{"levels": [{"energy": <int or "p/q">, "degeneracy": n}]}``.
    Exact rationals are preserved without rounding.  Float energies are
    rejected unless ``snap_denominator`` is given, in which case they are
    snapped to the nearest multiple of ``1/snap_denominator`` and the
    resulting spectrum is flagged ``approximate``.
    """
    if snap_denominator is not None:
        snap_denominator = int(snap_denominator)
        if snap_denominator < 1:
            raise SpectrumError(f"snap denominator must be positive, got {snap_denominator}")
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document, parse_int=json_int)
        except json.JSONDecodeError as exc:
            raise SpectrumError(f"invalid spectrum document: {exc}") from exc
    if not isinstance(document, dict) or "levels" not in document:
        raise SpectrumError('spectrum document must contain a "levels" list')
    raw_levels = document["levels"]
    if not isinstance(raw_levels, list) or not raw_levels:
        raise SpectrumError('"levels" must be a non-empty list')

    levels = []
    snapped_any = False
    for i, entry in enumerate(raw_levels):
        if not isinstance(entry, dict) or "energy" not in entry or "degeneracy" not in entry:
            raise SpectrumError(
                f'level {i} must be an object with "energy" and "degeneracy"'
            )
        energy, snapped = _as_fraction(entry["energy"], snap_denominator)
        snapped_any = snapped_any or snapped
        deg = entry["degeneracy"]
        if isinstance(deg, bool) or not isinstance(deg, int) or deg < 1:
            raise SpectrumError(
                f"level {i}: degeneracy must be a positive integer, got {deg!r}"
            )
        levels.append((energy, deg))
    _check_digits(levels)
    return Spectrum(tuple(levels), approximate=snapped_any)


def _check_digits(levels) -> None:
    """Refuse energies whose gaps, sums or integer rescaling could print
    with more than MAX_DIGITS digits.  With L the least common denominator,
    every gap and sum is a multiple of 1/L of magnitude at most 2 max|E|,
    so L and 2 max|E| L below DIGIT_LIMIT bound every numerator, every
    denominator, the rescaling multiplier and the rescaled spread."""
    scale = 1
    for i, (energy, _) in enumerate(levels):
        scale = math.lcm(scale, energy.denominator)
        if scale >= DIGIT_LIMIT:
            raise SpectrumError(f"level {i}: the common denominator of the energies "
                                f"up to this level reaches 10^{MAX_DIGITS}")
    for i, (energy, _) in enumerate(levels):
        if 2 * abs(energy.numerator) * (scale // energy.denominator) >= DIGIT_LIMIT:
            raise SpectrumError(f"level {i}: twice the energy's magnitude times the "
                                f"common denominator of the energies reaches 10^{MAX_DIGITS}")


def gap_structure(spec: Spectrum) -> GapStructure:
    """Group all ordered level pairs by their exact energy difference."""
    return GapStructure(spec=spec)


def sum_structure(spec: Spectrum) -> SumStructure:
    """Group all ordered level pairs by their exact energy sum."""
    return SumStructure(spec=spec)


def classify(spec: Spectrum) -> Classification:
    """Non-degenerate: every level simple.  Non-resonant: every nonzero gap unique."""
    non_degenerate = all(d == 1 for d in spec.degeneracies)
    non_resonant = spec.pair_index.max_gap_degeneracy <= 1
    return Classification(non_degenerate, non_resonant)


def structure_report(spec: Spectrum) -> dict:
    """Canonical analysis record for a spectrum.

    Pair indices in the report are 1-based, matching the level numbering
    convention used everywhere in user-facing output.  The gap and sum
    tables are the lists of class dicts of :meth:`PairIndex.gap_classes`
    and :meth:`PairIndex.sum_classes`, whose ``pairs`` are 2-D integer
    arrays; ``json.dumps(report, default=numpy.ndarray.tolist)`` encodes
    the report, as it does every report of the program.
    """
    gaps = gap_structure(spec)
    sums = sum_structure(spec)
    cls = classify(spec)
    return {
        "D": spec.dim_total,
        "D_E": spec.num_levels,
        "D_G": gaps.max_gap_degeneracy,
        "D_F": sums.max_sum_degeneracy,
        "non_degenerate": cls.non_degenerate,
        "non_resonant": cls.non_resonant,
        "approximate": spec.approximate,
        "levels": [
            {"energy": str(e), "degeneracy": d} for e, d in spec.levels
        ],
        "gaps": spec.pair_index.gap_classes(),
        "sums": spec.pair_index.sum_classes(),
    }
