"""Outside-in span recorder for the traced benchmark run.

The recorder wraps named public functions of each ergolab module in every
``ergolab`` module namespace that binds them (modules import many of them
by name, so wrapping only the defining module would miss those calls).
Each call records a span ``[layer, start, end, parent]`` in memory; exact
work counts are taken from arguments and return values, never from the
clock.  :func:`aggregate` turns the spans into per-layer calls, inclusive
time and self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Layer name -> (ergolab module, public functions timed as that layer).
LAYERS = {
    "spectrum.parse": ("spectrum", ("parse_spectrum",)),
    "spectrum.structure": ("spectrum", ("gap_structure", "sum_structure", "classify")),
    "spectrum.report": ("spectrum", ("structure_report",)),
    "randomness.haar": ("randomness", ("sample_haar_unitary",)),
    "randomness.decomposition": ("randomness", ("sample_decomposition",)),
    "randomness.state": ("randomness", ("sample_random_state",)),
    "randomness.moments": ("randomness", ("state_weight_statistics", "hypersphere_moments")),
    "randomness.blocks": ("randomness", ("unitary_block_statistics",)),
    "dynamics.prepare_state": ("dynamics", ("prepare_state",)),
    "dynamics.overlap": ("dynamics", ("shell_overlap_matrix",)),
    "dynamics.time_avg": ("dynamics", ("exact_time_avg_weight",)),
    "dynamics.time_fraction": ("dynamics", ("time_fraction_normal",)),
    "dynamics.oracle": ("dynamics", ("discrete_time_average",)),
    "typicality.deviation": ("typicality", ("deviation_exact",)),
    "typicality.bounds": ("typicality", ("resonant_term_bound", "ergodicity_gap",
                                         "mean_deviation_bound", "sufficient_condition")),
    "typicality.mpmath": ("typicality", ("theorem_condition", "resonance_impact",
                                         "admissible_constant_crossover",
                                         "find_admissible_constant")),
    "montecarlo.run": ("montecarlo", ("run_experiment",)),
    "montecarlo.normality": ("montecarlo", ("normality_fraction",)),
    "cli": ("cli", ("main",)),
}


def _table_pairs(result, spec):
    return "spectrum.table_pairs", sum(len(p) for p in result.entries.values())


def _oracle_evals(result, observable, spec, max_frequency):
    return "dynamics.oracle.evals", 2 * int(max_frequency) + 1


def _cells_reported(result, config):
    return "montecarlo.cells_reported", config.trials * len(config.dims)


class _ResonantOps:
    """Inner-loop size of the resonance sum: sum of |pairs|^2 over sum
    values carried by at least three ordered pairs, once per cell."""

    def __init__(self):
        self._by_table = {}  # id(sums) -> (sums, ops); holding sums pins its id

    def __call__(self, result, state, cell, gaps, sums):
        entry = self._by_table.get(id(sums))
        if entry is None:
            ops = sum(len(p) ** 2 for p in sums.entries.values() if len(p) >= 3)
            entry = self._by_table[id(sums)] = (sums, ops)
        return "typicality.resonant_ops", entry[1]


def _count_hooks():
    return {
        "gap_structure": _table_pairs,
        "sum_structure": _table_pairs,
        "discrete_time_average": _oracle_evals,
        "run_experiment": _cells_reported,
        "deviation_exact": _ResonantOps(),
    }


class Recorder:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._bindings: list[tuple] = []

    def wrap(self, layer: str, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            record = [layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                key, n = count(result, *args, **kwargs)
                counts[key] += n
            return result

        return spanned

    def install(self) -> list[tuple]:
        """Wrap every binding of every layer function; returns the bindings.

        ergolab and the modules of :data:`LAYERS` are imported first, so a
        function is rebound in each ergolab module namespace that holds it.
        """
        import importlib

        for module, _ in LAYERS.values():
            importlib.import_module(f"ergolab.{module}")
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "ergolab" or name.startswith("ergolab.")]
        hooks = _count_hooks()
        for layer, (module, names) in LAYERS.items():
            defining = sys.modules[f"ergolab.{module}"]
            for name in names:
                fn = getattr(defining, name)
                wrapper = self.wrap(layer, fn, hooks.get(name))
                for ns in namespaces:
                    for attr in [a for a, v in vars(ns).items() if v is fn]:
                        setattr(ns, attr, wrapper)
                        self._bindings.append((ns, attr, fn))
        return list(self._bindings)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._bindings):
            setattr(ns, attr, fn)
        self._bindings.clear()


def aggregate(spans, counts) -> dict:
    """Per-layer metrics from spans ``[layer, start, end, parent]``.

    ``<layer>.calls`` counts every call; ``<layer>.s`` is inclusive time,
    summed over calls not nested inside another call of the same layer;
    ``<layer>.self_s`` is time minus the time of directly wrapped children.
    Counters pass through, plus ``montecarlo.useful_ratio``: cells reported
    by ``run_experiment`` per ``deviation_exact`` call.
    """
    child_time = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.s"] = 0.0
        out[f"{layer}.self_s"] = 0.0
    for i, (layer, start, end, parent) in enumerate(spans):
        duration = end - start
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += duration - child_time[i]
        while parent >= 0 and spans[parent][0] != layer:
            parent = spans[parent][3]
        if parent < 0:
            out[f"{layer}.s"] += duration
    for key in ("spectrum.table_pairs", "typicality.resonant_ops",
                "dynamics.oracle.evals", "montecarlo.cells_reported"):
        out[key] = int(counts.get(key, 0))
    calls = out["typicality.deviation.calls"]
    out["montecarlo.useful_ratio"] = out["montecarlo.cells_reported"] / calls if calls else 0.0
    return out
