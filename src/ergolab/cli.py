"""Command-line surface: analyze, verify-lemmas, compute-l, check-theorem, run.

Every command emits a single JSON document (to --out or stdout) whose keys
are sorted, so identical invocations are byte-identical; no timestamps are
ever embedded.  Exit status is 0 exactly when every verification gate the
command evaluated has passed; data and usage problems exit nonzero with a
diagnostic on stderr.  Human-readable tables are deliberately absent: the
JSON is the source of truth and columnar dumps serve external plotters.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np
from mpmath import mp

from . import dynamics, montecarlo, randomness, spectrum, typicality
from .randomness import DEFAULT_SEED

__all__ = ["main", "entry", "DEFAULT_SEED"]

# Gates in verify-lemmas are skipped below this sample count.
MIN_GATED_SAMPLES = 10_000

# Oracle cross-checks are skipped above this grid (rescaled spreads over
# 10 000).  The oracle averages ORACLE_CELLS consecutive cells at a time and
# holds every grid value of those cells: at most 20 001 x 64 floats, 10 MB.
MAX_ORACLE_GRID = 20_001
ORACLE_CELLS = 64

# Largest compute-l trajectory dump, in rows (times).  The dump is written
# in dynamics.GRID_SLICE slices, so this bounds its size on disk and its
# running time, not its memory.
MAX_DUMP_POINTS = 10_000_000

# verify-lemmas size limits.  Memory is flat in --samples (power sums, not
# samples, are kept), so the sample limit bounds running time.  A state
# draws max(--rank, 2) complex coordinates and one gamma variate, so the
# time grows with --rank, not --dim: on a 2-core x86-64 VM with BLAS at one
# thread, 10 000 000 samples took 2.1 s at --dim 8 --rank 2, 2.2 s at --dim
# 1000 --rank 2 and 21 s at --dim 100 --rank 100, about ten times as long
# at the limit.  The ensemble keeps 16 bytes per member, 1.6 GB at its
# limit.  Larger runs are refused before any thread starts; arrays that
# cannot be allocated end in main's out-of-memory line.
MAX_LEMMA_SAMPLES = 100_000_000
MAX_LEMMA_ENSEMBLE = 100_000_000

# The float parameters carry 53 bits; the mpmath checks get at least that.
# (Below 7 bits the admissible-constant grid step 1.01 rounds to 1.)
MIN_PRECISION_BITS = 53
# The mpmath checks' time grows faster than linearly in the precision (on a
# 2-core x86-64 VM, 0.54 s at 2^16 bits, 6.1 s at 2^18 and 69 s at 10^6);
# the exact d/D of two 4300-digit integers needs about 14 300 bits.
MAX_PRECISION_BITS = 2**16

LOG_BASES = {"e": math.e, "10": 10.0}

# Most digits of an integer flag (every integer flag is written into the
# JSON report), and the least integer with more.
MAX_INT_DIGITS = spectrum.MAX_DIGITS
INT_LIMIT = spectrum.DIGIT_LIMIT

# Rows of a large array formatted at a time.
WRITE_ROWS = 4096

# Characters of report text gathered into one write.  Writing each piece on
# its own (for the 300-level analyze report, over a thousand writes of a few
# KiB into an in-memory stdout) left the process's heap fragmented: the
# benchmark's lab-commands workload then peaked at 83.8 MiB resident, above
# the 82.9 MiB of the whole-text writer, against 74-80 MiB with 1 MiB
# writes (the figure moves with heap layout).
WRITE_CHARS = 1 << 20

# What the report encoder writes in place of each array, and its encoded
# text.  Only a report string equal to the marker could be taken for one,
# and report strings are written by the program, never copied from input.
_ARRAY_MARK = "\0array\0"
_ENCODED_MARK = json.dumps(_ARRAY_MARK)


def _write_output(doc: dict, out: str | None) -> None:
    """Write ``doc`` as ``json.dump(doc, indent=2, sort_keys=True,
    allow_nan=False, default=numpy.ndarray.tolist)`` plus a newline would,
    in pieces.

    The stdlib encoder lays out the whole report, with a marker string in
    place of each 2-D array, at any depth of dicts and lists.  Its text is
    split at the markers, and each array is formatted in chunks by
    :func:`_array_chunks` at the indentation of the line its marker ends, so
    no nested lists of an array are built.  Everything is encoded and
    checked before the first byte is written: a non-finite array ends in a
    ValueError, and any other value but an array that json cannot encode in
    a TypeError, with nothing written and no ``out`` file created.
    """
    arrays = []

    def array_mark(value):
        if not isinstance(value, np.ndarray) or value.ndim != 2:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if not np.isfinite(value).all():
            raise ValueError("Out of range float values are not JSON compliant")
        arrays.append(value)
        return _ARRAY_MARK

    encoder = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False, default=array_mark)
    # The text between markers, gathered from the encoder's chunks rather
    # than split from one encoded string: the 300-level analyze report's
    # 1 198 classes are tens of thousands of chunks, and holding them all,
    # as encode() does, put 0.6 MiB more on the benchmark's lab-commands
    # peak resident set on a 2-core x86-64 VM.
    pieces, text = [], []
    for chunk in encoder.iterencode(doc):
        if chunk == _ENCODED_MARK:  # the encoder yields each marker whole
            pieces.append("".join(text))
            text = []
        else:
            text.append(chunk)
    pieces.append("".join(text))

    def chunks():
        for piece, array in zip(pieces, arrays):
            yield piece
            line = piece[piece.rfind("\n") + 1:]
            yield from _array_chunks(array, (len(line) - len(line.lstrip(" "))) // 2)
        yield pieces[-1] + "\n"

    _write(chunks(), out)


def _write(chunks, path: str | None) -> None:
    """Write the strings ``chunks`` to ``path`` (stdout when None) in
    writes of about WRITE_CHARS characters.  Every report and dump the
    program writes goes through here."""
    fh = sys.stdout if path is None else open(path, "w", encoding="utf-8")
    try:
        pending, size = [], 0
        for chunk in chunks:
            pending.append(chunk)
            size += len(chunk)
            if size >= WRITE_CHARS:
                fh.write("".join(pending))
                pending, size = [], 0
        fh.write("".join(pending))
    finally:
        if path is not None:
            fh.close()


def _rows(template: str, rows: np.ndarray):
    """``template`` filled in turn with each row of a 2-D array, as chunks
    of WRITE_ROWS rows."""
    for start in range(0, len(rows), WRITE_ROWS):
        chunk = rows[start:start + WRITE_ROWS]
        # %r of the Python numbers .tolist() gives is their JSON text.
        yield template * len(chunk) % tuple(chunk.ravel().tolist())


def _array_chunks(array: np.ndarray, level: int):
    """A 2-D array as nested JSON lists, ``level`` deep, in WRITE_ROWS chunks."""
    if len(array) == 0:
        yield "[]"
        return
    pad, row_pad = "\n" + "  " * level, "\n" + "  " * (level + 1)
    if array.shape[1] == 0:
        row = row_pad + "[]"
    else:
        row = (row_pad + "[" + ",".join([row_pad + "  %r"] * array.shape[1])
               + row_pad + "]")
    chunks = _rows("," + row, array)
    yield "[" + next(chunks)[1:]
    yield from chunks
    yield pad + "]"


def _trial_chunks(experiment: dict):
    """The ``--dump-trials`` text of an experiment record: a header, then
    per trial and cell the deviation, the cell's sufficient-condition
    threshold and whether the deviation meets it."""
    yield "trial\tcell\tdeviation\tthreshold\tsufficient\n"
    totals = experiment["trial_totals"]
    thresholds = [c["threshold"] for c in experiment["cells"]]
    # One template row per trial, a line per cell with its threshold written
    # in; %d writes the integral float columns as integers.
    template = "".join(f"%d\t{k + 1}\t%r\t{threshold!r}\t%d\n"
                       for k, threshold in enumerate(thresholds))
    step = max(1, WRITE_ROWS // len(thresholds))  # WRITE_ROWS lines per chunk
    for first in range(0, len(totals), step):
        block = totals[first:first + step]
        table = np.empty(block.shape + (3,))
        table[..., 0] = np.arange(first, first + len(block))[:, None]
        table[..., 1] = block
        table[..., 2] = block <= thresholds
        yield from _rows(template, table.reshape(len(block), -1))


def _trajectory_chunks(phases: dynamics.GridPhases, coords, dims, span: float, periods: int):
    """The ``--dump-trajectory`` text: a header, then tau = span * j / n and
    every cell's weight at grid time periods * j mod n, for j < n =
    ``phases.grid_points``, a GRID_SLICE slice of times per chunk.  Each
    time is read once, so its phases are formed, not gathered from a table."""
    n = phases.grid_points
    yield "tau\t" + "\t".join(f"cell_{k + 1}" for k in range(len(dims))) + "\n"
    row = "\t".join(["%r"] * (len(dims) + 1)) + "\n"
    for j in range(0, n, dynamics.GRID_SLICE):
        indices = np.arange(j, min(j + dynamics.GRID_SLICE, n))
        taus = span * indices / n
        instants = (periods % n) * indices % n
        weights = dynamics.evolved_weights(phases.formed(instants), coords, dims)
        yield from _rows(row, np.column_stack([taus, weights]))


def _parse_big_int(text: str) -> int:
    """Integer with power notation: 123, 2^100, 10^22, or 1e8 (if exact),
    of at most MAX_INT_DIGITS digits.  A longer power is refused before it
    is formed."""
    text = text.strip().replace("_", "")
    invalid = argparse.ArgumentTypeError(
        f"{text!r} is not an integer of at most {MAX_INT_DIGITS} digits")
    if "^" in text:
        base, _, exponent = text.partition("^")
        base, power = int(base), int(exponent)
        if power < 0:
            raise argparse.ArgumentTypeError(f"{text!r} has a negative exponent")
        # An int compared with a float, so that no huge power overflows.
        if abs(base) > 1 and power > (MAX_INT_DIGITS + 1) / math.log10(abs(base)):
            raise invalid
        value = base ** power
    elif "e" in text.lower():
        mantissa, _, exponent = text.lower().partition("e")
        power = int(exponent)
        # A nonzero mantissa of n characters lies within a factor 10^n of 1,
        # so beyond this power the value is too long or not an integer (a
        # zero mantissa is refused there too).
        if abs(power) > MAX_INT_DIGITS + len(mantissa):
            raise invalid
        try:
            value = Fraction(mantissa) * Fraction(10) ** power
        except ZeroDivisionError:  # a mantissa such as 1/0
            raise invalid from None
        if value.denominator != 1:
            raise invalid
        value = value.numerator
    else:
        value = int(text)
    if abs(value) >= INT_LIMIT:
        raise invalid
    return value


def _seed(text: str) -> int:
    """A generator seed: numpy takes only non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {value}")
    return value


def _log_base(arg: str) -> float:
    if not isinstance(arg, str) or arg not in LOG_BASES:
        raise ValueError(f'log_base must be "e" or "10", got {arg!r}')
    return LOG_BASES[arg]


def _read_spectrum_file(path: str, snap_denominator: int | None = None):
    with open(path, "r", encoding="utf-8") as fh:
        return spectrum.parse_spectrum(fh.read(), snap_denominator)


def _amplitudes(pairs) -> np.ndarray:
    """Complex amplitudes from the schema's [[re, im], ...] list."""
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in p)
        for p in pairs
    ):
        raise ValueError('"amplitudes" must be a list of [re, im] number pairs')
    try:
        return np.array([complex(re, im) for re, im in pairs])
    except OverflowError:  # an integer beyond the float range
        raise ValueError('"amplitudes" holds a number beyond the float range') from None


def _read_state_file(path: str) -> np.ndarray:
    """State schema: {"amplitudes": [[re, im], ...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh, parse_int=spectrum.json_int)
    if not isinstance(doc, dict) or "amplitudes" not in doc:
        raise ValueError('state document must contain an "amplitudes" list')
    return _amplitudes(doc["amplitudes"])


def cmd_analyze(args) -> int:
    spec = _read_spectrum_file(args.spectrum, args.snap_denominator)
    _write_output(spectrum.structure_report(spec), args.out)
    return 0


def cmd_verify_lemmas(args) -> int:
    dim, rank, samples = args.dim, args.rank, args.samples
    if samples < 2:
        raise ValueError(f"--samples must be at least 2 for a standard error, got {samples}")
    if args.ensemble < 1:
        raise ValueError(f"--ensemble must be at least 1, got {args.ensemble}")
    for flag, value, limit in [("--samples", samples, MAX_LEMMA_SAMPLES),
                               ("--ensemble", args.ensemble, MAX_LEMMA_ENSEMBLE)]:
        if value > limit:
            raise ValueError(f"{flag} must be at most {limit}, got {value}")
    warnings = []
    gated = samples >= MIN_GATED_SAMPLES
    if not gated:
        warnings.append(
            f"insufficient samples ({samples} < {MIN_GATED_SAMPLES}): gates skipped"
        )

    state_stats, sphere_stats, block_stats = randomness.lemma_statistics(
        dim, rank, samples, args.ensemble, args.seed
    )

    block_gate = None
    if block_stats is not None:
        applicable = (
            args.ensemble >= 100
            and typicality.admissible_constant_crossover(dim, rank) > 1
        )
        block_gate = {"applicable": applicable, "pass": None}
        if applicable and gated:
            block_gate["pass"] = all(
                rec["estimate"] <= rec["threshold"] + randomness.GATE_SIGMA * rec["stderr"]
                for rec in (block_stats["max_offdiag"], block_stats["max_diag_dev"])
            )
    else:
        warnings.append("rank equals dim: unitary block statistics skipped")

    moment_records = [state_stats["mean"], state_stats["variance"],
                      sphere_stats["mean"], sphere_stats["variance"]]
    if "covariance" in sphere_stats:
        moment_records.append(sphere_stats["covariance"])
    if not gated:
        for rec in moment_records:
            rec["pass"] = None

    gates = []
    if gated:
        gates += [rec["pass"] for rec in moment_records]
    if block_gate is not None and block_gate["pass"] is not None:
        gates.append(block_gate["pass"])

    doc = {
        "dim": dim,
        "rank": rank,
        "samples": samples,
        "ensemble": args.ensemble,
        "seed": args.seed,
        "state_weights": state_stats,
        "hypersphere": sphere_stats,
        "unitary_blocks": block_stats,
        "unitary_block_gate": block_gate,
        "warnings": warnings,
        "gates_evaluated": bool(gates),
        "pass": all(gates),
    }
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    _write_output(doc, args.out)
    return 0 if all(gates) else 1


def cmd_compute_l(args) -> int:
    for flag, value in (("--grid-points", args.grid_points), ("--periods", args.periods)):
        if value is not None and args.dump_trajectory is None:
            raise ValueError(f"{flag} shapes the trajectory dump and needs --dump-trajectory")
    grid_points = 1000 if args.grid_points is None else args.grid_points
    periods = 1 if args.periods is None else args.periods
    if not 1 <= grid_points <= MAX_DUMP_POINTS:
        raise ValueError(f"--grid-points must be between 1 and {MAX_DUMP_POINTS}, "
                         f"got {grid_points}")
    if periods < 1:
        raise ValueError(f"--periods must be a positive integer, got {periods}")
    spec = _read_spectrum_file(args.spectrum)
    try:
        dims = tuple(int(x) for x in args.dims.split(","))
    except ValueError:
        raise ValueError(f"--dims must be comma-separated integers, got {args.dims!r}") from None
    montecarlo.check_ranks(dims, spec.dim_total)
    # The unitary of randomness.sample_decomposition(dims, substream(seed, 0)).
    unitary = randomness.sample_haar_unitary(spec.dim_total, randomness.substream(args.seed, 0))
    if args.state is not None:
        amplitudes, state_source = _read_state_file(args.state), "file"
    else:
        amplitudes = randomness.sample_random_state(
            spec.dim_total, randomness.substream(args.seed, 1))
        state_source = "sampled"
    vector = dynamics.prepare_state(amplitudes, spec)
    coords = dynamics.shell_coordinates(unitary, vector, dynamics.shell_offsets(spec))

    # The oracle evolves the shell coordinates on the integer spectrum.
    ispec, mult = dynamics.integer_rescaled(spec)
    if args.dump_trajectory is not None:
        # Periods of the (rescaled-integer) dynamics in original time units.
        try:
            period = 2 * math.pi * float(mult)
        except OverflowError:
            raise ValueError(
                f"--dump-trajectory: the spectrum's rescaling multiplier "
                f"({len(str(mult))} digits) is beyond the float range of the time axis"
            ) from None
        # A --periods beyond the float range overflows the span to inf too.
        span = period * min(periods, sys.float_info.max)
        if span == math.inf:
            raise ValueError(f"--periods {periods} overflows the dump's time span")
    grid = dynamics.deviation_grid_points(ispec)
    oracle_note = None
    if grid > MAX_ORACLE_GRID:
        oracle_note = (
            f"oracle skipped: rescaled spectral spread {ispec.spread} needs a "
            f"{grid}-point grid (limit {MAX_ORACLE_GRID})"
        )
    else:
        phases = dynamics.grid_phases(ispec, grid)
        shares = np.array(dims) / spec.dim_total
        oracles = []
        # (w - d/D)^2 of up to ORACLE_CELLS consecutive cells at once, from
        # their block of columns of coords, a slice of grid indices at a time
        for first in range(0, len(dims), ORACLE_CELLS):
            group = slice(first, first + ORACLE_CELLS)
            block = coords[:, sum(dims[:first]):sum(dims[:group.stop])]
            oracles += dynamics.discrete_time_average(
                lambda j: (dynamics.evolved_weights(phases.rows(j), block, dims[group])
                           - shares[group]) ** 2,
                ispec,
                grid - 1,
            ).tolist()

    cell_records = []
    cells = montecarlo.evaluate_cells(spec, dims, coords)
    for k, (rank, (b, bound, gap_ok, resonant_ok, _)) in enumerate(zip(dims, cells)):
        record = {name: float(value) for name, value in b.items() if name != "time_avg_weight"}
        record.update({
            "cell": k + 1,
            "rank": rank,
            "ergodicity_gap": record["diag_dev_sq"],
            "resonant_bound": float(bound),
            "chain_ok": bool(gap_ok and resonant_ok),
        })
        if oracle_note is None:
            residual = abs(oracles[k] - record["total"])
            record["oracle"] = {
                "value": oracles[k],
                "residual": residual,
                "match": residual <= 1e-9,
            }
        cell_records.append(record)
    all_ok = all(c["chain_ok"] and c.get("oracle", {"match": True})["match"]
                 for c in cell_records)

    doc = {
        "D": spec.dim_total,
        "D_E": spec.num_levels,
        "D_G": spec.pair_index.max_gap_degeneracy,
        "D_F": spec.pair_index.max_sum_degeneracy,
        "dims": list(dims),
        "seed": args.seed,
        "state_source": state_source,
        "rescaled_to_integer": None if mult == 1 else {"multiplier": mult},
        "oracle_note": oracle_note,
        "cells": cell_records,
        "pass": all_ok,
    }
    _write_output(doc, args.out)

    if args.dump_trajectory is not None:
        _write(_trajectory_chunks(dynamics.grid_phases(ispec, grid_points), coords, dims,
                                  span, periods),
               args.dump_trajectory)
    return 0 if all_ok else 1


def cmd_check_theorem(args) -> int:
    if args.dim < 2:
        raise ValueError(f"--dim must be at least 2 so that log D > 0, got {args.dim}")
    if not 1 <= args.rank <= args.dim:
        raise ValueError(f"--rank must be between 1 and --dim {args.dim}, got {args.rank}")
    if args.sum_degeneracy < 1:
        raise ValueError(f"--sum-degeneracy must be at least 1 (every spectrum has "
                         f"D_F >= 1), got {args.sum_degeneracy}")
    for flag, value in [("--epsilon", args.epsilon), ("--delta", args.delta),
                        ("--delta-prime", args.delta_prime), ("--constant", args.constant)]:
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be a finite number, got {value}")
    if not 0 < args.margin < math.inf:
        raise ValueError(f"--margin must be a positive finite number, got {args.margin}")
    if not MIN_PRECISION_BITS <= args.precision_bits <= MAX_PRECISION_BITS:
        raise ValueError(
            f"--precision-bits must be between {MIN_PRECISION_BITS} and "
            f"{MAX_PRECISION_BITS}, got {args.precision_bits}"
        )
    try:
        params = typicality.TheoremParams(
            epsilon=args.epsilon, delta=args.delta, delta_prime=args.delta_prime,
            num_cells=args.cells, constant=args.constant)
    except ValueError as exc:  # the refusal names a field: name its flag instead
        field, _, rule = str(exc).partition(" ")
        flags = {"delta_prime": "--delta-prime", "num_cells": "--cells"}
        raise ValueError(f"{flags.get(field, '--' + field)} {rule}") from None
    dim, rank = args.dim, args.rank
    log_base = _log_base(args.log_base)
    condition = typicality.theorem_condition(
        params, rank, dim, args.sum_degeneracy,
        precision_bits=args.precision_bits, log_base=log_base,
    )
    with mp.workprec(args.precision_bits):
        log_ratio = mp.nstr(mp.log(mp.mpf(dim)) / mp.mpf(dim), 12)
    crossover = typicality.admissible_constant_crossover(
        dim, rank, args.precision_bits
    )
    admissible = typicality.find_admissible_constant(
        dim, rank, precision_bits=args.precision_bits
    )
    impact = typicality.resonance_impact(
        dim, args.cells, args.sum_degeneracy,
        margin=args.margin, precision_bits=args.precision_bits,
    )
    doc = {
        "D": dim,
        "rank": rank,
        "cells": args.cells,
        "sum_degeneracy": args.sum_degeneracy,
        "epsilon": args.epsilon,
        "delta": args.delta,
        "delta_prime": args.delta_prime,
        "constant": args.constant,
        "condition": condition,
        "log_dim_over_dim": log_ratio,
        "admissible_constant_crossover": mp.nstr(crossover, 12),
        "admissible_constant": None if admissible is None else mp.nstr(admissible, 12),
        "resonance_impact": impact,
        "precision_bits": args.precision_bits,
        "log_base": args.log_base,
    }
    _write_output(doc, args.out)
    return 0


# Every key a run config may carry; anything else is rejected.
RUN_CONFIG_KEYS = frozenset({
    "spectrum", "dims", "params", "state", "trials", "seed", "log_base",
    "grid_points", "normality",
})
PARAM_KEYS = frozenset({"epsilon", "delta", "delta_prime", "constant"})
STATE_KEYS = frozenset({"amplitudes"})


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f'"{name}" must be an integer, got {value!r}')
    return value


def _finite(value, name: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise ValueError(f'"{name}" must be a finite number, got {value!r}')


def _object(value, name: str, keys: frozenset) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object")
    unknown = sorted(set(value) - keys)
    if unknown:
        raise ValueError(f"{name} has unknown keys {unknown}; allowed: {sorted(keys)}")
    return value


def _config_from_document(doc, args) -> montecarlo.ExperimentConfig:
    """Validate a run config document; returns the experiment config."""
    doc = _object(doc, "run config", RUN_CONFIG_KEYS)
    for key in ("spectrum", "dims"):
        if key not in doc:
            raise ValueError(f'run config needs "{key}"')
    spec = spectrum.parse_spectrum(doc["spectrum"])
    dims = doc["dims"]
    if not isinstance(dims, list) or not dims:
        raise ValueError(f'"dims" must be a non-empty list of integers, got {dims!r}')
    dims = tuple(_integer(d, "dims") for d in dims)
    raw_params = _object(doc.get("params", {}), '"params"', PARAM_KEYS)
    params = typicality.TheoremParams(
        epsilon=_finite(raw_params.get("epsilon", 1.0), "epsilon"),
        delta=_finite(raw_params.get("delta", 0.1), "delta"),
        delta_prime=_finite(raw_params.get("delta_prime", 0.1), "delta_prime"),
        num_cells=len(dims),
        constant=_finite(raw_params.get("constant", 2.0), "constant"),
    )
    state = doc.get("state", "uniform")
    amplitudes = None
    if isinstance(state, dict):
        amplitudes = _amplitudes(_object(state, '"state"', STATE_KEYS).get("amplitudes"))
        policy = "explicit"
    elif isinstance(state, str):
        policy = state
    else:  # the JSON type of a decoded value that is neither
        kind = {type(None): "null", bool: "boolean", list: "array"}.get(type(state), "number")
        raise ValueError(f'"state" must be a policy name or an object, got a JSON {kind}')
    normality = doc.get("normality", False)
    if not isinstance(normality, bool):
        raise ValueError(f'"normality" must be true or false, got {normality!r}')
    trials = args.trials if args.trials is not None else doc.get("trials", 100)
    seed = args.seed if args.seed is not None else _integer(doc.get("seed", DEFAULT_SEED), "seed")
    return montecarlo.ExperimentConfig(
        spectrum=spec,
        dims=dims,
        params=params,
        trials=_integer(trials, "trials"),
        seed=seed,
        state_policy=policy,
        amplitudes=amplitudes,
        log_base=_log_base(doc.get("log_base", "e")),
        grid_points=(_integer(doc["grid_points"], "grid_points")
                     if "grid_points" in doc else None),
        normality=normality,
    )


def cmd_run(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh, parse_int=spectrum.json_int)
    report = montecarlo.run_experiment(_config_from_document(doc, args))
    experiment, normality = report["experiment"], report["normality"]
    gates = {"mean_bound_and_chain": experiment["pass"]}
    if normality is not None:
        gates["normality_implication"] = normality["implication_violations"] == 0
    report["gates"] = gates
    report["pass"] = all(gates.values())
    _write_output(report, args.out)
    if args.dump_trials is not None:
        _write(_trial_chunks(experiment), args.dump_trials)
    return 0 if report["pass"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: building takes longer
    than parsing a command, and importing the module should not pay for it."""
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description=(
            "Numerical laboratory for cell-weight equilibration of degenerate "
            "and resonant spectra"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="gap/sum structure report for a spectrum file")
    p.add_argument("spectrum", help="path to a spectrum JSON document")
    p.add_argument("--snap-denominator", type=int, default=None,
                   help="admit float energies by snapping to multiples of 1/q")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify-lemmas", help="moment statistics of Haar sampling")
    p.add_argument("--dim", type=_parse_big_int, required=True)
    p.add_argument("--rank", type=_parse_big_int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--ensemble", type=int, default=200,
                   help="unitary ensemble size for block statistics")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_lemmas)

    p = sub.add_parser("compute-l", help="deviation breakdown with oracle cross-check")
    p.add_argument("spectrum", help="path to a spectrum JSON document")
    p.add_argument("--dims", required=True, help="comma-separated cell ranks")
    p.add_argument("--state", default=None,
                   help='path to a state JSON document {"amplitudes": [[re, im], ...]}')
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--grid-points", type=int, default=None,
                   help="grid size for the trajectory dump (default 1000)")
    p.add_argument("--periods", type=int, default=None,
                   help="how many whole periods the trajectory dump spans (default 1)")
    p.add_argument("--dump-trajectory", default=None,
                   help="write columnar (tau, weight per cell) to this path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compute_l)

    p = sub.add_parser("check-theorem", help="evaluate the admissibility ordering")
    p.add_argument("--dim", type=_parse_big_int, required=True)
    p.add_argument("--rank", type=_parse_big_int, required=True)
    p.add_argument("--cells", type=_parse_big_int, required=True)
    p.add_argument("--sum-degeneracy", type=_parse_big_int, default=2)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--delta-prime", type=float, default=0.1)
    p.add_argument("--constant", type=float, default=2.0)
    p.add_argument("--margin", type=float, default=10.0)
    p.add_argument("--precision-bits", type=int, default=typicality.DEFAULT_PRECISION_BITS)
    p.add_argument("--log-base", choices=list(LOG_BASES), default="e",
                   help="base of log D in the condition's lhs only; every other "
                        "reported logarithm is natural")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check_theorem)

    p = sub.add_parser("run", help="seeded ensemble experiment from a config file")
    p.add_argument("config", help="path to an experiment config JSON document")
    p.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    p.add_argument("--trials", type=int, default=None, help="override the trial count")
    p.add_argument("--dump-trials", default=None,
                   help="write columnar per-trial values to this path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
