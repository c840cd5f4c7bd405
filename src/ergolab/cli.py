"""Command-line surface: analyze, verify-lemmas, compute-l, check-theorem, run.

Every command emits a single JSON document (to --out or stdout) whose keys
are sorted, and no timestamps are ever embedded.  Identical invocations are
byte-identical for one BLAS build and thread count: analyze and
check-theorem call no BLAS, while run, compute-l and verify-lemmas draw
Haar unitaries through QR and matrix products whose last bits may change
with the BLAS build, the CPU and its thread count (see the README).

Output and exit status have one path.  A command's ``cmd_*`` writes
nothing: it returns its report and its dumps, ``(chunks, path)`` pairs of
lazy text.  :func:`main` prints the report's ``warnings`` to stderr as
``warning:`` lines, writes the report, then each dump, and exits 0 exactly
when the report's ``pass`` is true or absent (analyze and check-theorem
gate nothing), else 1; a failed gate adds no message.  A flag's refused
value exits 2 naming the flag (:func:`_flag`, and :func:`_output_path`
for a file the command would write); file content and rules of two
inputs exit 1 with one ``error:`` line.  Human-readable tables are
absent: the JSON is the source of truth and columnar dumps serve external
plotters.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

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
# The rule of --periods: more would put a dump's time span 2π·m·periods
# beyond the float range even at the rescaling multiplier m = 1.
DUMP_PERIODS_RULE = (lambda periods: periods <= sys.float_info.max / (2 * math.pi),
                     "must keep the dump's time span 2π·m·periods within the float range")

# verify-lemmas size limits, refused before anything is drawn; timed on a
# 2-core x86-64 VM, BLAS at one thread.  A state draws the same few numbers
# whatever --dim and --rank are, about 0.17 µs a state on each of the two
# threads that share the states: MAX_LEMMA_SAMPLES bounds them (8.5 s).
# MAX_LEMMA_RANK keeps --rank, and --dim with it at full rank, within the
# integers that are exact floats, so the gamma shapes d - 2 and
# D - max(d, 2) are exact.  A unitary block costs 37 µs at --dim 2 plus
# 0.24-1.1 ns a unit of D² × max(--rank, 10) for its Gram (0.24 s at --dim
# 10 000 --rank 2, 12 s at --dim 3000 --rank 2999): MAX_LEMMA_GRAM bounds
# the ensemble's units (a minute or two), and with them --dim below full
# rank.
MAX_LEMMA_SAMPLES = 100_000_000
MAX_LEMMA_RANK = 2**53
MAX_LEMMA_ENSEMBLE = 1_000_000
MAX_LEMMA_GRAM = 10**11

# The float parameters carry 53 bits; the mpmath checks get at least that.
# (Below 7 bits the admissible-constant grid step 1.01 rounds to 1.)
MIN_PRECISION_BITS = 53
# The mpmath checks' time grows faster than linearly in the precision (on a
# 2-core x86-64 VM, 0.54 s at 2^16 bits, 6.1 s at 2^18 and 69 s at 10^6);
# the exact d/D of two 4300-digit integers needs about 14 300 bits.
MAX_PRECISION_BITS = 2**16

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


def _trajectory_chunks(phases: dynamics.GridPhases, coords, dims, span: float):
    """The ``--dump-trajectory`` text: a header, then tau = span * j / n and
    every cell's weight at grid index j < n = ``phases.grid_points``, a
    GRID_SLICE slice of times per chunk."""
    n = phases.grid_points
    yield "tau\t" + "\t".join(f"cell_{k + 1}" for k in range(len(dims))) + "\n"
    row = "\t".join(["%r"] * (len(dims) + 1)) + "\n"
    for j in range(0, n, dynamics.GRID_SLICE):
        stop = min(j + dynamics.GRID_SLICE, n)
        weights = dynamics.evolved_weights(phases.at(j, stop), coords, dims)
        yield from _rows(row, np.column_stack([span * np.arange(j, stop) / n, weights]))


def _parse_big_int(text: str) -> int:
    """Integer with power notation: 123, 2^100, 10^22, or 1e8 (if exact),
    of at most spectrum.MAX_DIGITS digits, as every integer flag is written
    into the JSON report.  A longer power is refused before it is formed."""
    text = text.strip().replace("_", "")
    invalid = argparse.ArgumentTypeError(
        f"{text!r} is not an integer of at most {spectrum.MAX_DIGITS} digits")
    if "^" in text:
        base, _, exponent = text.partition("^")
        base, power = int(base), int(exponent)
        if power < 0:
            raise argparse.ArgumentTypeError(f"{text!r} has a negative exponent")
        # An int compared with a float, so that no huge power overflows.
        if abs(base) > 1 and power > (spectrum.MAX_DIGITS + 1) / math.log10(abs(base)):
            raise invalid
        value = base ** power
    elif "e" in text.lower():
        if spectrum.long_decimal_exponent(text):  # too long or not an integer
            raise invalid
        mantissa, _, exponent = text.lower().partition("e")
        try:
            value = Fraction(mantissa) * Fraction(10) ** int(exponent)
        except ZeroDivisionError:  # a mantissa such as 1/0
            raise invalid from None
        if value.denominator != 1:
            raise invalid
        value = value.numerator
    else:
        value = int(text)
    if abs(value) >= spectrum.DIGIT_LIMIT:
        raise invalid
    return value


def _flag(parse, least=None, most=None, rule=None):
    """An argparse type: ``parse`` (int, float or _parse_big_int) of a flag,
    finite if a float, within ``least`` and ``most`` and passing a ``rule``
    (test, text) such as those of ``typicality.PARAM_RULES``.  Every numeric
    flag's range is checked here only: a refusal is argparse's usage error
    (exit 2) naming the flag, before any file is read or anything drawn."""
    def value(text: str):
        number = parse(text)  # a ValueError is argparse's "invalid <parse> value"
        if parse is float and not math.isfinite(number):
            refusal = "must be a finite number"
        elif least is not None and number < least:
            refusal = f"must be at least {least}"
        elif most is not None and number > most:
            refusal = f"must be at most {most}"
        elif rule is not None and not rule[0](number):
            refusal = rule[1]
        else:
            return number
        raise argparse.ArgumentTypeError(f"{refusal}, got {number!r}")
    value.__name__ = parse.__name__
    return value


def _output_path(text: str) -> str:
    """An argparse type: a file a command writes (``--out``, the dump
    flags).  A path that names a directory, or whose directory does not
    exist, is refused here (exit 2, naming the flag), before the command
    does its work, not when the report or dump is written after it."""
    if not text or os.path.isdir(text) or not os.path.isdir(os.path.dirname(text) or "."):
        raise argparse.ArgumentTypeError(
            f"must name a file in an existing directory, got {text!r}")
    return text


def _ranks(text: str) -> tuple[int, ...]:
    """compute-l's --dims: comma-separated cell ranks, each at least 1."""
    try:
        ranks = tuple(int(rank) for rank in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text!r}") from None
    if min(ranks) < 1:
        raise argparse.ArgumentTypeError(f"every rank must be at least 1, got {text!r}")
    return ranks


def _rank_within_dim(args) -> None:
    if args.rank > args.dim:
        raise ValueError(f"--rank must be between 1 and --dim {args.dim}, got {args.rank}")


def _read_json(path: str, read):
    """``read`` of the JSON document in a file, its integers of at most
    spectrum.MAX_DIGITS digits.  Every input file is read here: a refusal of its
    decoding (bad JSON, a long integer or bad UTF-8) or of its content by
    ``read`` ends in an error naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return read(json.load(fh, parse_int=spectrum.json_int))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_spectrum_file(path: str, snap_denominator: int | None = None):
    return _read_json(path, lambda doc: spectrum.parse_spectrum(doc, snap_denominator))


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


def _state_amplitudes(doc, name: str) -> np.ndarray:
    """State schema: {"amplitudes": [[re, im], ...]} and no other key, for
    compute-l's --state document and a run config's "state" object alike."""
    return _amplitudes(_object(doc, name, STATE_KEYS).get("amplitudes"))


def cmd_analyze(args) -> tuple[dict, list]:
    spec = _read_spectrum_file(args.spectrum, args.snap_denominator)
    return spectrum.structure_report(spec), []


def cmd_verify_lemmas(args) -> tuple[dict, list]:
    dim, rank, samples = args.dim, args.rank, args.samples
    _rank_within_dim(args)
    if rank < dim and args.ensemble * dim**2 * max(rank, 10) > MAX_LEMMA_GRAM:
        raise ValueError(f"--ensemble × --dim² × max(--rank, 10) must be at most "
                         f"{MAX_LEMMA_GRAM}, got {args.ensemble} × {dim}² × {max(rank, 10)}")
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
        # The admissible-constant crossover min(d/ln D, D/d) exceeds 1 at d < D
        # exactly when d > ln D, in floats too: MAX_LEMMA_GRAM keeps D at most
        # 10^5, and below 10^6 no ln D lies within 8.9e-7 of an integer.
        applicable = args.ensemble >= 100 and rank > math.log(dim)
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
    return doc, []


def cmd_compute_l(args) -> tuple[dict, list]:
    for flag, value in (("--grid-points", args.grid_points), ("--periods", args.periods)):
        if value is not None and args.dump_trajectory is None:
            raise ValueError(f"{flag} shapes the trajectory dump and needs --dump-trajectory")
    grid_points = 1000 if args.grid_points is None else args.grid_points
    periods = 1 if args.periods is None else args.periods
    spec = _read_spectrum_file(args.spectrum)
    dims = args.dims
    montecarlo.check_ranks(dims, spec.dim_total)
    # The unitary of randomness.sample_decomposition(dims, substream(seed, 0)).
    unitary = randomness.sample_haar_unitary(spec.dim_total, randomness.substream(args.seed, 0))
    if args.state is not None:
        vector = _read_json(args.state, lambda doc: dynamics.prepare_state(
            _state_amplitudes(doc, "state document"), spec))
        state_source = "file"
    else:
        vector = dynamics.prepare_state(randomness.sample_random_state(
            spec.dim_total, randomness.substream(args.seed, 1)), spec)
        state_source = "sampled"
    coords = dynamics.shell_coordinates(unitary, vector, dynamics.shell_offsets(spec))

    # The oracle and the dump evolve the shell coordinates on the spectrum's
    # integer levels, its energies times mult.
    mult = spec.pair_index.scale
    if args.dump_trajectory is not None:
        # Periods of the integer-level dynamics in original time units.
        try:
            period = 2 * math.pi * float(mult)
        except OverflowError:
            raise ValueError(
                f"--dump-trajectory: the spectrum's rescaling multiplier "
                f"({len(str(mult))} digits) is beyond the float range of the time axis"
            ) from None
        span = period * periods
        if span == math.inf:
            raise ValueError(f"--periods {periods} times the spectrum's rescaling multiplier "
                             f"{mult} overflows the dump's time span")
    grid = dynamics.deviation_grid_points(spec)
    oracle_note = None
    if grid > MAX_ORACLE_GRID:
        oracle_note = (
            f"oracle skipped: rescaled spectral spread {(grid - 1) // 2} needs a "
            f"{grid}-point grid (limit {MAX_ORACLE_GRID})"
        )
    else:
        phases = dynamics.grid_phases(spec, grid)
        shares = np.array(dims) / spec.dim_total
        oracles = []
        # (w - d/D)^2 of up to ORACLE_CELLS consecutive cells at once, from
        # their block of columns of coords, a slice of grid indices at a time
        for first in range(0, len(dims), ORACLE_CELLS):
            group = slice(first, first + ORACLE_CELLS)
            block = coords[:, sum(dims[:first]):sum(dims[:group.stop])]
            oracles += dynamics.discrete_time_average(
                lambda j: (dynamics.evolved_weights(phases.at(j[0], j[-1] + 1), block,
                                                    dims[group]) - shares[group]) ** 2,
                spec,
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
        "pass": all(c["chain_ok"] and c.get("oracle", {"match": True})["match"]
                    for c in cell_records),
    }
    if args.dump_trajectory is None:
        return doc, []
    phases = dynamics.grid_phases(spec, grid_points, periods)
    return doc, [(_trajectory_chunks(phases, coords, dims, span), args.dump_trajectory)]


def cmd_check_theorem(args) -> tuple[dict, list]:
    from mpmath import mp  # only check-theorem loads mpmath

    _rank_within_dim(args)
    params = typicality.TheoremParams(
        epsilon=args.epsilon, delta=args.delta, delta_prime=args.delta_prime,
        num_cells=args.cells, constant=args.constant)
    dim, rank = args.dim, args.rank
    condition = typicality.theorem_condition(
        params, rank, dim, args.sum_degeneracy,
        precision_bits=args.precision_bits, log_base=typicality.LOG_BASES[args.log_base],
    )
    dim_mp, log_dim = typicality.dim_and_log(dim, args.precision_bits)
    with mp.workprec(args.precision_bits):
        log_ratio = mp.nstr(log_dim / dim_mp, 12)
    crossover = typicality.admissible_constant_crossover(dim, rank, args.precision_bits)
    admissible = typicality.find_admissible_constant(dim, rank,
                                                     precision_bits=args.precision_bits)
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
    return doc, []


# Every key a run config may carry (ExperimentConfig's fields); no other.
RUN_CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(montecarlo.ExperimentConfig))
PARAM_KEYS = frozenset(typicality.DEFAULT_PARAMS)
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
    """The experiment config of a run config document, with ``--trials``
    and ``--seed`` in place of the document's.  The JSON types are checked
    here and the values by ExperimentConfig, which also sets the absent
    keys' defaults."""
    config = dict(_object(doc, "run config", RUN_CONFIG_KEYS))
    for key in ("spectrum", "dims"):
        if key not in config:
            raise ValueError(f'run config needs "{key}"')
    config["spectrum"] = spectrum.parse_spectrum(config["spectrum"])
    dims = config["dims"]
    if not isinstance(dims, list) or not dims:
        raise ValueError(f'"dims" must be a non-empty list of integers, got {dims!r}')
    config["dims"] = tuple(_integer(d, "dims") for d in dims)
    raw_params = _object(config.get("params", {}), '"params"', PARAM_KEYS)
    config["params"] = typicality.TheoremParams(
        num_cells=len(dims),
        **{name: _finite(raw_params.get(name, default), name)
           for name, default in typicality.DEFAULT_PARAMS.items()},
    )
    state = config.get("state")
    if isinstance(state, dict):
        config["state"] = _state_amplitudes(state, '"state"')
    elif "state" in config and not isinstance(state, str):
        # the JSON type of a decoded value that is neither
        kind = {type(None): "null", bool: "boolean", list: "array"}.get(type(state), "number")
        raise ValueError(f'"state" must be a policy name or an object, got a JSON {kind}')
    if "normality" in config and not isinstance(config["normality"], bool):
        raise ValueError(f'"normality" must be true or false, got {config["normality"]!r}')
    # The document's own values are checked even where a flag replaces them.
    for key in ("trials", "seed", "grid_points"):
        if key in config:
            _integer(config[key], key)
    for key in ("trials", "seed"):
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    return montecarlo.ExperimentConfig(**config)


def cmd_run(args) -> tuple[dict, list]:
    report = montecarlo.run_experiment(
        _read_json(args.config, lambda doc: _config_from_document(doc, args)))
    experiment, normality = report["experiment"], report["normality"]
    gates = {"mean_bound_and_chain": experiment["pass"]}
    if normality is not None:
        gates["normality_implication"] = normality["implication_violations"] == 0
    report["gates"] = gates
    report["pass"] = all(gates.values())
    if args.dump_trials is None:
        return report, []
    return report, [(_trial_chunks(experiment), args.dump_trials)]


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
    p.add_argument("--snap-denominator", type=_flag(int, least=1), default=None,
                   help="admit float energies by snapping to multiples of 1/q")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify-lemmas", help="moment statistics of Haar sampling")
    p.add_argument("--dim", type=_flag(_parse_big_int, least=1), required=True)
    p.add_argument("--rank", type=_flag(_parse_big_int, least=1, most=MAX_LEMMA_RANK),
                   required=True)
    p.add_argument("--samples", type=_flag(int, least=2, most=MAX_LEMMA_SAMPLES),
                   default=100_000)
    p.add_argument("--ensemble", type=_flag(int, least=1, most=MAX_LEMMA_ENSEMBLE),
                   default=200, help="unitary ensemble size for block statistics")
    p.add_argument("--seed", type=_flag(int, least=0), default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify_lemmas)

    p = sub.add_parser("compute-l", help="deviation breakdown with oracle cross-check")
    p.add_argument("spectrum", help="path to a spectrum JSON document")
    p.add_argument("--dims", type=_ranks, required=True, help="comma-separated cell ranks")
    p.add_argument("--state", default=None,
                   help='path to a state JSON document {"amplitudes": [[re, im], ...]}')
    p.add_argument("--seed", type=_flag(int, least=0), default=DEFAULT_SEED)
    p.add_argument("--grid-points", type=_flag(int, least=1, most=MAX_DUMP_POINTS),
                   default=None, help="grid size for the trajectory dump (default 1000)")
    p.add_argument("--periods", type=_flag(int, least=1, rule=DUMP_PERIODS_RULE), default=None,
                   help="how many whole periods the trajectory dump spans (default 1)")
    p.add_argument("--dump-trajectory", type=_output_path, default=None,
                   help="write columnar (tau, weight per cell) to this path")
    p.set_defaults(func=cmd_compute_l)

    p = sub.add_parser("check-theorem", help="evaluate the admissibility ordering")
    p.add_argument("--dim", type=_flag(_parse_big_int, least=2), required=True)
    p.add_argument("--rank", type=_flag(_parse_big_int, least=1), required=True)
    p.add_argument("--cells", required=True,
                   type=_flag(_parse_big_int, rule=typicality.PARAM_RULES["num_cells"]))
    p.add_argument("--sum-degeneracy", type=_flag(_parse_big_int, least=1), default=2)
    for name, default in typicality.DEFAULT_PARAMS.items():
        p.add_argument("--" + name.replace("_", "-"), default=default,
                       type=_flag(float, rule=typicality.PARAM_RULES[name]))
    p.add_argument("--margin", type=_flag(float, rule=(lambda m: m > 0, "must be positive")),
                   default=10.0)
    p.add_argument("--precision-bits", default=typicality.DEFAULT_PRECISION_BITS,
                   type=_flag(int, least=MIN_PRECISION_BITS, most=MAX_PRECISION_BITS))
    p.add_argument("--log-base", choices=list(typicality.LOG_BASES), default="e",
                   help="base of log D in the condition's lhs only; every other "
                        "reported logarithm is natural")
    p.set_defaults(func=cmd_check_theorem)

    p = sub.add_parser("run", help="seeded ensemble experiment from a config file")
    p.add_argument("config", help="path to an experiment config JSON document")
    p.add_argument("--seed", type=_flag(int, least=0), default=None,
                   help="override the config seed")
    p.add_argument("--trials", type=_flag(int, least=1), default=None,
                   help="override the trial count")
    p.add_argument("--dump-trials", type=_output_path, default=None,
                   help="write columnar per-trial values to this path")
    p.set_defaults(func=cmd_run)

    for p in sub.choices.values():  # last, as every usage line ends with it
        p.add_argument("--out", type=_output_path, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, dumps = args.func(args)
        for warning in doc.get("warnings", ()):
            print(f"warning: {warning}", file=sys.stderr)
        _write_output(doc, args.out)
        for chunks, path in dumps:
            _write(chunks, path)
        return 0 if doc.get("pass", True) else 1
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
