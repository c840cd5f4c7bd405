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
import io
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

# Oracle cross-checks are skipped when the discrete grid would exceed this.
MAX_ORACLE_GRID = 20_001

# The float parameters carry 53 bits; the mpmath checks get at least that.
# (Below 7 bits the admissible-constant grid step 1.01 rounds to 1.)
MIN_PRECISION_BITS = 53

LOG_BASES = {"e": math.e, "10": 10.0}


def _write_output(doc: dict, out: str | None) -> None:
    # json.dumps with an indent first gathers every token of the report in a
    # list; for a large analyze report that list sets the peak memory.
    buf = io.StringIO()
    json.dump(doc, buf, indent=2, sort_keys=True, allow_nan=False)
    buf.write("\n")
    text = buf.getvalue()
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_big_int(text: str) -> int:
    """Integer with power notation: 123, 2^100, 10^22, or 1e8 (if exact)."""
    text = text.strip().replace("_", "")
    if "^" in text:
        base, _, exponent = text.partition("^")
        power = int(exponent)
        if power < 0:
            raise argparse.ArgumentTypeError(f"{text!r} has a negative exponent")
        return int(base) ** power
    if "e" in text.lower():
        mantissa, _, exponent = text.lower().partition("e")
        value = Fraction(mantissa) * Fraction(10) ** int(exponent)
        if value.denominator != 1:
            raise argparse.ArgumentTypeError(f"{text!r} is not an exact integer")
        return value.numerator
    return int(text)


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
    return np.array([complex(re, im) for re, im in pairs])


def _read_state_file(path: str) -> np.ndarray:
    """State schema: {"amplitudes": [[re, im], ...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "amplitudes" not in doc:
        raise ValueError('state document must contain an "amplitudes" list')
    return _amplitudes(doc["amplitudes"])


def cmd_analyze(args) -> int:
    spec = _read_spectrum_file(args.spectrum, args.snap_denominator)
    _write_output(spectrum.structure_report(spec), args.out)
    return 0


def cmd_verify_lemmas(args) -> int:
    dim, rank, samples = args.dim, args.rank, args.samples
    if not 1 <= rank <= dim:
        raise ValueError(f"need 1 <= rank <= dim, got rank={rank}, dim={dim}")
    if samples < 2:
        raise ValueError(f"--samples must be at least 2 for a standard error, got {samples}")
    warnings = []
    gated = samples >= MIN_GATED_SAMPLES
    if not gated:
        warnings.append(
            f"insufficient samples ({samples} < {MIN_GATED_SAMPLES}): gates skipped"
        )

    state_stats = randomness.state_weight_statistics(
        dim, rank, samples, randomness.substream(args.seed, 0)
    )
    sphere_stats = randomness.hypersphere_moments(
        dim, samples, randomness.substream(args.seed, 1)
    )

    block_stats = None
    block_gate = None
    if rank < dim:
        block_stats = randomness.unitary_block_statistics(
            dim, rank, args.ensemble, randomness.substream(args.seed, 2)
        )
        applicable = (
            args.ensemble >= 100
            and typicality.admissible_constant_crossover(dim, rank) > 1
        )
        block_gate = {"applicable": applicable, "pass": None}
        if applicable and gated:
            block_gate["pass"] = all(
                rec["estimate"] <= rec["threshold"] + 5 * rec["stderr"]
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
    spec = _read_spectrum_file(args.spectrum)
    dims = tuple(int(x) for x in args.dims.split(","))
    if sum(dims) != spec.dim_total:
        raise ValueError(
            f"cell ranks {dims} do not sum to the dimension {spec.dim_total}"
        )
    decomposition = randomness.sample_decomposition(
        dims, randomness.substream(args.seed, 0)
    )
    if args.state is not None:
        amplitudes = _read_state_file(args.state)
        state_source = "file"
    else:
        amplitudes = randomness.sample_random_state(
            spec.dim_total, randomness.substream(args.seed, 1)
        )
        state_source = "sampled"
    state = dynamics.prepare_state(amplitudes, spec)

    gaps = spectrum.gap_structure(spec)
    sums = spectrum.sum_structure(spec)
    d_f = sums.max_sum_degeneracy

    ispec, mult = dynamics.integer_rescaled(spec)
    istate = dynamics.prepare_state(amplitudes, ispec)
    spread = int(ispec.spread)
    grid = 4 * spread + 1
    oracle_note = None
    if grid > MAX_ORACLE_GRID:
        oracle_note = (
            f"oracle skipped: rescaled spectral spread {spread} needs a "
            f"{grid}-point grid (limit {MAX_ORACLE_GRID})"
        )

    all_ok = True
    cell_records = []
    for k, cell in enumerate(decomposition):
        b = typicality.deviation_exact(state, cell, gaps, sums)
        frac = cell.rank / spec.dim_total
        r1, r2 = b.identity_residuals()
        bound = typicality.resonant_term_bound(b.time_avg_weight, d_f)
        record = b.as_dict()
        record.update({
            "cell": k + 1,
            "rank": cell.rank,
            "identity_residuals": [r1, r2],
            "ergodicity_gap": b.diag_dev_sq,
            "resonant_bound": bound,
            "chain_ok": (b.diag_dev_sq <= b.total + montecarlo.CHAIN_SLACK
                         and b.resonant_term <= bound + montecarlo.CHAIN_SLACK),
        })
        ok = record["chain_ok"] and max(r1, r2) <= typicality.IDENTITY_TOL
        if oracle_note is None:
            oracle = dynamics.discrete_time_average(
                lambda tau: (dynamics.cell_weight(dynamics.evolve(istate, tau), cell)
                             - frac) ** 2,
                ispec,
                2 * spread,
            )
            residual = abs(oracle - b.total)
            record["oracle"] = {
                "value": oracle,
                "residual": residual,
                "match": residual <= 1e-9,
            }
            ok = ok and record["oracle"]["match"]
        cell_records.append(record)
        all_ok = all_ok and ok

    doc = {
        "D": spec.dim_total,
        "D_E": spec.num_levels,
        "D_G": gaps.max_gap_degeneracy,
        "D_F": d_f,
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
        # Periods of the (rescaled-integer) dynamics in original time units;
        # columnar text for external plotters.
        span = 2 * math.pi * mult * args.periods
        taus = span * np.arange(args.grid_points) / args.grid_points
        weights = dynamics.trajectory_weights(state, decomposition, taus)
        with open(args.dump_trajectory, "w", encoding="utf-8") as fh:
            fh.write("tau\t" + "\t".join(
                f"cell_{k + 1}" for k in range(len(decomposition))) + "\n")
            for tau, row in zip(taus, weights):
                fh.write(f"{float(tau)!r}\t"
                         + "\t".join(f"{float(w)!r}" for w in row) + "\n")
    return 0 if all_ok else 1


def cmd_check_theorem(args) -> int:
    if args.dim < 2:
        raise ValueError(f"--dim must be at least 2 so that log D > 0, got {args.dim}")
    if args.rank < 1:
        raise ValueError(f"--rank must be at least 1, got {args.rank}")
    if args.precision_bits < MIN_PRECISION_BITS:
        raise ValueError(
            f"--precision-bits must be at least {MIN_PRECISION_BITS}, "
            f"got {args.precision_bits}"
        )
    params = typicality.TheoremParams(
        epsilon=args.epsilon,
        delta=args.delta,
        delta_prime=args.delta_prime,
        num_cells=args.cells,
        constant=args.constant,
    )
    dim, rank = args.dim, args.rank
    log_base = _log_base(args.log_base)
    verdict = typicality.theorem_condition(
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
        "condition": verdict.as_dict(),
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
    "grid_points", "normality", "markov_threshold",
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


def _config_from_document(doc, args) -> tuple[montecarlo.ExperimentConfig, float | None]:
    """Validate a run config document; returns the config and the Markov threshold."""
    doc = _object(doc, "run config", RUN_CONFIG_KEYS)
    for key in ("spectrum", "dims"):
        if key not in doc:
            raise ValueError(f'run config needs "{key}"')
    spec = spectrum.parse_spectrum(doc["spectrum"])
    dims = doc["dims"]
    if not isinstance(dims, list):
        raise ValueError(f'"dims" must be a list of integers, got {dims!r}')
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
    else:
        policy = str(state)
    normality = doc.get("normality", False)
    if not isinstance(normality, bool):
        raise ValueError(f'"normality" must be true or false, got {normality!r}')
    markov_threshold = doc.get("markov_threshold")
    if markov_threshold is not None:
        markov_threshold = _finite(markov_threshold, "markov_threshold")
    trials = args.trials if args.trials is not None else doc.get("trials", 100)
    seed = args.seed if args.seed is not None else doc.get("seed", DEFAULT_SEED)
    config = montecarlo.ExperimentConfig(
        spectrum=spec,
        dims=dims,
        params=params,
        trials=_integer(trials, "trials"),
        seed=_integer(seed, "seed"),
        state_policy=policy,
        amplitudes=amplitudes,
        log_base=_log_base(doc.get("log_base", "e")),
        grid_points=_integer(doc.get("grid_points", 1000), "grid_points"),
        normality=normality,
    )
    return config, markov_threshold


def cmd_run(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    config, markov_threshold = _config_from_document(doc, args)

    report = montecarlo.run_experiment(config)
    if markov_threshold is None:
        markov_threshold = config.threshold(min(config.dims))
    markov = montecarlo.markov_check(report, markov_threshold)
    gates = {"mean_bound_and_chain": report.passed, "markov": markov["pass"]}
    if report.normality is not None:
        gates["normality_implication"] = report.normality.implication_violations == 0

    out_doc = {
        "experiment": report.to_dict(),
        "markov": markov,
        "normality": None if report.normality is None else report.normality.to_dict(),
        "gates": gates,
        "pass": all(gates.values()),
    }
    _write_output(out_doc, args.out)
    if args.dump_trials is not None:
        montecarlo.dump_trials(report, args.dump_trials)
    return 0 if all(gates.values()) else 1


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_lemmas)

    p = sub.add_parser("compute-l", help="deviation breakdown with oracle cross-check")
    p.add_argument("spectrum", help="path to a spectrum JSON document")
    p.add_argument("--dims", required=True, help="comma-separated cell ranks")
    p.add_argument("--state", default=None,
                   help='path to a state JSON document {"amplitudes": [[re, im], ...]}')
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--grid-points", type=int, default=1000,
                   help="grid size for the trajectory dump")
    p.add_argument("--periods", type=float, default=1.0,
                   help="how many periods the trajectory dump spans")
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
    p.add_argument("--log-base", choices=list(LOG_BASES), default="e")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check_theorem)

    p = sub.add_parser("run", help="seeded ensemble experiment from a config file")
    p.add_argument("config", help="path to an experiment config JSON document")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--trials", type=int, default=None, help="override the trial count")
    p.add_argument("--dump-trials", default=None,
                   help="write columnar per-trial values to this path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
