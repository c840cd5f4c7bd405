"""The benchmark's named workloads: generated inputs and output checks.

Each workload is a list of ergolab CLI invocations.  Inputs (spectrum and
config files) are written from the workload seed alone, so one seed always
gives the same files and argument lists; the program sees nothing else.

Every invocation carries a ``check`` record naming the seed-independent
properties its report must have.  :func:`check_report` applies them and
returns the list of failures (empty when the command is correct).
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("ensemble-resonant", "ensemble-small", "lab-commands")

# Largest difference allowed between a reported trial total and
# deviation_oracle; both are sums of a few thousand terms below 1.
ORACLE_TOL = 1e-12

# Shared tolerances of the ensemble configs.
_PARAMS = {"epsilon": 0.8, "delta": 0.5, "delta_prime": 0.5}

# The README's hundred-spin instance (acceptance gate 9).
README_THEOREM = ["check-theorem", "--dim", "2^100", "--rank", "1e8",
                  "--cells", "1e22", "--epsilon", "1e20", "--delta", "1",
                  "--delta-prime", "1", "--constant", "1e6"]

# Fixed (D, d, F, M) sweep for check-theorem: D = 2^k, d = 2^j for three
# rank exponents per k, four sum degeneracies F and two cell counts M.
_SWEEP_DIM_EXPONENTS = (20, 32, 48, 64, 80, 100, 128, 200)
_SWEEP_RANK_SHARES = (0.25, 0.5, 0.75)
_SWEEP_SUM_DEGENERACIES = (2, 3, 8, 64)
_SWEEP_CELLS = (10, 1000)


def _levels(count: int, degeneracy: int, energy=lambda k: k) -> dict:
    return {"levels": [{"energy": energy(k), "degeneracy": degeneracy}
                       for k in range(count)]}


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _ensemble(workdir: Path, seed: int, levels: int, degeneracy: int,
              dims: list[int], trials: int, normality: bool) -> list[dict]:
    config = {
        "spectrum": _levels(levels, degeneracy),
        "dims": dims,
        "trials": trials,
        "seed": seed,
        "state": "haar-per-trial",
        "params": _PARAMS,
        "normality": normality,
        "grid_points": 1000,
    }
    path = _write(workdir / "config.json", config)
    check = {"kind": "run", "levels": levels, "degeneracy": degeneracy, "dims": dims,
             "trials": trials, "seed": seed, "normality": normality}
    return [{"name": "run", "argv": ["run", path], "check": check}]


def _theorem_sweep() -> list[list[str]]:
    sweep = []
    for k in _SWEEP_DIM_EXPONENTS:
        for share in _SWEEP_RANK_SHARES:
            for f in _SWEEP_SUM_DEGENERACIES:
                for m in _SWEEP_CELLS:
                    sweep.append(["check-theorem", "--dim", f"2^{k}",
                                  "--rank", f"2^{round(k * share)}",
                                  "--cells", str(m), "--sum-degeneracy", str(f)])
    return sweep


def _lab(workdir: Path, seed: int) -> list[dict]:
    analyze_levels = 300
    analyze = _write(workdir / "analyze.json", _levels(analyze_levels, 1))
    # Energies 125k/2 rescale to a 19 501-point oracle grid, just under
    # the CLI's 20 001-point limit.
    oracle = _write(workdir / "oracle.json",
                    _levels(40, 2, lambda k: f"{125 * k}/2"))
    commands = [
        {"name": "analyze", "argv": ["analyze", analyze],
         "check": {"kind": "analyze", "levels": analyze_levels, "degeneracy": 1}},
        {"name": "compute-l",
         "argv": ["compute-l", oracle, "--dims", "20,20,20,20", "--seed", str(seed)],
         "check": {"kind": "compute-l", "cells": 4}},
        {"name": "verify-lemmas",
         "argv": ["verify-lemmas", "--dim", "100", "--rank", "10", "--seed", str(seed)],
         "check": {"kind": "verify-lemmas"}},
        {"name": "check-theorem", "argv": README_THEOREM,
         "check": {"kind": "theorem-readme"}},
    ]
    commands += [{"name": "check-theorem", "argv": argv, "check": {"kind": "theorem"}}
                 for argv in _theorem_sweep()]
    return commands


def build(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's input files into ``workdir``; return its commands."""
    if workload == "ensemble-resonant":
        # Integer levels 0..63: D = D_E = 64, D_G = 63, D_F = 64.  The
        # resonance loop of the deviation kernel takes nearly all the time.
        return _ensemble(workdir, seed, 64, 1, [16] * 4, 2, normality=False)
    if workload == "ensemble-small":
        # D = 8: the kernel is cheap and per-trial overhead dominates.
        return _ensemble(workdir, seed, 4, 2, [2] * 4, 500, normality=True)
    if workload == "lab-commands":
        return _lab(workdir, seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


@functools.lru_cache(maxsize=None)
def mean_limit(samples: int) -> float:
    """Standard errors a sample mean may sit from its exact value.

    A normal mean strays beyond 5 standard errors with probability
    erfc(5/sqrt(2)) ~ 5.7e-7.  With an estimated standard error the
    statistic is Student-t with ``samples - 1`` degrees of freedom, whose
    tail is much heavier for few samples (10 trials: 12.4 standard errors
    for the same probability), so the limit is taken at that quantile.
    """
    from mpmath import betainc

    nu = samples - 1
    target = math.erfc(5 / math.sqrt(2))
    lo, hi = 5.0, 1e6
    for _ in range(100):
        mid = math.sqrt(lo * hi)
        tail = betainc(nu / 2, 0.5, 0, nu / (nu + mid * mid), regularized=True)
        lo, hi = (mid, hi) if tail > target else (lo, mid)
    return hi


def deviation_oracle(levels: int, degeneracy: int, dims: list[int], seed: int,
                     trials: int) -> np.ndarray:
    """Deviation functional of every trial and cell, by an independent route.

    Redraws each trial as ``run`` does with ``haar-per-trial`` (generator
    ``(seed, 1, trial)``: phase-fixed QR of a complex Ginibre matrix, then a
    Gaussian state) for integer levels ``0..levels-1``, and evaluates the
    gap-bucket form of the long-time average: with S the shell overlap
    matrix and G_g the sum of S[a, b] over E_b - E_a = g,
    L = sum_g |G_g|^2 - 2 (d/D) tr S + (d/D)^2.
    """
    dim = levels * degeneracy
    gap = np.subtract.outer(np.arange(levels), np.arange(levels)).ravel() + levels - 1
    out = np.empty((trials, len(dims)))
    for t in range(trials):
        rng = np.random.default_rng([seed, 1, t])
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(z / math.sqrt(2.0))
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        start = 0
        for k, rank in enumerate(dims):
            basis = q[:, start:start + rank]
            start += rank
            shell = (basis.conj() * psi[:, None]).reshape(levels, degeneracy, rank).sum(axis=1)
            s = (shell.conj() @ shell.T).ravel()
            buckets = (np.bincount(gap, s.real, 2 * levels - 1)
                       + 1j * np.bincount(gap, s.imag, 2 * levels - 1))
            frac = rank / dim
            trace = s[::levels + 1].real.sum()
            out[t, k] = np.sum(np.abs(buckets) ** 2) - 2 * frac * trace + frac**2
    return out


def _close(value, exact, rel=1e-9) -> bool:
    return abs(float(value) - exact) <= rel * abs(exact)


def _check_run(doc: dict, spec: dict) -> list[str]:
    failures = []
    exp = doc["experiment"]
    dim = spec["levels"] * spec["degeneracy"]
    if exp["D"] != dim or exp["dims"] != spec["dims"] or exp["trials"] != spec["trials"]:
        failures.append("report does not describe the generated config")
    if exp["chain_violations"] != 0:
        failures.append(f"chain_violations = {exp['chain_violations']}")
    if spec["normality"]:
        violations = doc["normality"]["implication_violations"]
        if violations != 0:
            failures.append(f"implication_violations = {violations}")
    limit = mean_limit(spec["trials"])
    for cell in exp["cells"]:
        d = cell["rank"]
        exact = d * (dim - d) / (dim * dim * (dim + 1))
        if not abs(cell["mean"] - exact) <= limit * cell["stderr"]:
            failures.append(
                f"cell {cell['cell']} mean {cell['mean']} is not within "
                f"{limit:.3g} stderr ({cell['stderr']}) of the Haar mean {exact}")
    if "trial_totals" in exp:
        oracle = deviation_oracle(spec["levels"], spec["degeneracy"], spec["dims"],
                                  spec["seed"], spec["trials"])
        worst = float(np.max(np.abs(np.array(exp["trial_totals"]) - oracle)))
        if not worst <= ORACLE_TOL:
            failures.append(f"trial totals differ from the gap-bucket oracle by {worst}")
    return failures


def _check_analyze(doc: dict, spec: dict) -> list[str]:
    n, g = spec["levels"], spec["degeneracy"]
    want = {"D": n * g, "D_E": n, "D_G": n - 1, "D_F": n}
    got = {key: doc[key] for key in want}
    return [] if got == want else [f"structure {got} != {want} for {n} equally spaced levels"]


def _check_compute_l(doc: dict, spec: dict) -> list[str]:
    if doc["oracle_note"] is not None or len(doc["cells"]) != spec["cells"]:
        return ["trajectory oracle did not run on every cell"]
    return [f"cell {c['cell']}: oracle residual {c['oracle']['residual']}"
            for c in doc["cells"] if not c["oracle"]["match"]]


def _check_readme_theorem(doc: dict) -> list[str]:
    log_ratio = float(doc["log_dim_over_dim"])
    share = float(doc["condition"]["d_over_D"])
    crossover = float(doc["admissible_constant_crossover"])
    if 1e-30 < log_ratio < 1e-28 and 1e-23 < share < 1e-21 and 1e6 < crossover < 1e7:
        return []
    return [f"README instance out of range: log D/D {log_ratio}, d/D {share}, "
            f"crossover {crossover}"]


def _check_theorem(doc: dict) -> list[str]:
    """Recompute the sweep's closed forms in plain floats."""
    dim, rank = doc["D"], doc["rank"]
    log_dim = math.log(dim)
    crossover = min(rank / log_dim, dim / rank)
    failures = []
    if not _close(doc["log_dim_over_dim"], log_dim / dim):
        failures.append(f"log D/D = {doc['log_dim_over_dim']}")
    if not _close(doc["condition"]["d_over_D"], rank / dim):
        failures.append(f"d/D = {doc['condition']['d_over_D']}")
    if not _close(doc["admissible_constant_crossover"], crossover):
        failures.append(f"crossover = {doc['admissible_constant_crossover']}")
    m, f = doc["cells"], doc["sum_degeneracy"]
    stat = (10 * m * m / (doc["delta"] * doc["delta_prime"] * doc["epsilon"] ** 2)
            * (1 + max(f - 2, 0) * rank * rank / (10 * dim * log_dim)))
    lhs = max(doc["constant"], stat) * log_dim / dim
    holds = lhs < rank / dim < 1 / doc["constant"]
    if doc["condition"]["holds"] != holds:
        failures.append(f"verdict {doc['condition']['holds']}, recomputed {holds}")
    return failures


def check_report(command: dict, code: int, text: str) -> list[str]:
    """Seed-independent checks of one command's exit code and report."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    spec = command["check"]
    failures = []
    if "pass" in doc and doc["pass"] is not True:
        failures.append('report has "pass": false')
    kind = spec["kind"]
    if kind == "run":
        failures += _check_run(doc, spec)
    elif kind == "analyze":
        failures += _check_analyze(doc, spec)
    elif kind == "compute-l":
        failures += _check_compute_l(doc, spec)
    elif kind == "verify-lemmas":
        if doc["gates_evaluated"] is not True:
            failures.append("verify-lemmas evaluated no gates")
    elif kind == "theorem-readme":
        failures += _check_readme_theorem(doc)
    elif kind == "theorem":
        failures += _check_theorem(doc)
    return failures
