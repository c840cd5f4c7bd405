"""Acceptance gates for the complete laboratory.

Each test evaluates one numbered criterion at its stated tolerance and
prints a single PASS/FAIL line (visible with ``pytest -s``, or on failure).
Everything is seeded; reruns are bit-identical.
"""

import json
import time
from fractions import Fraction as F

import numpy as np
import pytest

from ergolab import (
    ExperimentConfig,
    Spectrum,
    TheoremParams,
    classify,
    deviation_exact,
    discrete_time_average,
    ergodicity_gap,
    exact_time_avg_weight,
    hypersphere_moments,
    mean_deviation_bound,
    normality_fraction,
    resonant_term_bound,
    run_experiment,
    state_weight_statistics,
    substream,
    sum_structure,
)
from ergolab.cli import main

from support import (
    cell_weight,
    evolve,
    greedy_nonresonant_levels,
    per_point,
    random_instance,
    random_integer_spectrum,
    random_nonresonant_levels,
)

MASTER_SEED = 20_000_101


def gate(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def oracle_ensemble():
    """200 random (integer spectrum, state, decomposition) triples with every
    cell's exact deviation, oracle value, and chain quantities."""
    rng = substream(MASTER_SEED, 1)
    records = []
    start = time.monotonic()
    for _ in range(200):
        spec = random_integer_spectrum(rng, dim_range=(4, 12), spread=12)
        vector, decomposition = random_instance(spec, rng)
        d_f = sum_structure(spec).max_sum_degeneracy
        spread = int(spec.spread)
        for cell in decomposition:
            breakdown = deviation_exact(spec, vector, cell)
            frac = cell.shape[1] / spec.dim_total
            oracle = discrete_time_average(
                per_point(lambda tau: (cell_weight(evolve(spec, vector, tau), cell) - frac) ** 2),
                spec,
                2 * spread,
            )
            records.append({
                "total": breakdown["total"],
                "oracle": oracle,
                "resonant": breakdown["resonant_term"],
                "resonant_bound": resonant_term_bound(
                    exact_time_avg_weight(spec, vector, cell), d_f),
                "gap": ergodicity_gap(spec, vector, cell),
            })
    return {"records": records, "runtime": time.monotonic() - start}


def test_criterion_1_oracle_equivalence(oracle_ensemble):
    records = oracle_ensemble["records"]
    runtime = oracle_ensemble["runtime"]
    worst = max(abs(r["total"] - r["oracle"]) for r in records)
    ok = worst <= 1e-9 and runtime < 60
    gate("criterion 1: exact deviation equals time-average oracle", ok,
         f"{len(records)} cells, worst residual {worst:.2e}, {runtime:.1f}s")


def test_criterion_2_nonresonant_collapse():
    rng = substream(MASTER_SEED, 2)
    start = time.monotonic()
    bad = 0
    for _ in range(1000):
        num_levels = int(rng.integers(2, 11))
        levels = random_nonresonant_levels(rng, num_levels)
        degens = [int(rng.integers(1, 3)) for _ in levels]
        spec = Spectrum(tuple((F(e), d) for e, d in zip(levels, degens)))
        sums = sum_structure(spec)
        vector, decomposition = random_instance(spec, rng, max_cells=2)
        term = deviation_exact(spec, vector, decomposition[0])["resonant_term"]
        if sums.max_sum_degeneracy != 2 or term != 0.0:
            bad += 1
    runtime = time.monotonic() - start
    ok = bad == 0 and runtime < 30
    gate("criterion 2: non-resonant spectra have empty resonant part", ok,
         f"1000 spectra, {bad} failures, {runtime:.1f}s")


def test_criterion_3_degenerate_reduction():
    rng = substream(MASTER_SEED, 3)
    worst = 0.0
    for _ in range(100):
        num_levels = int(rng.integers(2, 6))
        energies = np.sort(rng.choice(13, size=num_levels, replace=False))
        degens = [int(rng.integers(1, 4)) for _ in range(num_levels)]
        degens[int(rng.integers(0, num_levels))] = 3  # force real degeneracy
        spec = Spectrum(tuple(
            (F(int(e)), d) for e, d in zip(energies, degens)
        ))
        vector, decomposition = random_instance(spec, rng, max_cells=3)
        spread = int(spec.spread)
        for cell in decomposition:
            oracle = discrete_time_average(
                per_point(lambda tau: cell_weight(evolve(spec, vector, tau), cell)), spec, spread
            )
            worst = max(worst, abs(exact_time_avg_weight(spec, vector, cell) - oracle))
    ok = worst <= 1e-10
    gate("criterion 3: shell-sum time average matches oracle on degenerate spectra",
         ok, f"100 instances, worst residual {worst:.2e}")


def test_criterion_4_state_weight_moments():
    start = time.monotonic()
    stats = state_weight_statistics(100, 10, 100_000, substream(MASTER_SEED, 4))
    runtime = time.monotonic() - start
    mean, var = stats["mean"], stats["variance"]
    ok = mean["pass"] and var["pass"] and runtime < 60
    gate("criterion 4: random-state weight mean and variance", ok,
         f"mean {mean['estimate']:.5f} vs 0.1, "
         f"var {var['estimate']:.3e} vs {var['target']:.3e}, {runtime:.1f}s")


def test_criterion_5_hypersphere_moments():
    stats = hypersphere_moments(50, 100_000, substream(MASTER_SEED, 5))
    records = [stats["mean"], stats["variance"], stats["covariance"]]
    ok = all(r["pass"] for r in records)
    gate("criterion 5: hypersphere coordinate moments", ok,
         ", ".join(f"{r['estimate']:.3e} vs {r['target']:.3e}" for r in records))


def test_criterion_6_inequality_chain(oracle_ensemble):
    records = oracle_ensemble["records"]
    gap_violations = sum(r["gap"] > r["total"] + 1e-12 for r in records)
    bound_violations = sum(
        r["resonant"] > r["resonant_bound"] + 1e-12 for r in records
    )
    ok = gap_violations == 0 and bound_violations == 0
    gate("criterion 6: ergodicity gap and resonant bound chain", ok,
         f"{len(records)} cells, {gap_violations}+{bound_violations} violations")


def test_criterion_7_mean_deviation_bound():
    nonres = Spectrum(tuple((F(e), 8) for e in greedy_nonresonant_levels(8)))
    resonant = Spectrum(tuple((F(e), 8) for e in range(8)))
    assert classify(nonres).non_resonant and not classify(resonant).non_resonant
    details = []
    ok = True
    for label, spec in (("non-resonant", nonres), ("resonant", resonant)):
        config = ExperimentConfig(
            spectrum=spec,
            dims=(8,) * 8,
            params=TheoremParams(1.0, 0.1, 0.1, 8),
            trials=200,
            seed=MASTER_SEED,
            state_policy="haar-fixed",
        )
        experiment = run_experiment(config)["experiment"]
        bound = mean_deviation_bound(64, 8, experiment["D_F"])
        worst_mean = max(c["mean"] for c in experiment["cells"])
        ok = ok and all(c["mean_below_bound"] for c in experiment["cells"])
        details.append(f"{label}: mean {worst_mean:.4f} <= {bound:.4f} "
                       f"(slack {bound - worst_mean:.4f})")
    gate("criterion 7: ensemble mean deviation below its bound", ok,
         "; ".join(details))


def test_criterion_8_sufficient_condition_implication():
    spec = Spectrum(tuple((F(e), 2) for e in range(4)))
    config = ExperimentConfig(
        spectrum=spec,
        dims=(4, 4),
        params=TheoremParams(0.8, 0.5, 0.5, 2),
        trials=150,
        seed=20,
        state_policy="haar-per-trial",
    )
    out = normality_fraction(config)
    nonvacuous = 0 < out["sufficient_fraction"]
    mixed = out["sufficient_fraction"] < 1
    ok = out["implication_violations"] == 0 and nonvacuous
    gate("criterion 8: sufficient condition implies the time-fraction bound", ok,
         f"{round(out['sufficient_fraction'] * out['trials'])}/{out['trials']} sufficient "
         f"({'mixed' if mixed else 'uniform'}), "
         f"direct fraction {out['direct_fraction']:.3f}, "
         f"{out['implication_violations']} violations")


def test_criterion_9_asymptotic_example(tmp_path):
    out = tmp_path / "theorem.json"
    start = time.monotonic()
    code = main([
        "check-theorem", "--dim", "2^100", "--rank", "1e8", "--cells", "1e22",
        "--epsilon", "1e20", "--delta", "1", "--delta-prime", "1",
        "--constant", "1e6", "--out", str(out),
    ])
    runtime = time.monotonic() - start
    report = json.loads(out.read_text())
    log_ratio = float(report["log_dim_over_dim"])
    share = float(report["condition"]["d_over_D"])
    crossover = float(report["admissible_constant_crossover"])
    ok = (
        code == 0
        and 1e-30 < log_ratio < 1e-28
        and 1e-23 < share < 1e-21
        and 1e6 < crossover < 1e7
        and runtime < 1.0
    )
    gate("criterion 9: asymptotic hundred-spin instance", ok,
         f"log D/D {log_ratio:.2e}, d/D {share:.2e}, "
         f"crossover {crossover:.3e}, {runtime * 1000:.0f}ms")


def test_criterion_10_determinism(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"levels": [
        {"energy": 0, "degeneracy": 2},
        {"energy": 1, "degeneracy": 1},
        {"energy": 2, "degeneracy": 2},
    ]}))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "spectrum": {"levels": [
            {"energy": 0, "degeneracy": 2},
            {"energy": 1, "degeneracy": 2},
        ]},
        "dims": [2, 2],
        "trials": 10,
        "seed": 7,
        "state": "haar-per-trial",
        "params": {"epsilon": 1.0, "delta": 0.5, "delta_prime": 0.5},
        "normality": True,
    }))
    invocations = {
        "analyze": ["analyze", str(spec_path)],
        "verify-lemmas": ["verify-lemmas", "--dim", "16", "--rank", "4",
                          "--samples", "2000", "--ensemble", "20", "--seed", "3"],
        "compute-l": ["compute-l", str(spec_path), "--dims", "2,3", "--seed", "11"],
        "check-theorem": ["check-theorem", "--dim", "2^100", "--rank", "1e8",
                          "--cells", "1e22", "--constant", "1e6"],
        "run": ["run", str(config_path)],
    }
    mismatched = []
    for name, argv in invocations.items():
        out1 = tmp_path / f"{name}-1.json"
        out2 = tmp_path / f"{name}-2.json"
        main(argv + ["--out", str(out1)])
        main(argv + ["--out", str(out2)])
        if out1.read_bytes() != out2.read_bytes():
            mismatched.append(name)
    ok = not mismatched
    gate("criterion 10: identical seeds give byte-identical reports", ok,
         f"{len(invocations)} commands" + (f"; mismatched: {mismatched}" if mismatched else ""))
