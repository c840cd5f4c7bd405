"""Every function the package defines is reached by a fixed command-line
corpus, or is allow-listed with the reason it stays.

The corpus is small versions of the benchmark's commands (analyze,
compute-l with its oracle, verify-lemmas, check-theorem, and ``run`` on a
resonant spectrum and, with normality on, a degenerate one), plus the
``--state``, ``--dump-trials``, ``--dump-trajectory`` and ``--out``
routes.  It runs in this process under ``sys.setprofile`` and
``threading.setprofile``, so verify-lemmas' worker threads are seen too,
and both hooks are restored afterwards.  A kernel that no command calls
any more fails this test until it is deleted, so a replaced kernel cannot
linger beside its replacement.
"""

import contextlib
import inspect
import io
import json
import sys
import threading
import types
from pathlib import Path

import ergolab
from ergolab import cli, dynamics, montecarlo, randomness, spectrum, typicality

PACKAGE = Path(ergolab.__file__).resolve().parent

PERFBENCH_LAYER = "a layer that perfbench/spans.py looks up by name and times"
ALLOWED = {
    "dynamics.shell_overlap_matrix": PERFBENCH_LAYER,
    "dynamics.exact_time_avg_weight": PERFBENCH_LAYER,
    "dynamics.time_fraction_normal": PERFBENCH_LAYER,
    "typicality.deviation_exact": PERFBENCH_LAYER,
    "typicality.ergodicity_gap": PERFBENCH_LAYER,
    "montecarlo.normality_fraction": PERFBENCH_LAYER,
    "randomness.sample_decomposition": PERFBENCH_LAYER,
    "randomness.state_weight_statistics": PERFBENCH_LAYER,
    "randomness.hypersphere_moments": PERFBENCH_LAYER,
    "spectrum.GapStructure.entries": "the table perfbench/spans.py's _table_pairs counts",
    "spectrum.SumStructure.entries": "the table perfbench/spans.py's _table_pairs counts",
    "spectrum.PairIndex._entries": "builds the entries tables that _table_pairs counts",
    "spectrum.PairIndex.gap_entries": "builds GapStructure.entries",
    "spectrum.PairIndex.sum_entries": "builds SumStructure.entries",
    "cli.entry": "the console script; tests/installed_cli.sh runs it",
}


def defined_functions() -> set[str]:
    """``module.qualname`` of every def in the package's source files,
    methods and nested defs included; lambdas, comprehensions and class
    bodies are not functions of their own."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                found.add(f"{path.stem}.{code.co_qualname}")
    return found


def write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def corpus(tmp: Path) -> list[list[str]]:
    def levels(count, degeneracy, energy=lambda k: k):
        return {"levels": [{"energy": energy(k), "degeneracy": degeneracy}
                           for k in range(count)]}

    params = {"epsilon": 0.8, "delta": 0.5, "delta_prime": 0.5}
    resonant = write(tmp / "resonant.json", {
        "spectrum": levels(8, 1), "dims": [2] * 4, "trials": 2, "seed": 1,
        "state": "haar-per-trial", "params": params})
    small = write(tmp / "small.json", {
        "spectrum": levels(4, 2), "dims": [2] * 4, "trials": 20, "seed": 1,
        "state": "haar-per-trial", "params": params, "normality": True, "grid_points": 50})
    explicit = write(tmp / "explicit.json", {
        "spectrum": levels(4, 2), "dims": [4, 4], "trials": 3,
        "state": {"amplitudes": [[0.5, 0], [0, 0.5], [0.5, 0], [0, 0.5]] + [[0, 0]] * 4},
        "params": params})
    oracle = write(tmp / "oracle.json", levels(6, 2, lambda k: f"{125 * k}/2"))
    state = write(tmp / "state.json", {"amplitudes": [[1, 0]] + [[0, 0]] * 11})
    return [
        ["analyze", write(tmp / "analyze.json", levels(12, 1))],
        ["compute-l", oracle, "--dims", "3,3,3,3", "--seed", "1"],
        ["compute-l", oracle, "--dims", "6,6", "--state", state, "--grid-points", "40",
         "--dump-trajectory", str(tmp / "trajectory.tsv"), "--out", str(tmp / "l.json")],
        ["verify-lemmas", "--dim", "8", "--rank", "2", "--samples", "100", "--ensemble", "5"],
        ["check-theorem", "--dim", "2^100", "--rank", "1e8", "--cells", "1e22",
         "--epsilon", "1e20", "--delta", "1", "--delta-prime", "1", "--constant", "1e6"],
        ["check-theorem", "--dim", "2^20", "--rank", "2^10", "--cells", "10",
         "--sum-degeneracy", "8"],
        ["run", resonant],
        ["run", small, "--dump-trials", str(tmp / "trials.tsv"), "--out", str(tmp / "run.json")],
        ["run", explicit],
    ]


def reached_functions(argvs) -> set[str]:
    """``module.qualname`` of every package function called while the
    commands run, on any thread.  Cached functions are cleared first, so a
    cache filled by an earlier test does not hide a call."""
    for module in (cli, dynamics, montecarlo, randomness, spectrum, typicality):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    before = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            exits = [cli.main(argv) for argv in argvs]
    finally:
        sys.setprofile(before[0])
        threading.setprofile(before[1])
    assert exits == [0] * len(argvs)
    return {f"{Path(code.co_filename).stem}.{code.co_qualname}" for code in codes
            if Path(code.co_filename).resolve().parent == PACKAGE}


def test_every_function_is_reached_or_allowed(tmp_path):
    before = sys.getprofile(), threading.getprofile()
    defined = defined_functions()
    reached = reached_functions(corpus(tmp_path))
    assert (sys.getprofile(), threading.getprofile()) == before
    assert sorted(defined - reached - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - defined) == []  # no entry outlives its function
    assert sorted(ALLOWED.keys() & reached) == []  # no entry for a reached function
