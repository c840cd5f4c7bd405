#!/usr/bin/env bash
# End-to-end checks of the ergolab console script, run in the current
# directory, where it writes its reports.  CI runs it from outside the
# checkout against the installed package; tests/test_check_scripts.py runs it
# in a temporary directory with a stand-in that calls ergolab.cli.entry.
#
# verify-lemmas draws its random states in two halves on two threads and its
# unitary blocks on a third, so the threaded path runs as installed too; it
# runs twice and the two reports must be byte-identical, whatever the
# scheduling, and its unitary-block gate, on thin Haar frames, must apply and
# pass; compute-l on a resonant spectrum runs the trajectory oracle on its
# 2*spread + 1 grid times and dumps the trajectory; compute-l dumps levels 0
# and 10^17 on exact grid phases: 10^17 is 0 mod 1000, so every phase of the
# 1000-point grid is 1 and every row of weights equals the first within
# 1e-15; run writes the experiment and normality records of a 200-trial
# ensemble, gated on the inequality chain and the normality implication
# alone; run with normality on levels 10^19 + {0, 1, 3, 4}, past int64, where
# the pair index holds Python integers, and on {0, 1, 3, 4} at the same seed
# must give equal normality records and equal trial totals, the offset being
# a global phase; analyze writes the gap and sum tables of a rational degenerate
# spectrum; compute-l on that spectrum and on its integer copy, its levels
# times their common denominator 12, at one seed must give equal cell
# records, every oracle match true, since both read the same integer levels
# from the pair index, and rescaled_to_integer {"multiplier": 12} against
# null.  The report writer must be a fixed point of the stdlib encoder:
# the analyze, run and compute-l reports must each equal
# json.dumps(json.load(f), indent=2, sort_keys=True) plus a newline.  Only
# check-theorem loads mpmath: in one interpreter, importing ergolab and
# ergolab.cli and then running analyze, compute-l, run and verify-lemmas,
# with its unitary-block gate applying, through ergolab.cli.main must
# leave mpmath out of sys.modules, and check-theorem must then exit 0
# having loaded it.  A refusal names its
# source: run on a config whose state has norm 2 exits 1
# with one error line naming the config file, and run --trials 0 exits 2
# with argparse's error naming the flag and not the file.  Any other nonzero
# exit fails the script.
set -eo pipefail

ergolab check-theorem --dim 2^100 --rank 2^60 --cells 4 --out theorem.json
python -c 'import json; doc = json.load(open("theorem.json")); assert doc["D"] == 2**100 and isinstance(doc["condition"]["holds"], bool), doc'
ergolab verify-lemmas --dim 16 --rank 4 --samples 20000 --ensemble 100 --out lemmas.json
ergolab verify-lemmas --dim 16 --rank 4 --samples 20000 --ensemble 100 --out lemmas-again.json
cmp lemmas.json lemmas-again.json
python -c 'import json; doc = json.load(open("lemmas.json")); assert doc["gates_evaluated"] is True and doc["pass"] is True and doc["unitary_block_gate"] == {"applicable": True, "pass": True}, doc'
python -c 'import json; json.dump({"levels": [{"energy": e, "degeneracy": 2} for e in range(6)]}, open("resonant.json", "w"))'
ergolab compute-l resonant.json --dims 4,4,4 --seed 3 --out oracle.json --dump-trajectory traj.tsv --grid-points 50
python -c 'import json; doc = json.load(open("oracle.json")); assert doc["oracle_note"] is None and all(c["oracle"]["match"] is True for c in doc["cells"]), doc'
python -c 'lines = open("traj.tsv").read().splitlines(); assert lines[0] == "tau\tcell_1\tcell_2\tcell_3" and len(lines) == 51, lines[:2]'
python -c 'import json; json.dump({"levels": [{"energy": 0, "degeneracy": 1}, {"energy": 10**17, "degeneracy": 1}]}, open("far.json", "w"))'
ergolab compute-l far.json --dims 1,1 --out far-report.json --dump-trajectory far.tsv
python -c 'lines = open("far.tsv").read().splitlines(); rows = [[float(x) for x in ln.split("\t")[1:]] for ln in lines[1:]]; assert len(lines) == 1001 and all(abs(a - b) <= 1e-15 for row in rows for a, b in zip(row, rows[0])), rows[:2]'
python -c 'import json; json.dump({"spectrum": {"levels": [{"energy": e, "degeneracy": 2} for e in range(4)]}, "dims": [2, 2, 2, 2], "state": "haar-per-trial", "trials": 200, "normality": True}, open("run.json", "w"))'
ergolab run run.json --out run-report.json
python -c 'import json; doc = json.load(open("run-report.json")); assert doc["pass"] is True and doc["normality"]["implication_violations"] == 0 and len(doc["experiment"]["trial_totals"]) == 200 and "markov" not in doc and set(doc["gates"]) == {"mean_bound_and_chain", "normality_implication"}, doc["gates"]'
python -c 'import json; [json.dump({"spectrum": {"levels": [{"energy": shift + e, "degeneracy": 2} for e in (0, 1, 3, 4)]}, "dims": [2, 2, 2, 2], "state": "haar-per-trial", "trials": 100, "params": {"epsilon": 0.8, "delta": 0.5, "delta_prime": 0.5}, "normality": True}, open(name, "w")) for shift, name in [(10**19, "far-run.json"), (0, "near-run.json")]]'
ergolab run far-run.json --out far-run-report.json
ergolab run near-run.json --out near-run-report.json
python -c 'import json; far, near = (json.load(open(f)) for f in ("far-run-report.json", "near-run-report.json")); assert far["normality"] == near["normality"] and 0 < far["normality"]["direct_fraction"] < 1 and far["experiment"]["trial_totals"] == near["experiment"]["trial_totals"], (far["normality"], near["normality"])'
python -c 'import json; json.dump({"levels": [{"energy": e, "degeneracy": d} for e, d in [(0, 2), ("1/3", 1), ("1/2", 2), ("7/4", 1), ("-5/6", 3)]]}, open("rational.json", "w"))'
ergolab analyze rational.json --out analyze.json
python -c 'import json; json.dump({"levels": [{"energy": e, "degeneracy": d} for e, d in [(0, 2), (4, 1), (6, 2), (21, 1), (-10, 3)]]}, open("rational-x12.json", "w"))'
ergolab compute-l rational.json --dims 3,3,3 --seed 4 --out rational-l.json
ergolab compute-l rational-x12.json --dims 3,3,3 --seed 4 --out rational-x12-l.json
python -c 'import json; rat, whole = (json.load(open(f)) for f in ("rational-l.json", "rational-x12-l.json")); assert rat["cells"] == whole["cells"] and all(c["oracle"]["match"] is True for c in rat["cells"]) and rat["rescaled_to_integer"] == {"multiplier": 12} and whole["rescaled_to_integer"] is None, (rat, whole)'
python -c 'import sys, ergolab, ergolab.cli
for argv in (["analyze", "rational.json"], ["compute-l", "rational.json", "--dims", "3,3,3"], ["run", "run.json", "--trials", "2"],
             ["verify-lemmas", "--dim", "16", "--rank", "4", "--samples", "20000", "--ensemble", "100"]):
    assert "mpmath" not in sys.modules, argv
    assert ergolab.cli.main(argv + ["--out", "lazy.json"]) == 0, argv
assert "mpmath" not in sys.modules
assert ergolab.cli.main(["check-theorem", "--dim", "2^100", "--rank", "2^60", "--cells", "4", "--out", "lazy.json"]) == 0 and "mpmath" in sys.modules'
python -c 'import json, sys; bad = [f for f in sys.argv[1:] if json.dumps(json.load(open(f)), indent=2, sort_keys=True) + "\n" != open(f).read()]; assert not bad, bad' analyze.json run-report.json oracle.json rational-l.json
python -c 'import json; json.dump({"spectrum": {"levels": [{"energy": e, "degeneracy": 2} for e in range(4)]}, "dims": [4, 4], "state": {"amplitudes": [[2, 0]] + [[0, 0]] * 7}}, open("norm2-run.json", "w"))'
code=0; ergolab run norm2-run.json > norm2.out 2> norm2.err || code=$?
python -c 'import sys; err = open("norm2.err").read(); assert sys.argv[1] == "1" and err.startswith("error: ") and err.count("\n") == 1 and "norm2-run.json: state norm" in err and open("norm2.out").read() == "", (sys.argv[1], err)' "$code"
code=0; ergolab run run.json --trials 0 > trials0.out 2> trials0.err || code=$?
python -c 'import sys; err = open("trials0.err").read(); assert sys.argv[1] == "2" and "error: argument --trials: " in err and "run.json" not in err, (sys.argv[1], err)' "$code"
