"""Benchmark of the ergolab command line on three named workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ensemble-resonant --seed 1 --seconds 30 --trace 0

Workloads (inputs written from ``--seed`` by ``workloads.py``):

* ``ensemble-resonant``: ``run`` on integer levels 0..63 (D = 64, 4 cells of
  rank 16, 2 Haar trials).  The deviation kernel's resonance loop takes
  nearly all the time; a faster kernel shows here.
* ``ensemble-small``: ``run`` on 4 doubly degenerate levels (D = 8, 4 cells
  of rank 2, 500 trials, normality on).  Per-trial Python overhead
  dominates; a batched one-pass engine shows here, a kernel change should not.
* ``lab-commands``: ``analyze`` on 300 levels, ``compute-l`` with the
  trajectory oracle, ``verify-lemmas`` at its defaults and ``check-theorem``
  on the README instance plus a fixed 192-point sweep.  The only workload
  with the report builders, the oracle, Haar moments and mpmath.

Every operation is a fresh child process (``child.py``) that imports
ergolab and calls ``ergolab.cli.main`` per command with stdout captured,
BLAS capped at one thread.  Operations repeat on the same inputs until
``--seconds`` have passed; timings are medians over operations.  Every
command's report is checked (``workloads.check_report``) and must be
byte-identical across the run's operations.

On a shared host the speed of the cores drifts by a quarter or more from
one minute to the next, so the child also times a fixed reference
computation (``reference.py``) before and after its commands.  The
end-to-end times ``wall_rel`` and ``cpu_rel`` are the commands' wall and
CPU time in units of that reference.  ``setup_s``, from spawning a child
until ``import ergolab`` is done, is divided by the reference timed right
after it and given in seconds at a nominal reference time of 0.1 s; the
measured seconds are printed as ``raw_setup_s``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` traced and untraced operations
alternate and it carries the per-layer metrics, from spans recorded around
each layer's public functions (``spans.py``).  Earlier lines print the
environment and every metric, including raw seconds and those defined only
on some workloads.  The process exits nonzero, printing no result, when the
ergolab sources are missing or a child process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS threads, here and in each child.  The workloads' matrices are at most
# 80 x 80, where a second thread buys a few percent of wall time for half
# again as much CPU and adds contention on shared cores.  Set before numpy
# loads, so the checks' own numpy work leaves no thread spinning either.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work" / f"run-{os.getpid()}"

CHILD_TIMEOUT_S = 150

# setup_s is in seconds on a host where one reference run takes this long,
# about its median on a 2-core x86-64 VM: set-up must be reported in
# seconds, and raw seconds drift with the host's speed.
NOMINAL_REF_S = 0.1


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONSAFEPATH", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONHASHSEED"] = "0"
    return env


class ChildFailed(RuntimeError):
    pass


def spawn(commands: list[list[str]], tag: str, trace: bool = False) -> dict:
    """Run one child on ``commands``; return its result with its set-up time."""
    paths = {key: str(WORK / f"{tag}.{key}") for key in ("result", "reports", "spans", "stderr")}
    plan = {"src": str(SRC), "commands": commands, "trace": trace, **paths}
    plan_path = WORK / f"{tag}.plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    with open(paths["stderr"], "w", encoding="utf-8") as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(plan_path)],
                                cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed(f"child still running after {CHILD_TIMEOUT_S} s") from None
    if code != 0:
        raise ChildFailed(f"child exited with {code}:\n"
                          + Path(paths["stderr"]).read_text(encoding="utf-8")[-4000:])
    result = json.loads(Path(paths["result"]).read_text(encoding="utf-8"))
    result["setup_s"] = result["imported"] - start
    result["paths"] = paths
    return result


class Run:
    """One benchmark run: a workload, its inputs, and its operations."""

    def __init__(self, workload: str, seed: int):
        self.commands = workloads.build(workload, seed, WORK)
        self.reference: list[tuple[str, list[str]]] | None = None
        self.setup: list[float] = []
        self.raw_setup: list[float] = []
        self.ops: list[dict] = []
        self.versions: dict = {}

    def operation(self, trace: bool) -> dict:
        """One child running every command; checks and deletes its reports."""
        index = len(self.ops)
        res = spawn([c["argv"] for c in self.commands], f"op{index}", trace)
        # Set-up is paired with the reference the child times right after it.
        self.setup.append(res["setup_s"] / res["setup_ref_s"] * NOMINAL_REF_S)
        self.raw_setup.append(res["setup_s"])
        self.versions = res["versions"]
        verdicts, failed = [], 0
        for i, (command, outcome) in enumerate(zip(self.commands, res["commands"])):
            path = Path(f"{res['paths']['reports']}-{i}.json")
            text = path.read_text(encoding="utf-8")
            path.unlink()
            digest = hashlib.sha256(text.encode()).hexdigest()
            ref = self.reference[i] if self.reference is not None else None
            if ref is not None and outcome["code"] == 0 and digest == ref[0]:
                failures = ref[1]  # the same bytes were checked in the first operation
            else:
                failures = workloads.check_report(command, outcome["code"], text)
                if ref is not None and digest != ref[0]:
                    failures.append("report differs from the run's first operation")
            verdicts.append((digest, failures))
            if failures:
                failed += 1
                print(f"# FAILED op {index} {command['name']} {command['argv'][1:]}: "
                      + "; ".join(failures) + outcome["stderr"], file=sys.stderr)
        if self.reference is None:
            self.reference = verdicts
        op = {
            "trace": trace,
            "wall_s": sum(c["seconds"] for c in res["commands"]),
            "cpu_s": res["cpu_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "ref_s": res["ref_s"],
            "wall_rel": res["wall_rel"],
            "cpu_rel": res["cpu_rel"],
            "attempted": len(self.commands),
            "failed": failed,
            "report_bytes": sum(c["bytes"] for c in res["commands"]),
            "digests": [digest for digest, _ in verdicts],
            "per_command": {},
        }
        for command, outcome in zip(self.commands, res["commands"]):
            key = command["name"].replace("-", "_") + "_s"
            op["per_command"][key] = op["per_command"].get(key, 0.0) + outcome["seconds"]
        if trace:
            span_path = Path(res["paths"]["spans"])
            doc = json.loads(span_path.read_text(encoding="utf-8"))
            span_path.unlink()
            op["layers"] = spans.aggregate(doc["spans"], doc["counts"])
        self.ops.append(op)
        print(f"# op {index} trace={int(trace)} wall_s={op['wall_s']:.4f} cpu_s={op['cpu_s']:.4f} "
              f"ref_s={op['ref_s']:.4f} wall_rel={op['wall_rel']:.3f} setup_s={res['setup_s']:.4f} peak_rss_mb={op['peak_rss_mb']:.1f} failed={failed}")
        return op

    def measure(self, seconds: float, trace: bool) -> None:
        """Operations until ``seconds`` pass; with tracing, untraced and
        traced operations alternate and at least one of each runs.  One
        unmeasured child warms up first."""
        spawn([], "warmup")
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(self.ops) < (2 if trace else 1):
            self.operation(trace=trace and len(self.ops) % 2 == 1)

    def cells_per_op(self) -> int:
        check = self.commands[0]["check"]
        return check["trials"] * len(check["dims"]) if check["kind"] == "run" else 0

    def end_to_end(self) -> dict[str, tuple[float, str, int]]:
        """Every end-to-end metric of this workload: name -> (median, unit, samples)."""
        plain = [op for op in self.ops if not op["trace"]]
        out = {"setup_s": (statistics.median(self.setup), "s", len(self.setup)),
               "raw_setup_s": (statistics.median(self.raw_setup), "s", len(self.raw_setup))}
        for key, unit in (("wall_s", "s"), ("cpu_s", "s"), ("ref_s", "s"), ("peak_rss_mb", "MiB")):
            out[key] = (statistics.median(op[key] for op in plain), unit, len(plain))
        # Times in units of the reference computation timed around the
        # commands, which cancels the host's drift in speed.
        for key in ("wall_rel", "cpu_rel"):
            out[key] = (statistics.median(op[key] for op in plain), "ref", len(plain))
        cells = self.cells_per_op()
        if cells:
            out["cells_per_s"] = (statistics.median(cells / op["wall_s"] for op in plain),
                                  "1/s", len(plain))
        if len(plain[0]["per_command"]) > 1:
            for key in plain[0]["per_command"]:
                out[key] = (statistics.median(op["per_command"][key] for op in plain), "s",
                            len(plain))
        return out

    def per_layer(self) -> dict[str, tuple[float, str, int]]:
        """Every per-layer metric: name -> (median over traced operations, unit, samples)."""
        traced = [op for op in self.ops if op["trace"]]
        plain = [op for op in self.ops if not op["trace"]]
        out = {}
        for key in traced[0]["layers"]:
            unit = "s" if key.endswith(("_s", ".s")) else "ratio" if key.endswith("ratio") else "count"
            # median_low keeps a count a whole number that some operation produced.
            median = statistics.median if unit == "s" else statistics.median_low
            out[key] = (median(op["layers"][key] for op in traced), unit, len(traced))
        out["cli.report_bytes"] = (statistics.median_low(op["report_bytes"] for op in traced),
                                   "bytes", len(traced))
        overhead = (statistics.median(op["wall_s"] for op in traced)
                    - statistics.median(op["wall_s"] for op in plain))
        out["trace.overhead_s"] = (overhead, "s", len(traced))
        return out


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "ergolab" / "__init__.py").is_file():
        print(f"error: ergolab sources not found under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.workload, args.seed)
        run.measure(args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass  # another run is using it

    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **run.versions,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
    }
    print("# environment " + json.dumps(environment, sort_keys=True))
    measured = run.end_to_end()
    if args.trace:
        measured.update(run.per_layer())
    for name, (value, unit, samples) in measured.items():
        print(f"# {name} = {value!r} {unit} (median of {samples})")
    attempted = sum(op["attempted"] for op in run.ops)
    failed = sum(op["failed"] for op in run.ops)
    print(f"# ops = {attempted} count, ops_failed = {failed} count")
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]}
               for m in declared[section]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
