"""One benchmark child process: import ergolab, run CLI commands, report.

Usage: ``python3 perfbench/child.py PLAN.json``.  The plan names the
ergolab source directory, the commands (argument lists for
``ergolab.cli.main``), whether to trace, and where to write results.  The
monotonic clock is read right after ``import ergolab`` and ``ergolab.cli``
so the parent can time set-up from the moment it spawned this process.

Each command's stdout and stderr are captured in memory; the reports are
written to files only after every command has run, so file output is not
timed.  The reference computation (``reference.py``) is timed in this
process before, between and after the commands, to gauge the host's speed
meanwhile; the commands' wall and CPU time are also given in its units.
With tracing on, the span recorder wraps the layer functions after
set-up and its spans are written at the end.
"""

import sys
import time

# Seconds of commands between two timings of the reference computation.
REF_EVERY_S = 0.5


def main() -> int:
    import json

    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import ergolab
    import ergolab.cli

    imported = time.monotonic()
    result = {"imported": imported}
    if plan["commands"]:
        result.update(_run_commands(plan, ergolab))
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _run_commands(plan: dict, ergolab) -> dict:
    import contextlib
    import io
    import json
    import resource
    import traceback

    import mpmath
    import numpy
    import reference

    recorder = None
    if plan["trace"]:
        import spans

        recorder = spans.Recorder()
        recorder.install()

    outputs = []
    commands = []
    # The reference is timed before the first command and again whenever
    # REF_EVERY_S of commands have run since, and after the last; each
    # stretch of commands is measured in units of the two around it.
    refs = [reference.seconds()]
    stretch_wall = stretch_cpu = cpu_s = wall_rel = cpu_rel = 0.0
    for i, argv in enumerate(plan["commands"]):
        out, err = io.StringIO(), io.StringIO()
        cpu_start = _cpu_seconds(resource)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = ergolab.cli.main(argv)
            except Exception:  # a crash is one failed command, not a lost run
                traceback.print_exc()
                code = -1
        seconds = time.perf_counter() - start
        cpu = _cpu_seconds(resource) - cpu_start
        text = out.getvalue()
        outputs.append(text)
        commands.append({"code": code, "seconds": seconds, "bytes": len(text.encode()),
                         "stderr": err.getvalue()[-2000:]})
        cpu_s += cpu
        stretch_wall += seconds
        stretch_cpu += cpu
        if stretch_wall >= REF_EVERY_S or i == len(plan["commands"]) - 1:
            if i == len(plan["commands"]) - 1:
                peak_rss_mb = _peak_rss_mib()
            refs.append(reference.seconds())
            unit = (refs[-2] + refs[-1]) / 2
            wall_rel += stretch_wall / unit
            cpu_rel += stretch_cpu / unit
            stretch_wall = stretch_cpu = 0.0

    for i, text in enumerate(outputs):
        with open(f"{plan['reports']}-{i}.json", "w", encoding="utf-8") as fh:
            fh.write(text)
    out = {
        "commands": commands,
        "cpu_s": cpu_s,
        "wall_rel": wall_rel,
        "cpu_rel": cpu_rel,
        "peak_rss_mb": peak_rss_mb,
        "ref_s": sum(refs) / len(refs),
        "setup_ref_s": refs[0],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "ergolab": ergolab.__version__,
        },
    }
    if recorder is not None:
        with open(plan["spans"], "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "counts": dict(recorder.counts)}, fh)
    return out


def _cpu_seconds(resource) -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mib() -> float:
    """High-water resident set of this process image, in MiB.

    Read from /proc: on Linux ``ru_maxrss`` also counts the parent's
    resident set from before ``exec``, which would let the benchmark's own
    memory leak into the child's figure.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


if __name__ == "__main__":
    sys.exit(main())
