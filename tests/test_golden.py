"""Digest manifest: the SHA-256 of every seeded output that goes through no
BLAS call.

``golden.json`` maps each fixed invocation below to the SHA-256 of its
stdout.  The analyze reports read the spectrum's integer pair index
(``np.unique`` over integers) and Fractions; check-theorem reads mpmath and
plain Python.  Neither calls BLAS, so their digests should not depend on the
platform.  Outputs that draw Haar unitaries (run, compute-l, verify-lemmas)
go through QR and matrix products whose last bits depend on the BLAS
kernels, and stay out until it is settled whether they match across
machines.

A change that moves an output on purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_golden.py --write

and the diff of ``golden.json`` names exactly the outputs that moved.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from ergolab.cli import main

MANIFEST = Path(__file__).with_name("golden.json")

# Spectrum inputs, written to a file named after the key.
SPECTRA = {
    # the benchmark's analyze input: 180 000 pairs in 1 198 classes
    "equally-spaced-300": [{"energy": k, "degeneracy": 1} for k in range(300)],
    "rational-degenerate": [{"energy": e, "degeneracy": d} for e, d in
                            [(0, 2), ("1/3", 1), ("1/2", 2), ("7/4", 1), ("-5/6", 3)]],
    # rescaled by 3, the energies pass 2^62, so gaps and sums leave int64
    "past-int64": [{"energy": e, "degeneracy": d} for e, d in
                   [(0, 1), (2**62, 2), ("1/3", 1), (3 * 2**62, 1)]],
    "float-energies": [{"energy": e, "degeneracy": 1} for e in
                       [0.0, 0.3333, 0.5, -1.25, 2.0000001]],
}

# The README's check-theorem instance.
README_THEOREM = ["check-theorem", "--dim", "2^100", "--rank", "1e8", "--cells", "1e22",
                  "--epsilon", "1e20", "--delta", "1", "--delta-prime", "1",
                  "--constant", "1e6"]

# The 192-point check-theorem sweep: D = 2^k, d = 2^j for three rank shares
# per k, four sum degeneracies F and two cell counts M.
SWEEP = [["check-theorem", "--dim", f"2^{k}", "--rank", f"2^{round(k * share)}",
          "--cells", str(cells), "--sum-degeneracy", str(f)]
         for k in (20, 32, 48, 64, 80, 100, 128, 200)
         for share in (0.25, 0.5, 0.75)
         for f in (2, 3, 8, 64)
         for cells in (10, 1000)]

# Each invocation's name and its commands, whose stdout is hashed as one
# stream; "{name}" is the path of that spectrum's input file.
INVOCATIONS = {
    "analyze equally-spaced-300": [["analyze", "{equally-spaced-300}"]],
    "analyze rational-degenerate": [["analyze", "{rational-degenerate}"]],
    "analyze past-int64": [["analyze", "{past-int64}"]],
    "analyze float-energies --snap-denominator 1000": [
        ["analyze", "{float-energies}", "--snap-denominator", "1000"]],
    "check-theorem README": [README_THEOREM],
    "check-theorem sweep of 192": SWEEP,
}


def digests() -> dict[str, str]:
    """The SHA-256 of each invocation's stdout, run in this process."""
    with tempfile.TemporaryDirectory() as work:
        paths = {}
        for name, levels in SPECTRA.items():
            paths[name] = str(Path(work) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps({"levels": levels}), encoding="utf-8")
        out = {}
        for name, commands in INVOCATIONS.items():
            digest = hashlib.sha256()
            for argv in commands:
                stdout = io.StringIO()
                with redirect_stdout(stdout):
                    main([arg.format(**paths) for arg in argv])
                digest.update(stdout.getvalue().encode("utf-8"))
            out[name] = digest.hexdigest()
    return out


def test_blas_free_outputs_match_the_manifest():
    assert digests() == json.loads(MANIFEST.read_text(encoding="utf-8"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    MANIFEST.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
