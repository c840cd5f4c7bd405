"""Only check-theorem loads mpmath.

check-theorem evaluates the admissibility ordering in arbitrary precision,
and only it imports mpmath.  Importing ergolab and running analyze, run,
compute-l or verify-lemmas, whose unitary-block gate tests the
admissible-constant crossover in floats, must not pay for it.  The check
starts a fresh interpreter, since other test modules import mpmath
themselves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import ergolab

PROBE = '''\
import json, sys
import ergolab, ergolab.cli
from ergolab.cli import main

spectrum, config, out = sys.argv[1:]
loaded = {"import": "mpmath" in sys.modules}
for argv in (["analyze", spectrum], ["run", config], ["compute-l", spectrum, "--dims", "2,2"],
             ["verify-lemmas", "--dim", "16", "--rank", "4", "--samples", "20000",
              "--ensemble", "100"]):
    code = main(argv + ["--out", out])
    loaded[argv[0]] = (code, "mpmath" in sys.modules)
code = main(["check-theorem", "--dim", "2^100", "--rank", "2^60", "--cells", "4", "--out", out])
loaded["check-theorem"] = (code, "mpmath" in sys.modules)
print(json.dumps(loaded))
'''


def test_only_check_theorem_loads_mpmath(tmp_path):
    levels = {"levels": [{"energy": e, "degeneracy": 2} for e in range(2)]}
    spectrum = tmp_path / "spec.json"
    spectrum.write_text(json.dumps(levels))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"spectrum": levels, "dims": [2, 2], "trials": 3,
                                  "normality": True}))
    # the tree this suite imports, source or installed
    env = {**os.environ, "PYTHONPATH": str(Path(ergolab.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(spectrum), str(config), str(tmp_path / "out.json")],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "import": False,
        "analyze": [0, False],
        "run": [0, False],
        "compute-l": [0, False],
        "verify-lemmas": [0, False],
        "check-theorem": [0, True],
    }
