"""Only the commands that draw load numpy.random.

Importing ``numpy.random`` takes about 9 ms, a share of every command's
start-up.  ``run``, compute-l and verify-lemmas draw and load it when they
build their generators; importing ergolab and running analyze or
check-theorem must not.  The check starts a fresh interpreter, since other
test modules import numpy.random themselves.
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

spectrum, out = sys.argv[1:]
loaded = {"import": "numpy.random" in sys.modules}
code = main(["analyze", spectrum, "--out", out])
loaded["analyze"] = (code, "numpy.random" in sys.modules)
code = main(["check-theorem", "--dim", "2^100", "--rank", "2^60", "--cells", "4", "--out", out])
loaded["check-theorem"] = (code, "numpy.random" in sys.modules)
code = main(["compute-l", spectrum, "--dims", "2,2", "--out", out])
loaded["compute-l"] = (code, "numpy.random" in sys.modules)
print(json.dumps(loaded))
'''


def test_only_drawing_commands_load_numpy_random(tmp_path):
    spectrum = tmp_path / "spec.json"
    spectrum.write_text(json.dumps({"levels": [{"energy": e, "degeneracy": 2}
                                               for e in range(2)]}))
    # the tree this suite imports, source or installed
    env = {**os.environ, "PYTHONPATH": str(Path(ergolab.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(spectrum), str(tmp_path / "out.json")],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "import": False,
        "analyze": [0, False],
        "check-theorem": [0, False],
        "compute-l": [0, True],
    }
