"""The functions the benchmark's traced run wraps must exist by name.

``perfbench/spans.py`` looks up every name of its ``LAYERS`` table with
``getattr`` when a traced run starts, so a rename or deletion in the
program breaks the traced benchmark.  This test catches that in the fast
suite.  It goes when spans are recorded inside the program and the
lookup table goes.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_layer_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"ergolab.{module}.{name}"
        for module, names in spans.LAYERS.values()
        for name in names
        if not callable(getattr(importlib.import_module(f"ergolab.{module}"), name, None))
    ]
    assert missing == []
