"""The layer tracer's import sites exist on the package.

``perfbench/spans.py`` wraps functions at the module attributes listed in
its SPANS and COUNTS tables. A refactor that drops one of those names
would otherwise surface only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, attr in {**spans.SPANS, **spans.COUNTS}:
        owner = importlib.import_module(f"radkit.{module}" if module else "radkit")
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{owner.__name__}.{attr}")
    assert not missing, missing
