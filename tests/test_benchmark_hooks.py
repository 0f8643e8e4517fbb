"""The toolkit names the repository benchmark (``perfbench/``) hooks or
imports by name still exist.

``perfbench/worker.py`` wraps methods through ``vars(cls)[name]`` and
``perfbench/layers.py`` imports every module its layer table names, so
deleting one of those names breaks the benchmark without failing any
toolkit test.  This runs both in a fresh interpreter: ``_instrument()``
monkeypatches the toolkit's classes.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import layers
import worker
worker._instrument()
layers.import_table_modules()
"""


def test_benchmark_instrumentation_finds_every_name():
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
