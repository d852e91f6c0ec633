"""Session setup for every test suite of the checkout.

pyproject.toml puts src on the path of the test process itself; this puts it
at the front of PYTHONPATH too, so the interpreters a test starts (demos,
import checks, perfbench workers) import this checkout's package without an
install.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
