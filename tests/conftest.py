"""Put the checkout's ``src`` on PYTHONPATH, so the ``python -m dglab.cli``
subprocesses that CLI tests start import this tree without an install."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
