"""Import the program under test from the checkout's ``src`` tree.

The benchmark runs from the root of a source checkout; ``repro`` must come
from that checkout, never from anywhere else on the path, so a directory
without the program's sources fails instead of measuring something else.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))

import repro  # noqa: E402

if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
    raise ImportError(f"repro imported from {repro.__file__}, not from {SRC}")
