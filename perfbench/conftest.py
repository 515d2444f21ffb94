"""Put the program source and the benchmark's modules on the path for
``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for _p in (_HERE.parent / "src", _HERE):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))
