"""The benchmark's modules are plain files beside ``run.py``; put that
directory on the path the way running ``run.py`` does."""

import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[1]
if str(LEDGER) not in sys.path:
    sys.path.insert(0, str(LEDGER))
