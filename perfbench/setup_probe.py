"""Set-up probe: a fresh interpreter imports spdc1d and loads one config.

Usage: python3 perfbench/setup_probe.py CONFIG.json
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spdc1d.cli  # noqa: E402  (the import every command line run pays)

spdc1d.config.load_config(sys.argv[1])
