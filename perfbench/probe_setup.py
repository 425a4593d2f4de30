"""One set-up sample: a fresh interpreter imports rydlink.cli and loads a config.

Usage: python3 probe_setup.py SRC_DIR CONFIG START

START is the ``time.monotonic()`` reading the parent took just before it
started this interpreter. Prints the seconds elapsed since then, so the
sample includes interpreter start-up but not its teardown.
"""

import sys
import time

src, config, start = sys.argv[1], sys.argv[2], float(sys.argv[3])
sys.path.insert(0, src)

import rydlink.cli  # noqa: E402,F401
from rydlink.config import load_config  # noqa: E402

load_config(config)
print(repr(time.monotonic() - start))
