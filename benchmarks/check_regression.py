#!/usr/bin/env python
"""Run the named CI checks; see :mod:`repro.bench.checks`."""

import sys

from repro.bench.checks import main

if __name__ == "__main__":
    sys.exit(main())
