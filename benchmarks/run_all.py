#!/usr/bin/env python
"""Regenerate the paper's figures; see :mod:`repro.bench.driver`."""

import sys

from repro.bench.driver import main

if __name__ == "__main__":
    sys.exit(main())
