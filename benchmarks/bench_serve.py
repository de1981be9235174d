#!/usr/bin/env python
"""Serving-daemon load benchmark; see :mod:`repro.bench.serve`."""

import sys

from repro.bench.serve import main

if __name__ == "__main__":
    sys.exit(main())
