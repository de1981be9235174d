"""The library surface ``perfbench/`` reads, pinned.

The benchmark suite is frozen between ``[benchmark]`` changes, yet it
reads the library in two places that only its suite mode exercises:
``pb_common.provenance`` quotes the process's check descriptor, and
``pb_churn``'s traced round calls ``candidates_batch`` with the store's
``backend``.  Nothing else in the test suite goes there, so a library
change that broke either read would pass every other test and fail the
benchmark.
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
PERFBENCH_DIR = os.path.join(REPO_ROOT, "perfbench")
sys.path.insert(0, PERFBENCH_DIR)

import pb_common as common  # noqa: E402
from pb_churn import ChurnWorkload  # noqa: E402


def test_provenance_names_the_numpy_kernels():
    assert common.provenance(1, {}, [])["backend"] == "numpy"


def test_a_traced_churn_round_runs_clean():
    tally = common.Tally()
    workload = ChurnWorkload(7, "smoke", tally)
    workload.setup()
    try:
        workload.traced_round(0)
        workload.verify()
    finally:
        workload.teardown()
    assert tally.attempted > 0
    assert tally.failed == 0, tally.notes
