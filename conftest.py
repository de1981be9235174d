"""Repo-wide pytest options.

``--workers N`` caps the shard-worker counts the fault-tolerance chaos
suite (``tests/integration/test_fault_tolerance.py``) parametrizes over:
the suite runs every fault plan at workers 1, 2, and 4 by default, and CI
invokes it explicitly with ``--workers 4`` so the pooled (real fork)
paths are always exercised there.  ``--workers 1`` keeps a quick local
run in-process.

``--hypothesis-profile=ci`` selects the ``ci`` profile registered here: a
derandomized, deep run (5,000 examples a property) that CI gives the pair
prefilter's soundness oracle and ``find_block(state=...)``'s bits
(``tests/property/test_prop_pair_prefilter.py``), ``MetricSet``'s fast
builder (``tests/property/test_prop_metric_set_builder.py``), the block
plan's own tails (``tests/property/test_prop_block_tails.py``), the store
machine's plan and bulk-append rules and its running byte total
(``tests/property/test_prop_store_machine.py``) and the row-wise
estimator's bits (``tests/property/test_prop_estimator.py``); a property
that sets its own example count keeps it, derandomized.
Without the option the default profile applies.
"""

from hypothesis import settings

settings.register_profile(
    "ci", max_examples=5000, derandomize=True, deadline=None
)


def pytest_addoption(parser):
    parser.addoption(
        "--workers",
        type=int,
        default=4,
        help=(
            "maximum shard-worker count the fault-tolerance chaos suite "
            "exercises (it parametrizes workers over {1, 2, 4} up to "
            "this cap)"
        ),
    )


def pytest_collection_modifyitems(items):
    """Run the gate-check mutation suite after everything else.

    It measures all six CI checks (several whole-suite runs, fork pools,
    a daemon) — seconds of saturated CPU.  The serving-daemon and
    wall-clock-shape tests are timing-sensitive on small hosts and were
    observed to flake when they run right after it, so it goes last,
    where nothing follows it.
    """
    items.sort(key=lambda item: item.module.__name__ == "test_gate_checks")
