"""The verify-then-degrade harness, and the process's one check record.

The sampling and matching kernels are plain numpy, called directly.  A
fast path that has a second, slower path to be checked against runs
under :class:`VerifyThenDegrade`; there are three such sites:

* the vectorized draw stream in :mod:`repro.blackbox.fastrng`, against
  per-seed ``Generator`` draws — one process-wide check, held here by
  :func:`active_backend`'s record;
* per store, the columnar matcher in :mod:`repro.core.basis`
  (``columnar_check``), against the scalar ``find`` loop;
* per store, the block probe's explicit pair pass and its own-tail
  table (``pair_checks_left``), against the same loop, degrading
  ``columnar_check`` on a disagreement.

A check's state is instance-scoped: one lying path degrades itself (with
a ``RuntimeWarning``, exactly once), and :meth:`ProcessChecks.describe`
makes the degrade visible, e.g. ``numpy[scalar-draws;scalar-match]``.

Degrade semantics: a degraded path answers through its reference from
the first detected disagreement onward, so callers always get reference
bits — a fast path pays with speed, never with changed answers.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

#: Calls cross-checked against the reference before a fast path is
#: trusted outright, per store for the columnar matcher and the pair pass.
VERIFY_CALLS = 4


class VerifyThenDegrade:
    """Cross-check a fast path against its reference, then trust it.

    The first ``budget`` calls of :meth:`run` compute both answers and
    compare them; a disagreement emits the one degrade ``RuntimeWarning``
    and permanently routes this instance's calls through the reference.
    ``what`` and ``reference`` name the two paths in that warning, and
    ``tag`` is what a degraded check contributes to
    :meth:`ProcessChecks.describe`.
    """

    def __init__(
        self,
        what: str,
        reference: str,
        tag: str,
        budget: int,
        equal: Callable[[object, object], bool] = np.array_equal,
    ) -> None:
        self.what = what
        self.reference = reference
        self.tag = tag
        self.remaining = budget
        self.equal = equal
        self.degraded = False

    def run(self, fast: Callable, reference: Callable, *args):
        """``fast(*args)``, cross-checked while budget remains."""
        if self.degraded:
            return reference(*args)
        result = fast(*args)
        if self.remaining > 0:
            self.remaining -= 1
            expected = reference(*args)
            if not self.equal(result, expected):
                self.degrade(f"disagreed with {self.reference}")
                return expected
        return result

    def degrade(self, reason: str) -> None:
        """Permanently answer through the reference, with the one
        warning (a degraded check never reaches its fast path again)."""
        self.degraded = True
        warnings.warn(
            f"{self.what} {reason}; this instance answers through "
            f"{self.reference} from now on",
            RuntimeWarning,
        )

    def exhaust(self) -> None:
        """Spend the remaining budget unchecked, so a differential test
        sees the fast path's own answers instead of a masked fallback."""
        self.remaining = 0


class ProcessChecks:
    """The process-wide check record: the draw stream's self-test.

    Forked sweep workers inherit it like any other module state.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """(Re-)arm the stream self-test (test-only: production code
        never un-degrades a check)."""
        self.stream_check = VerifyThenDegrade(
            "vectorized standard-draw stream",
            "the per-seed Generator scalar draw path",
            tag="scalar-draws",
            budget=1,
        )

    def describe(self, *store_checks: VerifyThenDegrade) -> str:
        """``numpy``, or ``numpy[...]`` with the tags of the degraded
        checks among the stream check and ``store_checks`` (a store
        passes its ``columnar_check``), so a silently-degraded run is
        visible in ``StatsResponse.backend``."""
        tags = [
            check.tag
            for check in (self.stream_check, *store_checks)
            if check.degraded
        ]
        return f"numpy[{';'.join(tags)}]" if tags else "numpy"


_PROCESS = ProcessChecks()


def active_backend() -> ProcessChecks:
    """The one process-wide check record."""
    return _PROCESS
