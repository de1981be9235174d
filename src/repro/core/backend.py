"""Pluggable compute backends for the sampling and matching kernels.

The reproduction has exactly two dense hot paths — the standard-draw
matrices behind batch sampling (:mod:`repro.blackbox.fastrng`) and the
per-size fingerprint matrices behind columnar FindMatch
(:mod:`repro.core.mapping` / :mod:`repro.core.fingerprint`) — and both
are the shapes JIT/GPU accelerators want.  This module is the seam that
lets an accelerated implementation slide under them without ever
touching the bitwise contract every CI gate pins:

* :class:`VerifyThenDegrade` is the one cross-check harness every fast
  path in the system runs under: the accelerated kernels here (against
  the numpy reference), the vectorized draw stream in
  :mod:`repro.blackbox.fastrng` (against per-seed ``Generator`` draws)
  and the columnar matcher in :mod:`repro.core.basis` (against the
  scalar ``find`` loop).  Its state is *instance-scoped*: one lying path
  degrades itself (with a ``RuntimeWarning``, exactly once), never the
  process, and ``describe()`` makes the degrade visible.
* :class:`ComputeBackend` names the four kernels (``draw_block``,
  ``affine_validate``, ``sid_orders``, ``normal_forms``) and runs every
  non-reference implementation under that harness.
* A tiny registry maps names to factories.  ``numpy`` is the one
  backend that ships; an accelerated one registers through
  :func:`register_backend` with an ``available`` probe for its optional
  dependency — the kernel signatures are plain arrays in, plain arrays
  out, so a device implementation only has to move data.
* Selection is explicit and typed: :func:`create_backend` refuses
  unknown or unavailable names with :class:`~repro.errors.BackendError`
  instead of silently running numpy.

Degrade semantics: a degraded path answers through its reference from
the first detected disagreement onward, so callers always get reference
bits — a fast path pays with speed, never with changed answers.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.errors import BackendError

#: Calls cross-checked against the reference before a fast path is
#: trusted outright: per (backend instance, kernel) here, per store for
#: the columnar matcher.
VERIFY_CALLS = 4

KERNELS = ("draw_block", "affine_validate", "sid_orders", "normal_forms")


# ---------------------------------------------------------------------------
# Numpy reference kernels.  These are the semantics every backend must
# reproduce bitwise; accelerated implementations are verified against
# them and degraded to them on any disagreement.


def _reference_draw_block(
    seeds: np.ndarray, kinds: Tuple[str, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """Accept-path standard draws; see ``fastrng._vector_draw_block``."""
    from repro.blackbox import fastrng

    return fastrng._vector_draw_block(seeds, kinds)


def _reference_affine_validate(
    sources: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    target: np.ndarray,
    tol,
) -> np.ndarray:
    """Row-wise affine validation; see ``mapping._rows_affine_valid``.

    ``target`` is one vector shared by every row or one row per source
    row, ``tol`` one bound or one per row (the block probe's ragged pair
    set); the single-probe call is the one-target case.
    """
    deviation = alpha[:, None] * sources
    deviation += beta[:, None]
    deviation -= target
    np.abs(deviation, out=deviation)
    if getattr(tol, "ndim", 0):
        tol = tol[:, None]
    return (deviation <= tol).all(axis=1)


def _reference_sid_orders(matrix: np.ndarray) -> np.ndarray:
    """Row-wise stable argsort (the SID-order key kernel)."""
    return np.argsort(matrix, axis=1, kind="stable")


def _reference_normal_forms(matrix: np.ndarray, rel_tol: float):
    """Normal-form key components; see ``fingerprint._normal_forms_matrix``."""
    from repro.core.fingerprint import _normal_forms_matrix

    return _normal_forms_matrix(matrix, rel_tol)


_REFERENCE = {
    "draw_block": _reference_draw_block,
    "affine_validate": _reference_affine_validate,
    "sid_orders": _reference_sid_orders,
    "normal_forms": _reference_normal_forms,
}


def _results_equal(left, right) -> bool:
    """Bitwise equality over arrays and (nested) tuples of arrays."""
    if isinstance(left, tuple) or isinstance(right, tuple):
        if not (isinstance(left, tuple) and isinstance(right, tuple)):
            return False
        if len(left) != len(right):
            return False
        return all(_results_equal(a, b) for a, b in zip(left, right))
    left = np.asarray(left)
    right = np.asarray(right)
    return left.shape == right.shape and bool(np.array_equal(left, right))


class VerifyThenDegrade:
    """Cross-check a fast path against its reference, then trust it.

    The first ``budget`` calls of :meth:`run` compute both answers and
    compare them; a disagreement emits the one degrade ``RuntimeWarning``
    and permanently routes this instance's calls through the reference.
    ``what`` and ``reference`` name the two paths in that warning, and
    ``tag`` is what a degraded check contributes to
    :meth:`ComputeBackend.describe`.
    """

    def __init__(
        self,
        what: str,
        reference: str,
        tag: str,
        budget: int,
        equal: Callable[[object, object], bool] = _results_equal,
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


class ComputeBackend:
    """Base class: kernel hooks, each under its own :class:`VerifyThenDegrade`.

    Subclasses override the ``_<kernel>`` hooks they accelerate and
    inherit the numpy reference for the rest.  Overridden kernels are
    cross-checked against the reference for their first
    :data:`VERIFY_CALLS` calls on *this instance*.  The instance also
    carries the check behind the fastrng stream-replay self-test — see
    :func:`repro.blackbox.fastrng.fast_path_available`.
    """

    name = "abstract"
    #: The reference backend never verifies against itself; its
    #: correctness story is the existing scalar cross-checks.
    is_reference = False

    def __init__(self) -> None:
        self.reset_verification()

    # -- kernel hooks (override these) --------------------------------------

    def _draw_block(self, seeds, kinds):
        return _reference_draw_block(seeds, kinds)

    def _affine_validate(self, sources, alpha, beta, target, tol):
        return _reference_affine_validate(sources, alpha, beta, target, tol)

    def _sid_orders(self, matrix):
        return _reference_sid_orders(matrix)

    def _normal_forms(self, matrix, rel_tol):
        return _reference_normal_forms(matrix, rel_tol)

    # -- verified public kernels --------------------------------------------

    def draw_block(
        self, seeds: np.ndarray, kinds: Tuple[str, ...]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Accept-path standard draws ``(out, ok)`` for a seed block.

        ``out`` is the ``(len(seeds), len(kinds))`` draw matrix under the
        single-raw-output-per-draw assumption; ``ok`` flags the lanes for
        which that assumption held (the caller patches the rest through
        the scalar generator).
        """
        return self._checked("draw_block", seeds, kinds)

    def affine_validate(
        self,
        sources: np.ndarray,
        alpha: np.ndarray,
        beta: np.ndarray,
        target: np.ndarray,
        tol,
    ) -> np.ndarray:
        """Row-wise ``|alpha*source + beta - target| <= tol`` accept mask.

        ``target`` is ``(entries,)`` or ``(rows, entries)`` and ``tol`` a
        float or ``(rows,)``: per-row targets and bounds validate a whole
        block's (probe x candidate) pairs in one launch.
        """
        return self._checked(
            "affine_validate", sources, alpha, beta, target, tol
        )

    def sid_orders(self, matrix: np.ndarray) -> np.ndarray:
        """Row-wise stable argsort (ascending SID-order keys)."""
        return self._checked("sid_orders", matrix)

    def normal_forms(self, matrix: np.ndarray, rel_tol: float):
        """Normal-form components ``(has_pair, position, forward,
        reflected)`` for a stack of same-size fingerprints."""
        return self._checked("normal_forms", matrix, rel_tol)

    # -- verification state -------------------------------------------------

    def _checked(self, kernel: str, *args):
        return self._checks[kernel].run(
            getattr(self, "_" + kernel), _REFERENCE[kernel], *args
        )

    def reset_verification(self) -> None:
        """(Re-)arm every kernel check and the fast-path self-test.

        Builds the instance's verification state; calling it again is
        test-only — production code never un-degrades a backend.
        """
        self._checks: Dict[str, VerifyThenDegrade] = {}
        for kernel in KERNELS:
            overridden = getattr(type(self), "_" + kernel) is not getattr(
                ComputeBackend, "_" + kernel
            )
            self._checks[kernel] = VerifyThenDegrade(
                f"compute backend {self.name!r} kernel {kernel!r}",
                "the numpy reference",
                tag=kernel,
                budget=VERIFY_CALLS
                if overridden and not self.is_reference
                else 0,
            )
        #: The fastrng stream-replay self-test: budget left = not yet run.
        self.stream_check = VerifyThenDegrade(
            f"vectorized standard-draw stream on backend {self.name!r}",
            "the per-seed Generator scalar draw path",
            tag="scalar-draws",
            budget=1,
        )

    def degraded_kernels(self) -> Tuple[str, ...]:
        """Kernels this instance has degraded to the reference, sorted."""
        return tuple(
            sorted(k for k, check in self._checks.items() if check.degraded)
        )

    def describe(self, *store_checks: VerifyThenDegrade) -> str:
        """Human/store-info descriptor, e.g. ``numpy[scalar-match]``.

        A clean backend is just its name; degraded kernels, a failed
        fastrng fast-path self-test and any degraded ``store_checks`` (a
        store passes its columnar check) are appended so a
        silently-degraded run is visible in ``repro store info`` and
        ``StatsResponse``.
        """
        tags = []
        kernels = self.degraded_kernels()
        if kernels:
            tags.append("degraded:" + ",".join(kernels))
        tags += [
            check.tag
            for check in (self.stream_check, *store_checks)
            if check.degraded
        ]
        if tags:
            return f"{self.name}[{';'.join(tags)}]"
        return self.name

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class NumpyBackend(ComputeBackend):
    """The always-on default: the existing vectorized numpy kernels."""

    name = "numpy"
    is_reference = True


# ---------------------------------------------------------------------------
# Registry


class _BackendSpec(NamedTuple):
    factory: Callable[[], ComputeBackend]
    available: Callable[[], bool]
    requires: str


_REGISTRY: Dict[str, _BackendSpec] = {}


def register_backend(
    name: str,
    factory: Callable[[], ComputeBackend],
    available: Optional[Callable[[], bool]] = None,
    requires: str = "",
) -> None:
    """Register a backend factory under a selection name.

    ``available`` is probed at selection time (so registration itself
    never imports an optional dependency); ``requires`` names the
    missing package for the :class:`BackendError` message.
    """
    _REGISTRY[name] = _BackendSpec(
        factory=factory,
        available=available or (lambda: True),
        requires=requires,
    )


def backend_names() -> Tuple[str, ...]:
    """Every registered backend name, registration order."""
    return tuple(_REGISTRY)


def backend_available(name: str) -> bool:
    """Whether ``name`` is registered and its dependencies import."""
    spec = _REGISTRY.get(name)
    if spec is None:
        return False
    try:
        return bool(spec.available())
    except Exception:
        # A probe imports optional native code and may fail in any way;
        # "unavailable" ends in create_backend's typed BackendError,
        # never in another backend answering.
        return False


def create_backend(name: str) -> ComputeBackend:
    """Build a fresh backend instance by name (typed refusal, never a
    silent numpy fallback)."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise BackendError(
            f"unknown compute backend {name!r}; registered backends: "
            f"{', '.join(backend_names())}"
        )
    if not backend_available(name):
        suffix = (
            f" (requires {spec.requires!r}, which is not importable)"
            if spec.requires
            else ""
        )
        raise BackendError(
            f"compute backend {name!r} is not available on this host{suffix}"
        )
    return spec.factory()


register_backend("numpy", NumpyBackend)


# ---------------------------------------------------------------------------
# Process-active backend

_ACTIVE: Optional[ComputeBackend] = None

BackendArg = Union[None, str, ComputeBackend]


def active_backend() -> ComputeBackend:
    """The process-wide default backend (numpy until selected otherwise)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = NumpyBackend()
    return _ACTIVE


def use_backend(backend: Union[str, ComputeBackend]) -> ComputeBackend:
    """Select the process-wide default backend; returns the instance.

    Forked sweep workers inherit the selection (module state survives
    fork) and :func:`repro.blackbox.draws.initialize_worker` re-selects
    it explicitly, so shards run the same backend as their parent.
    """
    global _ACTIVE
    if isinstance(backend, str):
        backend = create_backend(backend)
    elif not isinstance(backend, ComputeBackend):
        raise BackendError(
            f"expected a backend name or ComputeBackend instance, got "
            f"{type(backend).__name__}"
        )
    _ACTIVE = backend
    return backend


def resolve_backend(backend: BackendArg = None) -> ComputeBackend:
    """Coerce a backend argument to an instance.

    ``None`` resolves to the process-active backend; a name builds a
    *fresh* instance (so a store constructed with ``backend="numpy"``
    gets store-scoped verification/degrade state); an instance passes
    through.
    """
    if backend is None:
        return active_backend()
    if isinstance(backend, ComputeBackend):
        return backend
    if isinstance(backend, str):
        return create_backend(backend)
    raise BackendError(
        f"expected a backend name or ComputeBackend instance, got "
        f"{type(backend).__name__}"
    )
