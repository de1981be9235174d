"""Fingerprints of stochastic black-box functions (paper section 3.1).

    fingerprint({σk}, F(Pi)) = {θk = F(Pi, σk) | 0 ≤ k < m}

A fingerprint is the vector of a stochastic function's outputs under the
fixed global seed sequence.  Because the seeds are shared, two parameter
points whose output distributions are related by a mapping function produce
fingerprints related *entrywise* by that same mapping — turning a hard
distribution-matching problem into a cheap vector comparison.

Fingerprints are array-backed: construction accepts any float sequence
(including ``numpy`` sample vectors straight from the batch sampling path),
``array`` exposes the entries as a read-only ``float64`` vector for the
vectorized mapping/validation kernels, and the index keys
(:meth:`Fingerprint.normal_form`, :meth:`Fingerprint.sid_order`) are
computed once and cached — index insert and probe never recompute them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.seeds import SeedBank
from repro.errors import FingerprintError

#: Relative tolerance used when two fingerprint entries are compared; IEEE
#: arithmetic noise in exact affine relationships sits around 1e-12, so 1e-9
#: accepts true matches while rejecting genuinely different distributions.
DEFAULT_REL_TOL = 1e-9
DEFAULT_ABS_TOL = 1e-12

#: Decimal places normalized entries are rounded to when used as hash keys.
#: Normal forms are O(1) by construction, so absolute rounding is safe.
NORMAL_FORM_DECIMALS = 6

FingerprintValues = Union[Sequence[float], np.ndarray]


def values_close(
    a: float,
    b: float,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> bool:
    """Tolerant equality used throughout fingerprint validation."""
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


@dataclass(frozen=True)
class Fingerprint:
    """An immutable m-entry output vector under the global seed set."""

    values: Tuple[float, ...]
    _cache: Dict[str, object] = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(
                self,
                "values",
                tuple(np.asarray(self.values, dtype=float).tolist()),
            )
        if len(self.values) == 0:
            raise FingerprintError("a fingerprint needs at least one entry")

    @property
    def array(self) -> np.ndarray:
        """Entries as a shared read-only float64 vector (do not mutate)."""
        cached = self._cache.get("array")
        if cached is None:
            cached = np.asarray(self.values, dtype=np.float64)
            cached.setflags(write=False)
            self._cache["array"] = cached
        return cached  # type: ignore[return-value]

    @property
    def size(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> float:
        return self.values[index]

    def __iter__(self):
        return iter(self.values)

    def scale(self) -> float:
        """Characteristic magnitude used to set relative comparison scales."""
        cached = self._cache.get("scale")
        if cached is None:
            cached = float(np.max(np.abs(self.array))) or 1.0
            self._cache["scale"] = cached
        return cached  # type: ignore[return-value]

    def is_constant(self, rel_tol: float = DEFAULT_REL_TOL) -> bool:
        """True when every entry equals the first (up to tolerance)."""
        return self.first_distinct_pair(rel_tol) is None

    def first_distinct_pair(
        self, rel_tol: float = DEFAULT_REL_TOL
    ) -> Optional[Tuple[int, int]]:
        """Indices of the first two meaningfully different entries.

        Algorithm 2 anchors the candidate linear map on two distinct values;
        returns ``None`` for constant fingerprints (no such pair exists).
        """
        key = ("distinct", rel_tol)
        if key not in self._cache:
            array = self.array
            tol = rel_tol * max(self.scale(), 1.0)
            distinct = np.abs(array - array[0]) > tol
            distinct[0] = False
            position = int(np.argmax(distinct))
            self._cache[key] = (0, position) if distinct[position] else None
        return self._cache[key]  # type: ignore[return-value]

    def normal_form(
        self, rel_tol: float = DEFAULT_REL_TOL
    ) -> Tuple[float, ...]:
        """Canonical affine-invariant form (paper section 3.2, Normalization).

        The paper suggests mapping "the first two distinct sample values" to
        two constants; anchoring on the *minimum and maximum* instead keeps
        every normalized entry inside [0, 1], so the fixed-precision
        rounding that makes the tuple a hash key is uniformly conditioned
        (first-two anchoring can scale entries arbitrarily and destabilize
        the key).  A negative-α image reflects the form (x -> 1 - x), so the
        lexicographically smaller of the form and its reflection is chosen,
        making the key invariant under *any* non-degenerate affine map.
        Constant fingerprints normalize to all zeros.  The result is cached:
        index insert and probe reuse one computation.
        """
        key = ("normal_form", rel_tol)
        if key not in self._cache:
            self._cache[key] = self._compute_normal_form(rel_tol)
        return self._cache[key]  # type: ignore[return-value]

    def _compute_normal_form(self, rel_tol: float) -> Tuple[float, ...]:
        if self.first_distinct_pair(rel_tol) is None:
            return tuple(0.0 for _ in self.values)
        array = self.array
        lowest = float(array.min())
        highest = float(array.max())
        span = highest - lowest
        normalized = (array - lowest) / span
        forward = np.round(normalized, NORMAL_FORM_DECIMALS)
        forward[forward == 0] = 0.0  # collapse -0.0 and 0.0 keys
        reflected = np.round(1.0 - forward, NORMAL_FORM_DECIMALS)
        reflected[reflected == 0] = 0.0
        return min(tuple(forward.tolist()), tuple(reflected.tolist()))

    def sid_order(self, descending: bool = False) -> Tuple[int, ...]:
        """Sample-identifier order (paper section 3.2, Sorted SID).

        The sequence of entry indices after sorting entries by value (ties
        broken by ascending index, making the key deterministic).
        Monotonically increasing mappings preserve this order exactly; a
        decreasing mapping turns a source's ascending order into its image's
        ``descending`` order.  Ties must break by ascending index in *both*
        orders — a mapping sends equal entries to equal entries, so the tie
        order is never reversed (plain list reversal would get this wrong).
        Both orders are cached after first computation.
        """
        key = ("sid_desc" if descending else "sid_asc")
        if key not in self._cache:
            array = -self.array if descending else self.array
            order = np.argsort(array, kind="stable")
            self._cache[key] = tuple(order.tolist())
        return self._cache[key]  # type: ignore[return-value]

    def __repr__(self) -> str:
        preview = ", ".join(f"{v:.4g}" for v in self.values[:4])
        suffix = ", ..." if len(self.values) > 4 else ""
        return f"Fingerprint([{preview}{suffix}], m={len(self.values)})"


def rows_scale(matrix: np.ndarray) -> np.ndarray:
    """Row-wise :meth:`Fingerprint.scale` (``max(|entries|)``, zero -> 1.0)."""
    scales = np.abs(matrix).max(axis=1)
    scales[scales == 0.0] = 1.0  # Fingerprint.scale's `or 1.0`
    return scales


def rows_first_distinct(
    matrix: np.ndarray, rel_tol: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise :meth:`Fingerprint.first_distinct_pair`, one array pass.

    Returns ``(has_pair, position)`` — ``position[r]`` is the second anchor
    index for row ``r`` (the first anchor is always entry 0), meaningful
    where ``has_pair[r]``.  Mirrors the scalar arithmetic exactly: the same
    per-row scale (``max(|entries|)`` with zero collapsing to 1.0), the same
    tolerance, the same ``argmax`` tie behavior.
    """
    tolerances = rel_tol * np.maximum(rows_scale(matrix), 1.0)
    distinct = np.abs(matrix - matrix[:, :1]) > tolerances[:, None]
    distinct[:, 0] = False
    position = distinct.argmax(axis=1)
    has_pair = distinct[np.arange(len(matrix)), position]
    return has_pair, position


def rows_anchor_columns(
    matrix: np.ndarray, rel_tol: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 2's per-source anchor state, one array pass.

    Returns ``(has_pair, anchor, denominator)``: :func:`rows_first_distinct`
    plus ``denominator[r] = matrix[r, anchor[r]] - matrix[r, 0]``, the
    divisor of the candidate slope.  All three depend on the source row
    and the tolerance only — never on the probe — which is what lets the
    columnar store compute them once per stored basis
    (:meth:`repro.core.columnar.CandidateKeys.anchors`) instead of once per
    candidate per probe.  Rows without a pair carry ``anchor == 0`` and a
    zero denominator that nothing reads.
    """
    has_pair, anchor = rows_first_distinct(matrix, rel_tol)
    denominator = matrix[np.arange(len(matrix)), anchor] - matrix[:, 0]
    return has_pair, anchor, denominator


#: ``{size: (indices, matrix)}`` — see :func:`stack_by_size`.
SizeStacks = Dict[int, Tuple[List[int], np.ndarray]]


def stack_by_size(
    fingerprints: Sequence[Fingerprint], missing: object = None
) -> SizeStacks:
    """Same-size fingerprints stacked into one float64 matrix per size.

    Returns ``{size: (indices, matrix)}``: ``matrix[row]`` holds the entries
    of ``fingerprints[indices[row]]``, ``indices`` ascending.  With
    ``missing`` only the fingerprints whose cache lacks that key are
    stacked.  A block probe stacks its probes once and hands the result to
    the key pass and to validation alike.
    """
    by_size: Dict[int, List[int]] = {}
    for index, fingerprint in enumerate(fingerprints):
        if missing is None or missing not in fingerprint._cache:
            by_size.setdefault(len(fingerprint.values), []).append(index)
    return {
        size: (
            indices,
            np.array(
                [fingerprints[i].values for i in indices], dtype=np.float64
            ),
        )
        for size, indices in by_size.items()
    }


def _pending_stacks(
    fingerprints: Sequence[Fingerprint],
    cache_key: object,
    stacks: Optional[SizeStacks],
) -> Iterator[Tuple[List[int], np.ndarray]]:
    """``(indices, matrix)`` per size over the fingerprints whose cache
    lacks ``cache_key``, cut from the caller's ``stacks`` when given."""
    if stacks is None:
        yield from stack_by_size(fingerprints, missing=cache_key).values()
        return
    for indices, matrix in stacks.values():
        pending = [
            row
            for row, i in enumerate(indices)
            if cache_key not in fingerprints[i]._cache
        ]
        if len(pending) == len(indices):
            yield indices, matrix
        elif pending:
            yield [indices[row] for row in pending], matrix[pending]


def _normal_forms_matrix(
    matrix: np.ndarray, rel_tol: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Normal-form components for a stack of same-size fingerprints.

    Returns ``(has_pair, position, forward, reflected)`` with matrix
    arithmetic elementwise identical to the scalar computation.  This is
    the ``normal_forms`` compute-backend kernel's numpy reference.
    """
    has_pair, position = rows_first_distinct(matrix, rel_tol)
    lows = matrix.min(axis=1)
    spans = matrix.max(axis=1) - lows
    # Constant rows never read their (possibly zero) span.
    safe_spans = np.where(has_pair, spans, 1.0)
    normalized = (matrix - lows[:, None]) / safe_spans[:, None]
    forward = np.round(normalized, NORMAL_FORM_DECIMALS)
    forward[forward == 0] = 0.0  # collapse -0.0 and 0.0 keys
    reflected = np.round(1.0 - forward, NORMAL_FORM_DECIMALS)
    reflected[reflected == 0] = 0.0
    return has_pair, position, forward, reflected


def _rows_lexicographic_min(
    forward: np.ndarray, reflected: np.ndarray
) -> np.ndarray:
    """Row-wise ``min(tuple(forward[r]), tuple(reflected[r]))``.

    Tuple comparison is decided by the first entry at which the two rows
    differ, and ``min`` keeps its first argument unless the second is
    strictly smaller there — so rows that never differ, and rows that
    first differ at a NaN, keep ``forward``.
    """
    rows = np.arange(len(forward))
    at = (forward != reflected).argmax(axis=1)
    flip = reflected[rows, at] < forward[rows, at]
    return np.where(flip[:, None], reflected, forward)


def batch_normal_forms(
    fingerprints: Sequence[Fingerprint],
    rel_tol: float = DEFAULT_REL_TOL,
    backend=None,
    stacks: Optional[SizeStacks] = None,
) -> list:
    """:meth:`Fingerprint.normal_form` for many probes in vectorized passes.

    Uncached fingerprints are grouped by size and normalized with matrix
    arithmetic that is elementwise identical to the scalar computation, so
    the resulting hash keys are bitwise the same; each key is written back
    into its fingerprint's cache (later scalar probes reuse it for free).
    ``backend`` routes the matrix kernel through a compute backend
    (default: the process-active one) — every backend returns the same
    bits or degrades trying.  ``stacks`` is the caller's
    :func:`stack_by_size` of these very fingerprints, when it keeps one.
    """
    from repro.core.backend import resolve_backend

    cache_key = ("normal_form", rel_tol)
    distinct_key = ("distinct", rel_tol)
    backend = resolve_backend(backend)
    for indices, matrix in _pending_stacks(fingerprints, cache_key, stacks):
        has_pair, position, forward, reflected = backend.normal_forms(
            matrix, rel_tol
        )
        keys = _rows_lexicographic_min(forward, reflected)
        keys[~has_pair] = 0.0  # constant fingerprints: all zeros
        for i, key, varies, second in zip(
            indices, keys.tolist(), has_pair.tolist(), position.tolist()
        ):
            cache = fingerprints[i]._cache
            cache[cache_key] = tuple(key)
            cache.setdefault(distinct_key, (0, second) if varies else None)
    return [fp.normal_form(rel_tol) for fp in fingerprints]


def batch_sid_orders(
    fingerprints: Sequence[Fingerprint],
    descending: bool = False,
    backend=None,
    stacks: Optional[SizeStacks] = None,
) -> list:
    """:meth:`Fingerprint.sid_order` for many probes in vectorized passes.

    Stable row-wise argsort over a size-grouped matrix equals the scalar
    per-fingerprint argsort entry for entry; results land in each
    fingerprint's cache, exactly as a scalar probe would have left them.
    ``backend`` routes the argsort kernel through a compute backend
    (default: the process-active one); ``stacks`` as in
    :func:`batch_normal_forms`.
    """
    from repro.core.backend import resolve_backend

    cache_key = "sid_desc" if descending else "sid_asc"
    backend = resolve_backend(backend)
    for indices, matrix in _pending_stacks(fingerprints, cache_key, stacks):
        orders = backend.sid_orders(-matrix if descending else matrix)
        for i, order in zip(indices, orders.tolist()):
            fingerprints[i]._cache[cache_key] = tuple(order)
    return [fp.sid_order(descending=descending) for fp in fingerprints]


def compute_fingerprint(
    sample: Callable[[int], float],
    seed_bank: SeedBank,
    size: int,
) -> Fingerprint:
    """Evaluate ``sample(σk)`` for the first ``size`` seeds of the bank."""
    if size < 1:
        raise FingerprintError("fingerprint size must be at least 1")
    return Fingerprint(
        tuple(float(sample(seed)) for seed in seed_bank.seeds(size))
    )


def fingerprint_from_values(values: FingerprintValues) -> Fingerprint:
    """Build a fingerprint from precomputed output values."""
    return Fingerprint(tuple(float(v) for v in values))
