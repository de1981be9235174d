"""Mapping functions and mapping-function families (paper section 3.1).

A *mapping function* M witnesses the similarity of two stochastic functions:
``F(Pi) ∼M F(Pj)`` when M maps every fingerprint entry of one onto the other.
The paper's desiderata: easy to parameterize, validate, compute, and apply to
aggregate properties.  Linear maps ``M(x) = αx + β`` (Algorithm 2,
FindLinearMapping) satisfy all four and are the default; the family concept
is user-extensible, so identity-only (for boolean outputs), shift-only,
scale-only, and monotone (piecewise-linear) families are also provided.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fingerprint import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    Fingerprint,
    rows_anchor_columns,
    rows_first_distinct,
    rows_scale,
    values_close,
)
from repro.errors import MappingError


class Mapping(ABC):
    """A concrete mapping function from one distribution's domain to another's."""

    __slots__ = ()

    @abstractmethod
    def apply(self, value: float) -> float:
        """Map one sample value."""

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        """Map a vector of sample values (defaults to elementwise apply)."""
        return np.array([self.apply(float(v)) for v in values], dtype=float)

    @abstractmethod
    def inverse(self) -> "Mapping":
        """The inverse mapping M⁻¹ (paper section 5 uses it to recycle
        samples from a point of interest back into its basis)."""

    @property
    def is_affine(self) -> bool:
        return False


@dataclass(frozen=True, slots=True)
class AffineMapping(Mapping):
    """M(x) = alpha * x + beta."""

    alpha: float
    beta: float

    def apply(self, value: float) -> float:
        return self.alpha * value + self.beta

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        return self.alpha * np.asarray(values, dtype=float) + self.beta

    def inverse(self) -> "AffineMapping":
        if self.alpha == 0:
            raise MappingError("degenerate affine mapping has no inverse")
        return AffineMapping(1.0 / self.alpha, -self.beta / self.alpha)

    @property
    def is_affine(self) -> bool:
        return True

    @property
    def is_identity(self) -> bool:
        return self.alpha == 1.0 and self.beta == 0.0

    def compose(self, inner: "AffineMapping") -> "AffineMapping":
        """Return M(x) = self(inner(x))."""
        return AffineMapping(
            self.alpha * inner.alpha, self.alpha * inner.beta + self.beta
        )

    def __repr__(self) -> str:
        return f"AffineMapping(x -> {self.alpha:.6g}*x + {self.beta:.6g})"


IDENTITY = AffineMapping(1.0, 0.0)


@dataclass(frozen=True)
class PiecewiseLinearMapping(Mapping):
    """Monotone interpolation mapping through fingerprint point pairs.

    Supports the Sorted-SID index path where no affine map exists but a
    monotone one does.  Between knots the map interpolates linearly; outside
    the knot range it extrapolates from the boundary segment.
    """

    knots_x: Tuple[float, ...]
    knots_y: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.knots_x) != len(self.knots_y):
            raise MappingError("knot arrays must have equal length")
        if len(self.knots_x) < 2:
            raise MappingError("piecewise mapping needs at least two knots")
        if any(
            self.knots_x[i] >= self.knots_x[i + 1]
            for i in range(len(self.knots_x) - 1)
        ):
            raise MappingError("knots_x must be strictly increasing")

    def apply(self, value: float) -> float:
        xs, ys = self.knots_x, self.knots_y
        position = bisect.bisect_left(xs, value)
        if position <= 0:
            lo, hi = 0, 1
        elif position >= len(xs):
            lo, hi = len(xs) - 2, len(xs) - 1
        else:
            lo, hi = position - 1, position
        span = xs[hi] - xs[lo]
        t = (value - xs[lo]) / span
        return ys[lo] + t * (ys[hi] - ys[lo])

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized interpolation, bit-identical to :meth:`apply`.

        ``np.interp`` is deliberately not used: it clips instead of
        extrapolating and evaluates ``slope * (x - x_lo) + y_lo``, whose
        IEEE rounding differs from the scalar ``y_lo + t * (y_hi - y_lo)``
        form.  This mirrors the scalar arithmetic operation for operation
        (``searchsorted(side="left")`` is ``bisect_left``), so sample
        remapping through a monotone mapping stays bitwise unchanged.
        """
        values = np.asarray(values, dtype=float)
        xs = np.asarray(self.knots_x, dtype=float)
        ys = np.asarray(self.knots_y, dtype=float)
        position = np.searchsorted(xs, values, side="left")
        lo = np.where(
            position <= 0,
            0,
            np.where(position >= len(xs), len(xs) - 2, position - 1),
        )
        hi = lo + 1
        span = xs[hi] - xs[lo]
        t = (values - xs[lo]) / span
        return ys[lo] + t * (ys[hi] - ys[lo])

    def inverse(self) -> "PiecewiseLinearMapping":
        pairs = sorted(zip(self.knots_y, self.knots_x))
        ys = tuple(p[0] for p in pairs)
        xs = tuple(p[1] for p in pairs)
        if any(ys[i] >= ys[i + 1] for i in range(len(ys) - 1)):
            raise MappingError("mapping is not invertible (non-strict image)")
        return PiecewiseLinearMapping(ys, xs)


#: Result of :meth:`MappingFamily.find_matrix`: a per-row plausibility mask
#: plus a builder that materializes the exact mapping for one row.  The mask
#: is sound (``False`` guarantees :meth:`MappingFamily.find` returns None for
#: that row) but may over-approximate; ``build(row)`` gives the authoritative
#: answer for plausible rows and may still return ``None``.
MatrixFind = Tuple[np.ndarray, Callable[[int], Optional[Mapping]]]


class MappingFamily(ABC):
    """A searchable class of mapping functions (user-extensible).

    ``find`` returns a member mapping the *source* fingerprint onto the
    *target* fingerprint, or ``None``; per the paper the family must make
    this test cheap, and may additionally admit index support (a normal form
    and/or monotonicity, section 3.2).
    """

    #: Whether fingerprints admit a canonical form under this family, making
    #: the Normalization index applicable.
    supports_normal_form: bool = False

    #: Whether every member is monotone, making the Sorted-SID index exact.
    monotone_members: bool = True

    #: Whether :meth:`find_matrix` is a true vectorized kernel.  The
    #: columnar match engine in :class:`repro.core.basis.BasisStore` only
    #: engages for families that set this; user-defined families keep the
    #: scalar per-candidate path (the generic ``find_matrix`` below is
    #: correct but not faster than the loop it replaces).
    supports_find_matrix: bool = False

    #: Whether the family has a pair kernel — ``find_block`` and
    #: ``find_pairs``, its two fronts (see :class:`LinearMappingFamily`):
    #: it can decide a whole block's ragged (probe x candidate) pair set
    #: in one pass, which is what lets
    #: :meth:`repro.core.basis.BasisStore.block_probe` speculate.  The
    #: broadcast front screens a shared list's pair grid before fitting
    #: it; both fronts fit and validate an explicit pair list.
    #: Families without one answer block probes one probe at a time.
    supports_find_block: bool = False

    @abstractmethod
    def find(
        self,
        source: Fingerprint,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
    ) -> Optional[Mapping]:
        """Return M with M(source[k]) == target[k] for all k, else None."""

    def find_matrix(
        self,
        sources: np.ndarray,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
        keys: Optional["object"] = None,
    ) -> MatrixFind:
        """:meth:`find` against a ``(rows, m)`` stack of source fingerprints.

        The accept set and the returned mapping parameters are identical to
        calling ``find`` row by row — vectorized implementations mirror the
        scalar arithmetic operation for operation, so even the IEEE rounding
        of ``alpha``/``beta`` matches bitwise.  ``sources`` rows must already
        have the target's entry count (the columnar store guarantees this).
        ``keys``, when given, exposes precomputed per-row state (``sid_asc()``,
        ``anchors()`` — see :class:`repro.core.columnar.CandidateKeys`) so
        monotone order checks read order statistics instead of re-sorting
        and the linear fit reads its anchors instead of re-deriving them.
        """
        sources = np.asarray(sources, dtype=float)
        plausible = np.ones(len(sources), dtype=bool)

        def build(row: int) -> Optional[Mapping]:
            return self.find(
                Fingerprint(sources[row]), target, rel_tol, abs_tol
            )

        return plausible, build

    def find_arrays(
        self,
        source: np.ndarray,
        target: np.ndarray,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
    ) -> Optional[Mapping]:
        """:meth:`find` on raw value vectors — same accept set.

        The generic implementation wraps the vectors in fingerprints;
        families on hot paths (the Markov jump probe loop) override it with
        allocation-free array arithmetic.
        """
        return self.find(
            Fingerprint(source), Fingerprint(target), rel_tol, abs_tol
        )

    def name(self) -> str:
        return type(self).__name__


def affine_validate(
    sources: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    target: np.ndarray,
    tol,
) -> np.ndarray:
    """Row-wise ``|alpha * source + beta - target| <= tol`` accept mask.

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


def _rows_affine_valid(
    sources: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    target: Fingerprint,
    rel_tol: float,
    abs_tol: float,
) -> np.ndarray:
    """Row-wise :func:`_validates` for affine candidates.

    Literally ``alpha * source + beta`` per row — the same IEEE multiply
    and add :meth:`AffineMapping.apply_array` performs — against the same
    per-probe tolerance, so the accept set matches the scalar loop bitwise.

    FindMatch keeps only the first survivor and most candidates of a probe
    fail, so from three entries up the kernel first *screens* on the last
    column alone (the entry farthest from the anchors, which pass by
    construction) and runs full-width only on the rows that pass.  The
    screen is one conjunct of the full check computed by the same IEEE
    operations, so the accept set is bitwise the unscreened one.
    """
    sources = np.asarray(sources, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    target_array = target.array
    tol = max(rel_tol * max(target.scale(), 1.0), abs_tol)
    last = sources.shape[1] - 1
    if last < 2:
        return affine_validate(sources, alpha, beta, target_array, tol)
    valid = affine_validate(
        sources[:, last:], alpha, beta, target_array[last:], tol
    )
    passed = np.nonzero(valid)[0]
    if len(passed):
        valid[passed] = affine_validate(
            sources[passed], alpha[passed], beta[passed], target_array, tol
        )
    return valid


class LinearMappingFamily(MappingFamily):
    """Algorithm 2: FindLinearMapping, generalized with float tolerance.

    Anchors α and β on the first two distinct source entries, then validates
    the remaining entries.  Constant-source fingerprints are handled
    explicitly (the paper's ``θ1[1] − θ1[2]`` would divide by zero): a
    constant source maps onto a constant target by pure shift.
    """

    supports_normal_form = True
    monotone_members = True  # each member is monotone (increasing or
    # decreasing); Sorted-SID probes both orders.
    supports_find_matrix = True
    supports_find_block = True

    def find(
        self,
        source: Fingerprint,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
    ) -> Optional[AffineMapping]:
        if source.size != target.size:
            return None
        pair = source.first_distinct_pair(rel_tol)
        if pair is None:
            # Constant source: only a constant target is reachable.
            if not target.is_constant(rel_tol):
                return None
            return AffineMapping(1.0, target[0] - source[0])
        if target.is_constant(rel_tol):
            # A non-constant source reaches a constant target only through a
            # degenerate (α ≈ 0) member.  Those are excluded from the
            # family: they are not invertible (sample recycling needs M⁻¹,
            # paper section 5) and the normal-form index key is only
            # invariant under non-degenerate maps, so admitting them would
            # break the index's no-false-negative contract.
            return None
        i, j = pair
        alpha = (target[j] - target[i]) / (source[j] - source[i])
        beta = target[i] - alpha * source[i]
        candidate = AffineMapping(alpha, beta)
        if _validates(candidate, source, target, rel_tol, abs_tol):
            return candidate
        return None

    def find_matrix(
        self,
        sources: np.ndarray,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
        keys: Optional["object"] = None,
    ) -> MatrixFind:
        """Algorithm 2 across all candidate rows in one array pass."""
        sources = np.asarray(sources, dtype=float)
        rows = len(sources)
        alpha = np.ones(rows)
        beta = np.zeros(rows)
        valid = np.zeros(rows, dtype=bool)
        if rows:
            has_pair, anchors, denominators = (
                keys.anchors(rel_tol)
                if keys is not None
                else rows_anchor_columns(sources, rel_tol)
            )
            target_array = target.array
            if target.is_constant(rel_tol):
                # Constant target: only constant sources reach it (by pure
                # shift, accepted without validation — exactly `find`).
                constant = ~has_pair
                valid[constant] = True
                beta[constant] = target_array[0] - sources[constant, 0]
            elif bool(has_pair.any()):
                # With no constant basis among the candidates (the common
                # case) every row is fitted in place: a full slice makes
                # the selections below views, not fancy-index copies.
                fit = (
                    slice(None)
                    if bool(has_pair.all())
                    else np.nonzero(has_pair)[0]
                )
                fit_sources = sources[fit]
                fit_alpha = (
                    target_array[anchors[fit]] - target_array[0]
                ) / denominators[fit]
                fit_beta = target_array[0] - fit_alpha * fit_sources[:, 0]
                alpha[fit] = fit_alpha
                beta[fit] = fit_beta
                valid[fit] = _rows_affine_valid(
                    fit_sources,
                    fit_alpha,
                    fit_beta,
                    target,
                    rel_tol,
                    abs_tol,
                )

        def build(row: int) -> AffineMapping:
            return AffineMapping(float(alpha[row]), float(beta[row]))

        return valid, build

    def find_block(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        groups: Sequence[Tuple[int, np.ndarray]],
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
        anchors=None,
        state=None,
    ) -> Tuple[np.ndarray, Callable[[int], AffineMapping]]:
        """Algorithm 2 over a block's ragged (probe x candidate) pair set.

        The *broadcast* front of the pair kernel, for candidate lists
        shared by many probes (:meth:`find_pairs` is the explicit one).
        ``sources`` is a whole same-size fingerprint matrix and ``targets``
        the block's probes stacked group by group: ``groups[g] = (count,
        rows)`` pairs each of the group's ``count`` probes (the next
        ``count`` rows of ``targets``) with every candidate
        ``sources[rows]``, in that order.  ``anchors`` is the matrix's
        :func:`~repro.core.fingerprint.rows_anchor_columns` when the
        caller keeps them, optionally followed by its
        :func:`rows_ratio_columns` (the columnar store caches all five),
        and ``state`` the targets' :func:`_targets_state` when the caller
        keeps it (a block probe derives it once for all its launches).
        Returns ``(first, build)``: ``first[p]`` is the index into probe
        ``p``'s ``rows`` of its first candidate with a valid mapping (−1:
        none — FindMatch keeps only the first), and ``build(p)`` is that
        mapping.

        Each pair's verdict and mapping bits are :meth:`find`'s.  Every
        (probe x candidate) pair of a group is first put through the
        :func:`_ratio_screen` — a conservative bound, four array passes
        over the group's grid, that keeps every pair the exact screen
        could accept — and only its survivors, about one per probe, are
        fitted and validated: flattened group by group, probe by probe,
        into the explicit pair list :func:`_first_valid_pairs` decides.
        So ``array`` still examines every pair, and no verdict moves.
        """
        if anchors is None:
            anchors = rows_anchor_columns(sources, rel_tol)
        ratio, slack = anchors[3:] or rows_ratio_columns(sources, anchors)
        if state is None:
            state = _targets_state(targets, rel_tol, abs_tol)
        survivors, start = [], 0
        for count, rows in groups:
            probes = slice(start, start + count)
            keep = _ratio_screen(
                targets[probes],
                anchors[1][rows],
                ratio[rows],
                slack[rows],
                *(column[probes] for column in state),
            )
            probe, candidate = np.nonzero(keep)
            survivors.append((probe + start, candidate, rows[candidate]))
            start += count
        return _first_valid_pairs(
            sources,
            targets,
            *map(np.concatenate, zip(*survivors)),
            anchors,
            state,
        )

    def find_pairs(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        probes: np.ndarray,
        candidates: np.ndarray,
        rows: np.ndarray,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
        anchors=None,
        state=None,
    ) -> Tuple[np.ndarray, Callable[[int], AffineMapping]]:
        """:meth:`find_block` over an explicit pair list.

        The front for probes that each bring their own short candidate
        list (a selective index): pair ``k`` tests ``sources[rows[k]]``
        against ``targets[probes[k]]`` and is the probe's candidate number
        ``candidates[k]``.  Pairs ascend probe by probe, candidate by
        candidate.  ``first[p]`` is the candidate number of probe ``p``'s
        first valid pair (−1: none); the pair list is decided by
        :func:`_first_valid_pairs`, as :meth:`find_block`'s survivors are.
        ``anchors`` and ``state`` are the sources' anchor columns and the
        targets' :func:`_targets_state`, when the caller keeps them.
        """
        return _first_valid_pairs(
            sources,
            targets,
            probes,
            candidates,
            rows,
            anchors
            if anchors is not None
            else rows_anchor_columns(sources, rel_tol),
            state
            if state is not None
            else _targets_state(targets, rel_tol, abs_tol),
        )


def _targets_state(
    targets: np.ndarray, rel_tol: float, abs_tol: float, varying=None
) -> Tuple[np.ndarray, np.ndarray]:
    """What :meth:`LinearMappingFamily.find` derives from its target, row
    by row: ``(varying, tol)`` — not constant, and the validation bound.
    ``varying`` is the rows' first-distinct ``has_pair`` when the caller
    has it (their anchor columns' first)."""
    if varying is None:
        varying = rows_first_distinct(targets, rel_tol)[0]
    tol = np.maximum(rel_tol * np.maximum(rows_scale(targets), 1.0), abs_tol)
    return varying, tol


#: The ratio prefilter's rounding constants (:func:`_ratio_screen` derives
#: them): ``K`` bounds the relative rounding of the pair kernel's eight
#: operations and the prefilter's own, ``c`` the rounding of the bound.
#: Constants of that bound, not tunables.
_RATIO_ULPS = 64 * float(np.finfo(np.float64).eps)
_TOL_MARGIN = 1.001


def rows_ratio_columns(
    matrix: np.ndarray, anchors
) -> Tuple[np.ndarray, np.ndarray]:
    """The ratio prefilter's per-source state, one array pass.

    ``anchors`` are the matrix's
    :func:`~repro.core.fingerprint.rows_anchor_columns`.  Returns ``(ratio,
    slack)``: ``ratio = (s_L - s_0) / d``, where the last entry ``s_L``
    sits on the line through the source's anchors (``d`` is the anchor
    denominator), and ``slack = K * ((|s_0| + |s_a| + |s_L|) / |d| +
    |ratio|)``, its rounding allowance (:func:`_ratio_screen`).  Rows
    without an anchor pair (constant sources) carry NaN, which the screen
    always keeps.  Like the anchor columns, both depend on the row and the
    tolerance alone.
    """
    has_pair, anchor, denominator = anchors[:3]
    first, last = matrix[:, 0], matrix[:, -1]
    spread = np.where(has_pair, denominator, np.nan)
    with np.errstate(all="ignore"):
        ratio = (last - first) / spread
        bulk = np.abs(first) + np.abs(matrix[np.arange(len(matrix)), anchor])
        bulk += np.abs(last)
        slack = _RATIO_ULPS * (bulk / np.abs(spread) + np.abs(ratio))
    return ratio, slack


def _ratio_screen(targets, anchor, ratio, slack, varying, tol):
    """Which (probe x candidate) pairs the exact screen could accept.

    ``targets`` are a group's probes and ``anchor`` / ``ratio`` / ``slack``
    its candidates' columns (:func:`rows_ratio_columns`); returns the
    ``(probes, candidates)`` keep mask.  A pair is dropped only when
    ``|ratio_s - ratio_t| - W_s > W_t``, with ``ratio_t = (t_L - t_0) /
    (t_a - t_0)`` on the *source's* anchor column ``a`` and ``W_t = (c *
    tol_t + K * (|t_0| + |t_a| + |t_L|)) / |t_a - t_0| + K * |ratio_t|``.
    Written as ``~(x > y)``, so a NaN or an infinity anywhere keeps the
    pair; constant sources (NaN ``ratio_s``) and targets that do not vary
    (NaN ``ratio_t``) are always kept, for the pure-shift and degenerate
    rules to decide.

    Why nothing the kernel accepts is dropped, to first order in the unit
    roundoff ``e = eps / 2``.  With ``d = fl(s_a - s_0)`` and ``u = fl(t_a
    - t_0)`` the kernel computes ``alpha = fl(u / d)``, ``beta = fl(t_0 -
    fl(alpha s_0))`` and accepts the last column when ``|fl(fl(fl(alpha
    s_L) + beta) - t_L)| <= tol_t``.  In exact arithmetic that deviation
    is ``D = u (ratio_s - ratio_t)`` with ``ratio_s = (s_L - s_0) / d``
    and ``ratio_t = (t_L - t_0) / u``; each of the kernel's eight
    operations adds a relative ``e`` to one of its terms, so the computed
    one is ``D + E`` with ``|E| <= e (|u| |ratio_s| + 3 |alpha| (|s_0| +
    |s_L|) + 2 |t_0|)``, and ``|alpha| = |u| / |d| (1 + e)``.  Acceptance
    thus gives ``|ratio_s - ratio_t| <= tol_t (1 + e) / |u| + e |ratio_s|
    + 3 e (|s_0| + |s_L|) / |d| + 2 e |t_0| / |u|``.  Rounding the two
    ratios (two operations each) and this screen's difference and
    subtraction adds at most ``4 e (|ratio_s| + |ratio_t|)``.  ``K = 64
    eps = 128 e`` covers every coefficient (the largest is 5) with the
    rounding of ``W_s`` and ``W_t`` themselves to spare, and ``c = 1.001``
    covers ``tol_t (1 + e)``.  The terms ``K (|s_0| + |s_a|) / |d|`` and
    ``K (|t_0| + |t_a|) / |u|`` are at least about ``K``, an absolute
    floor far above any subnormal rounding of the ratios; the kernel's
    own subnormal rounding (absolute, ``2^-1074`` an operation) is
    covered by ``(c - 1) tol_t`` for any tolerance above ``1e-300``.  An
    overflow in the kernel makes its deviation infinite or NaN, which it
    rejects.
    """
    origin, end = targets[:, :1], targets[:, -1:]
    # Gathered candidates share one anchor column in the common case.
    anchored = (
        targets[:, anchor[:1]]
        if bool((anchor == anchor[:1]).all())
        else np.take(targets, anchor, axis=1)
    )
    with np.errstate(all="ignore"):
        spread = anchored - origin
        image = (end - origin) / spread
        image[~varying] = np.nan
        bulk = np.abs(origin) + np.abs(anchored)
        bulk += np.abs(end)
        bulk *= _RATIO_ULPS
        bulk += _TOL_MARGIN * tol[:, None]
        width = bulk / np.abs(spread) + _RATIO_ULPS * np.abs(image)
        gap = ratio - image
        np.abs(gap, out=gap)
        gap -= slack
        return ~(gap > width)


def _first_valid_pairs(
    sources, targets, probes, candidates, rows, anchors, state
):
    """The pair kernel's back half: first valid pair per probe.

    Pair ``k`` tests ``sources[rows[k]]`` against ``targets[probes[k]]``
    and is that probe's candidate number ``candidates[k]``; pairs ascend
    probe by probe, candidate by candidate.  ``anchors`` are the sources'
    anchor columns and ``state`` the targets' :func:`_targets_state`.
    Algorithm 2's candidate map is fitted per pair by :meth:`find_matrix`'s
    expressions: a constant source onto a constant target is accepted by
    pure shift, a non-constant source onto a varying target is validated,
    the rest cannot match.  Validation is one :func:`affine_validate` call on
    the last column — the :func:`_rows_affine_valid` screen with a target
    entry and a bound per pair — then one full-width call on the
    survivors.  Returns ``(first, build)`` as
    :meth:`LinearMappingFamily.find_block` documents them.
    """
    has_pair, anchor, denominator = anchors[:3]
    varying, tol = state
    fits, moves = has_pair[rows], varying[probes]
    origin, offset = targets[probes, 0], sources[rows, 0]
    # A constant source has no slope: it divides by one here and is kept
    # out of validation.
    alpha = targets[probes, anchor[rows]] - origin
    alpha /= np.where(fits, denominator[rows], 1.0)
    beta = origin - alpha * offset
    valid = ~moves & ~fits
    alpha[valid] = 1.0
    beta[valid] = (origin - offset)[valid]
    bound = tol[probes]
    screened = affine_validate(
        sources[rows, -1:], alpha, beta, targets[probes, -1:], bound
    )
    passed = np.nonzero(moves & fits & screened)[0]
    if len(passed):
        valid[passed] = affine_validate(
            sources[rows[passed]],
            alpha[passed],
            beta[passed],
            targets[probes[passed]],
            bound[passed],
        )
    # Valid pairs ascend probe by probe, candidate by candidate, so a
    # probe's first occurrence is the scalar loop's first match.
    hits = np.nonzero(valid)[0]
    winners, at = np.unique(probes[hits], return_index=True)
    won = hits[at]
    first = np.full(len(targets), -1)
    first[winners] = candidates[won]
    fitted = dict(
        zip(winners.tolist(), zip(alpha[won].tolist(), beta[won].tolist()))
    )

    def build(probe: int) -> AffineMapping:
        return AffineMapping(*fitted[probe])

    return first, build


class IdentityMappingFamily(MappingFamily):
    """Only the identity map: reuse requires exactly equal fingerprints.

    This is all that remains for information-destroying outputs such as the
    boolean Overload model (section 6.2) — equal fingerprints still allow
    reuse, but no remapping is possible.
    """

    supports_normal_form = False  # the normal form erases the information
    # (shift/scale) that identity matching must preserve.
    monotone_members = True
    supports_find_matrix = True

    def find(
        self,
        source: Fingerprint,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
    ) -> Optional[AffineMapping]:
        if source.size != target.size:
            return None
        if _validates(IDENTITY, source, target, rel_tol, abs_tol):
            return IDENTITY
        return None

    def find_matrix(
        self,
        sources: np.ndarray,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
        keys: Optional["object"] = None,
    ) -> MatrixFind:
        sources = np.asarray(sources, dtype=float)
        rows = len(sources)
        valid = (
            _rows_affine_valid(
                sources,
                np.ones(rows),
                np.zeros(rows),
                target,
                rel_tol,
                abs_tol,
            )
            if rows
            else np.zeros(0, dtype=bool)
        )
        return valid, lambda row: IDENTITY


class ShiftMappingFamily(MappingFamily):
    """M(x) = x + β: pure translations (uniform drift absorption)."""

    supports_normal_form = False
    monotone_members = True
    supports_find_matrix = True

    def find(
        self,
        source: Fingerprint,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
    ) -> Optional[AffineMapping]:
        if source.size != target.size:
            return None
        candidate = AffineMapping(1.0, target[0] - source[0])
        if _validates(candidate, source, target, rel_tol, abs_tol):
            return candidate
        return None

    def find_arrays(
        self,
        source: np.ndarray,
        target: np.ndarray,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
    ) -> Optional[AffineMapping]:
        if source.shape != target.shape:
            return None
        beta = float(target[0]) - float(source[0])
        tol = max(
            rel_tol * max(float(np.max(np.abs(target))) or 1.0, 1.0), abs_tol
        )
        if bool((np.abs(1.0 * source + beta - target) <= tol).all()):
            return AffineMapping(1.0, beta)
        return None

    def find_matrix(
        self,
        sources: np.ndarray,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
        keys: Optional["object"] = None,
    ) -> MatrixFind:
        sources = np.asarray(sources, dtype=float)
        rows = len(sources)
        beta = np.zeros(rows)
        valid = np.zeros(rows, dtype=bool)
        if rows:
            beta = target.array[0] - sources[:, 0]
            valid = _rows_affine_valid(
                sources,
                np.ones(rows),
                beta,
                target,
                rel_tol,
                abs_tol,
            )
        return valid, lambda row: AffineMapping(1.0, float(beta[row]))


class ScaleMappingFamily(MappingFamily):
    """M(x) = αx: pure rescalings."""

    supports_normal_form = False
    monotone_members = True
    supports_find_matrix = True

    def find(
        self,
        source: Fingerprint,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
    ) -> Optional[AffineMapping]:
        if source.size != target.size:
            return None
        anchor = None
        for k in range(source.size):
            if abs(source[k]) > abs_tol:
                anchor = k
                break
        if anchor is None:
            # Zero source maps to zero target under any α; use identity.
            if target.is_constant(rel_tol) and abs(target[0]) <= abs_tol:
                return IDENTITY
            return None
        candidate = AffineMapping(target[anchor] / source[anchor], 0.0)
        if _validates(candidate, source, target, rel_tol, abs_tol):
            return candidate
        return None

    def find_matrix(
        self,
        sources: np.ndarray,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
        keys: Optional["object"] = None,
    ) -> MatrixFind:
        sources = np.asarray(sources, dtype=float)
        rows = len(sources)
        alpha = np.ones(rows)
        zero_source = np.zeros(rows, dtype=bool)
        valid = np.zeros(rows, dtype=bool)
        if rows:
            nonzero = np.abs(sources) > abs_tol
            has_anchor = nonzero.any(axis=1)
            zero_source = ~has_anchor
            # Zero source rows map to a zero target under any α: identity.
            if target.is_constant(rel_tol) and abs(target[0]) <= abs_tol:
                valid[zero_source] = True
            if bool(has_anchor.any()):
                fit = np.nonzero(has_anchor)[0]
                anchors = nonzero[fit].argmax(axis=1)
                fit_sources = sources[fit]
                fit_alpha = (
                    target.array[anchors]
                    / fit_sources[np.arange(len(fit)), anchors]
                )
                alpha[fit] = fit_alpha
                valid[fit] = _rows_affine_valid(
                    fit_sources,
                    fit_alpha,
                    np.zeros(len(fit)),
                    target,
                    rel_tol,
                    abs_tol,
                )

        def build(row: int) -> AffineMapping:
            if zero_source[row]:
                return IDENTITY
            return AffineMapping(float(alpha[row]), 0.0)

        return valid, build


class MonotoneMappingFamily(MappingFamily):
    """Any strictly monotone map, represented piecewise-linearly.

    A monotone mapping between two fingerprints exists precisely when sorting
    both produces consistent sample-identifier orders (either equal for an
    increasing map or reversed for a decreasing one) — the invariant behind
    the Sorted-SID index.  Aggregate reuse is limited: quantiles map through
    M, but means and variances require sample remapping.
    """

    supports_normal_form = False
    monotone_members = True
    supports_find_matrix = True

    def find(
        self,
        source: Fingerprint,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
    ) -> Optional[Mapping]:
        if source.size != target.size:
            return None
        increasing = source.sid_order() == target.sid_order()
        decreasing = source.sid_order() == target.sid_order(descending=True)
        if not increasing and not decreasing:
            return None
        return _monotone_from_values(
            source.values, target.values, rel_tol, abs_tol
        )

    def find_matrix(
        self,
        sources: np.ndarray,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
        keys: Optional["object"] = None,
    ) -> MatrixFind:
        """Order-statistics screen over all rows, exact build per survivor.

        A monotone map exists only when the source's ascending SID order
        equals the target's ascending (increasing) or descending
        (decreasing) order, so one integer-matrix comparison against the
        candidates' precomputed SID-order rows prunes the stack; knot
        construction (which can still reject, e.g. equal source entries
        mapping to unequal targets) runs only for rows that pass.
        """
        sources = np.asarray(sources, dtype=float)
        rows = len(sources)
        if rows == 0:
            plausible = np.zeros(0, dtype=bool)
        else:
            source_orders = (
                keys.sid_asc()
                if keys is not None
                else np.argsort(sources, axis=1, kind="stable")
            )
            target_asc = np.asarray(target.sid_order(), dtype=np.int64)
            target_desc = np.asarray(
                target.sid_order(descending=True), dtype=np.int64
            )
            plausible = (source_orders == target_asc).all(axis=1) | (
                source_orders == target_desc
            ).all(axis=1)

        def build(row: int) -> Optional[Mapping]:
            return _monotone_from_values(
                tuple(float(v) for v in sources[row]),
                target.values,
                rel_tol,
                abs_tol,
            )

        return plausible, build


def _monotone_from_values(
    source_values: Sequence[float],
    target_values: Sequence[float],
    rel_tol: float,
    abs_tol: float,
) -> Optional[Mapping]:
    """Knot construction shared by the scalar and matrix monotone paths.

    Callers have already established order consistency; this dedups equal
    source entries, verifies they map to equal targets, checks the image's
    monotonicity, and materializes the piecewise mapping.
    """
    pairs = sorted(zip(source_values, target_values))
    xs: List[float] = []
    ys: List[float] = []
    for x, y in pairs:
        if xs and values_close(x, xs[-1], rel_tol, abs_tol):
            # Equal source entries must map to equal target entries.
            if not values_close(y, ys[-1], rel_tol, abs_tol):
                return None
            continue
        xs.append(x)
        ys.append(y)
    if len(xs) < 2:
        return AffineMapping(1.0, ys[0] - xs[0]) if xs else None
    direction = ys[-1] - ys[0]
    for a, b in zip(ys, ys[1:]):
        if direction >= 0 and b < a - abs_tol:
            return None
        if direction < 0 and b > a + abs_tol:
            return None
    if direction < 0:
        ys = [-y for y in ys]
        return _NegatedPiecewise(
            PiecewiseLinearMapping(tuple(xs), tuple(ys))
        )
    return PiecewiseLinearMapping(tuple(xs), tuple(ys))


@dataclass(frozen=True)
class _NegatedPiecewise(Mapping):
    """Decreasing monotone mapping: negation of an increasing one."""

    inner: PiecewiseLinearMapping

    def apply(self, value: float) -> float:
        return -self.inner.apply(value)

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        return -self.inner.apply_array(values)

    def inverse(self) -> Mapping:
        raise MappingError("inverse of negated piecewise mapping unsupported")


def _validates(
    mapping: Mapping,
    source: Fingerprint,
    target: Fingerprint,
    rel_tol: float,
    abs_tol: float,
) -> bool:
    """Check M(source[k]) == target[k] for every entry (Algorithm 2 loop)."""
    tol = max(rel_tol * max(target.scale(), 1.0), abs_tol)
    if isinstance(mapping, AffineMapping):
        # Hot path of every index probe: one vector expression instead of a
        # per-entry Python loop (same IEEE operations, same accept set).
        deviation = np.abs(mapping.apply_array(source.array) - target.array)
        return bool((deviation <= tol).all())
    return all(
        abs(mapping.apply(s) - t) <= tol
        for s, t in zip(source.values, target.values)
    )


def find_linear_mapping(
    source: Sequence[float],
    target: Sequence[float],
    rel_tol: float = DEFAULT_REL_TOL,
) -> Optional[AffineMapping]:
    """Convenience wrapper exposing paper Algorithm 2 on raw value vectors."""
    return LinearMappingFamily().find(
        Fingerprint(tuple(float(v) for v in source)),
        Fingerprint(tuple(float(v) for v in target)),
        rel_tol=rel_tol,
    )
