"""The shared standard-draw cache (the batch engine's reuse lever).

Every variate a built-in black box draws is a location-scale transform of a
*standard* draw (z for normals, e for exponentials, u for uniforms), and the
standard draws depend only on ``(seed, stream position)`` — never on the
parameter point.  Under Jigsaw's fixed global seed bank this means every
parameter point in a sweep consumes the *same* standard-draw matrix; caching
it turns per-point simulation into pure affine array arithmetic, which is
the same shared-seed property the paper's fingerprints exploit.

:class:`StandardDrawCache` memoizes ``matrix(seeds, kinds)`` — the
``(len(seeds), len(kinds))`` standard draws of the given kind sequence for
each seed — under a bounded float budget with least-recently-used eviction.
Evictions are safe: entries are recomputed (bit-identically) on demand.

Where a box pushes its draws through a transform that is *not* affine (a
quantile function, a threshold), the transform of the draws is as
parameter-invariant as the draws are, as long as it reads only model
constants.  ``derived(seeds, kinds, tag, build)`` caches it beside the
matrices — same budget, same eviction, same ``clear()`` — so that it too is
paid once per seed slice and the per-point work is affine again.  The
draws it is built from are not kept, and ``build`` sees them
:data:`DERIVED_CHUNK_SEEDS` seeds at a time, so its temporaries stay small.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from repro.blackbox import fastrng

#: Seeds per ``build`` call of a derived entry.  Measured on perfbench
#: ``sweep_simulate`` (UserSelection, 500 users x 1000 seeds; ``build``
#: holds about ten (seeds x users) temporaries): ``peak_rss_mb`` 85.1 built
#: whole, 71.5 at 256, 67.6 at 128, 66.3 at 64, 66.2 at 32 and 16 — below
#: 64 the draw itself is the high-water mark — with ``setup_s`` 0.09 at
#: every height.
DERIVED_CHUNK_SEEDS = 64


def _seed_array(rng_seeds) -> np.ndarray:
    return np.ascontiguousarray(
        np.atleast_1d(np.asarray(rng_seeds, dtype=np.uint64))
    )


class StandardDrawCache:
    """Memoized standard draws — and arrays derived from them — keyed by
    (seed bank slice, kinds[, tag]).
    """

    def __init__(self, max_floats: int = 16_000_000):
        if max_floats < 0:
            raise ValueError("max_floats must be non-negative")
        self.max_floats = max_floats
        self._entries: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._floats_cached = 0
        self._hits = 0
        self._misses = 0

    def matrix(
        self, rng_seeds: np.ndarray, kinds: Sequence[str]
    ) -> np.ndarray:
        """Standard draws for every (seed, kind position); cached.

        The returned array is shared — callers must not mutate it.
        """
        seeds = _seed_array(rng_seeds)
        kinds = tuple(kinds)
        return self._entry(
            (seeds.tobytes(), kinds),
            lambda: fastrng.draw_matrix(seeds, kinds),
        )

    def derived(
        self,
        rng_seeds: np.ndarray,
        kinds: Sequence[str],
        tag: Hashable,
        build: Callable[[np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """``build`` of the standard draws of ``(seeds, kinds)``; cached.

        ``build`` maps a ``(c, len(kinds))`` block of :meth:`matrix` rows
        to an array whose *last* axis indexes those ``c`` seeds, each
        seed's slice a function of that seed's row alone; the entry is the
        blocks joined along that axis, C-contiguous.  ``tag`` must name the
        transform and carry every constant it closes over — it is the only
        thing that tells two transforms of the same draws apart — and
        ``build`` must read nothing a parameter point can change.

        The returned array is shared — callers must not mutate it.
        """
        seeds = _seed_array(rng_seeds)
        kinds = tuple(kinds)
        return self._entry(
            (seeds.tobytes(), kinds, tag),
            lambda: self._build_in_chunks(seeds, kinds, build),
        )

    def _build_in_chunks(self, seeds, kinds, build) -> np.ndarray:
        # Drawn whole — the kernel loops over stream positions, so a row
        # chunk of it costs nearly what the whole slice does — and dropped
        # once built; only ``build``'s temporaries are chunk-sized.
        draws = fastrng.draw_matrix(seeds, kinds)
        count = seeds.shape[0]
        entry = None
        # An empty slice still takes one (empty) block: it fixes the shape.
        for start in range(0, max(count, 1), DERIVED_CHUNK_SEEDS):
            stop = start + DERIVED_CHUNK_SEEDS
            block = build(draws[start:stop])
            if entry is None:
                entry = np.empty(
                    block.shape[:-1] + (count,), dtype=block.dtype
                )
            entry[..., start:stop] = block
        return entry

    def _entry(
        self, key: tuple, compute: Callable[[], np.ndarray]
    ) -> np.ndarray:
        cached = self._entries.get(key)
        if cached is not None:
            self._hits += 1
            self._entries.move_to_end(key)
            return cached
        self._misses += 1
        array = compute()
        array.setflags(write=False)
        if array.size <= self.max_floats:
            # (Larger ones can never fit: handed back uncached.)
            self._entries[key] = array
            self._floats_cached += array.size
            while self._floats_cached > self.max_floats:
                _, evicted = self._entries.popitem(last=False)
                self._floats_cached -= evicted.size
        return array

    def clear(self) -> None:
        self._entries.clear()
        self._floats_cached = 0
        self._hits = 0
        self._misses = 0

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "floats_cached": self._floats_cached,
            "hits": self._hits,
            "misses": self._misses,
        }

    def __len__(self) -> int:
        return len(self._entries)


_DERIVED_SEED_CACHE: "OrderedDict[Tuple[bytes, int], np.ndarray]" = OrderedDict()
_DERIVED_SEED_CACHE_LIMIT = 256


def derived_seed_array_cached(rng_seeds: np.ndarray, salt: int) -> np.ndarray:
    """Memoized ``derive_seed_array(rng_seeds, salt)``.

    Composite boxes re-derive the same salted sub-streams for every
    parameter point of a sweep; like standard draws, the derivation depends
    only on (seed bank slice, salt), so one computation serves the sweep.
    """
    from repro.core.seeds import derive_seed_array

    seeds = _seed_array(rng_seeds)
    key = (seeds.tobytes(), int(salt))
    cached = _DERIVED_SEED_CACHE.get(key)
    if cached is not None:
        _DERIVED_SEED_CACHE.move_to_end(key)
        return cached
    derived = derive_seed_array(seeds, salt)
    derived.setflags(write=False)
    _DERIVED_SEED_CACHE[key] = derived
    while len(_DERIVED_SEED_CACHE) > _DERIVED_SEED_CACHE_LIMIT:
        _DERIVED_SEED_CACHE.popitem(last=False)
    return derived


DEFAULT_DRAW_CACHE = StandardDrawCache()
"""Process-wide cache shared by every built-in box's batch path.

Sharing is semantically free: entries are pure functions of
``(seed, kind sequence)``, the same invariant that makes the global seed
bank shareable across parameter points.
"""


def initialize_worker(max_floats: Optional[int] = None) -> None:
    """Reset the process-wide draw caches inside a freshly forked worker.

    Fork-based sweep workers inherit the parent's populated caches as
    copy-on-write pages; dropping the inherited entries up front (a) keeps
    per-worker memory bounded by the worker's own budget instead of
    ``workers x parent cache`` and (b) makes worker cache stats describe
    worker work.  Semantically a no-op: every entry is a pure function of
    its key and is recomputed bit-identically on demand.
    """
    if max_floats is not None:
        if max_floats < 0:
            raise ValueError("max_floats must be non-negative")
        DEFAULT_DRAW_CACHE.max_floats = max_floats
    DEFAULT_DRAW_CACHE.clear()
    _DERIVED_SEED_CACHE.clear()
