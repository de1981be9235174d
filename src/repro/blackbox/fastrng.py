"""Vectorized replication of the per-seed pseudorandom streams.

The scalar sampling path builds one ``numpy.random.Generator`` per
``(seed)`` — ~10µs of construction to draw one or two variates.  This
module replays the *same* stream with array arithmetic so a whole seed bank
is seeded and drawn in a handful of numpy operations:

* :func:`seedseq_state4` — ``numpy.random.SeedSequence(seed)`` pool mixing
  and state generation, vectorized over seeds;
* :func:`pcg64_init` / :func:`pcg64_next64` — the PCG64 (setseq-128,
  XSL-RR output) state initialization and 64-bit output step, with the
  128-bit arithmetic decomposed into uint64 halves;
* :func:`draw_matrix` — the first ``len(kinds)`` standard draws
  (uniform / normal / exponential) of every seed's stream, using the
  ziggurat acceptance fast path (tables in
  :mod:`repro.blackbox.ziggurat_tables`) and falling back to a real
  per-seed ``Generator`` for the rare rejection lanes.

Bit-exactness contract: every value produced here is verified to equal the
scalar :class:`repro.blackbox.rng.DeterministicRng` output.  A self-test
(:func:`fast_path_available`) runs once per *backend instance* — the block
fill itself routes through the pluggable compute seam, and the self-test
is one :class:`repro.core.backend.VerifyThenDegrade` check held by the
backend instance, so one surprising host (or one lying accelerated
kernel) degrades that instance to the per-seed ``Generator`` path without
leaking the degrade across unrelated stores, tests, or backends.
:func:`fast_path_status` exposes the state; :func:`reset_fast_path`
re-arms it (test-only).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.blackbox import ziggurat_tables as _zt
from repro.core.backend import BackendArg, resolve_backend
from repro.core.seeds import derive_seed_array

# Standard-draw kind names used throughout the batch sampling paths.
KIND_UNIFORM = "uniform"
KIND_NORMAL = "normal"
KIND_EXPONENTIAL = "exponential"

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_MASK52 = _U64((1 << 52) - 1)

# --- SeedSequence constants (numpy.random.bit_generator) -------------------
_INIT_A = np.uint32(0x43B0D7E5)
_MULT_A = np.uint32(0x931E8875)
_INIT_B = np.uint32(0x8B51F9DD)
_MULT_B = np.uint32(0x58F38DED)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4

# --- PCG64 constants --------------------------------------------------------
_PCG_MULT_HI = _U64(2549297995355413924)
_PCG_MULT_LO = _U64(4865540595714422341)

_INV_2_53 = 1.0 / 9007199254740992.0


def _hashmix(value: np.ndarray, hash_const: int) -> Tuple[np.ndarray, int]:
    """SeedSequence ``hashmix``: scramble ``value``, evolve the constant."""
    value = value ^ np.uint32(hash_const)
    hash_const = (hash_const * int(_MULT_A)) & 0xFFFFFFFF
    value = (value * np.uint32(hash_const)).astype(np.uint32)
    value ^= value >> _XSHIFT
    return value, hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence ``mix``: subtractive combine (matches numpy exactly)."""
    result = (x * _MIX_MULT_L).astype(np.uint32)
    result = (result - (y * _MIX_MULT_R).astype(np.uint32)).astype(np.uint32)
    result ^= result >> _XSHIFT
    return result


def seedseq_state4(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, uint64)`` for an array of seeds.

    Supports plain integer entropy (0 <= seed < 2**64, no spawn key), which
    is the only form the repository uses.
    """
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.uint64))
    n = seeds.shape[0]
    lo = (seeds & _MASK32).astype(np.uint32)
    hi = (seeds >> _U64(32)).astype(np.uint32)

    pool = np.empty((_POOL_SIZE, n), dtype=np.uint32)
    hash_const = int(_INIT_A)
    # A 1-word seed hashes 0 where a 2-word seed hashes its high word; the
    # high word of a 1-word seed *is* 0, so one lane formula covers both.
    pool[0], hash_const = _hashmix(lo, hash_const)
    pool[1], hash_const = _hashmix(hi, hash_const)
    zeros = np.zeros(n, dtype=np.uint32)
    pool[2], hash_const = _hashmix(zeros, hash_const)
    pool[3], hash_const = _hashmix(zeros.copy(), hash_const)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                hashed, hash_const = _hashmix(pool[i_src].copy(), hash_const)
                pool[i_dst] = _mix(pool[i_dst], hashed)

    words = np.empty((8, n), dtype=np.uint64)
    hash_const = int(_INIT_B)
    for out_idx in range(8):
        data = pool[out_idx % _POOL_SIZE].copy()
        data ^= np.uint32(hash_const)
        hash_const = (hash_const * int(_MULT_B)) & 0xFFFFFFFF
        data = (data * np.uint32(hash_const)).astype(np.uint32)
        data ^= data >> _XSHIFT
        words[out_idx] = data
    state = np.empty((4, n), dtype=np.uint64)
    for k in range(4):
        state[k] = words[2 * k] | (words[2 * k + 1] << _U64(32))
    return state


def _mul64(a: np.ndarray, b_hi: int, b_lo: int) -> Tuple[np.ndarray, np.ndarray]:
    """Full 128-bit product of a uint64 array with a uint64 constant.

    Returns (high, low) halves; the constant is passed pre-split into
    32-bit limbs via ``b_hi``/``b_lo`` callers compute once.
    """
    a_lo = a & _MASK32
    a_hi = a >> _U64(32)
    b_lo_u = _U64(b_lo)
    b_hi_u = _U64(b_hi)
    ll = a_lo * b_lo_u
    lh = a_lo * b_hi_u
    hl = a_hi * b_lo_u
    hh = a_hi * b_hi_u
    mid = (ll >> _U64(32)) + (lh & _MASK32) + (hl & _MASK32)
    low = (ll & _MASK32) | ((mid & _MASK32) << _U64(32))
    high = hh + (lh >> _U64(32)) + (hl >> _U64(32)) + (mid >> _U64(32))
    return high, low


def _mul128(
    x_hi: np.ndarray, x_lo: np.ndarray, m_hi: _U64, m_lo: _U64
) -> Tuple[np.ndarray, np.ndarray]:
    """(x_hi:x_lo) * (m_hi:m_lo) mod 2**128 as uint64 half arrays."""
    m_lo_lo = int(m_lo) & 0xFFFFFFFF
    m_lo_hi = int(m_lo) >> 32
    prod_hi, prod_lo = _mul64(x_lo, m_lo_hi, m_lo_lo)
    # Cross terms only contribute to the high half mod 2**128.
    prod_hi = prod_hi + x_lo * m_hi + x_hi * m_lo
    return prod_hi, prod_lo


def _add128(
    x_hi: np.ndarray, x_lo: np.ndarray, y_hi: np.ndarray, y_lo: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    low = x_lo + y_lo
    carry = (low < x_lo).astype(np.uint64)
    return x_hi + y_hi + carry, low


def pcg64_init(
    state4: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """PCG64 ``srandom`` seeding from 4 SeedSequence words per lane.

    Returns (state_hi, state_lo, inc_hi, inc_lo).
    """
    init_hi, init_lo = state4[0], state4[1]
    seq_hi, seq_lo = state4[2], state4[3]
    inc_hi = (seq_hi << _U64(1)) | (seq_lo >> _U64(63))
    inc_lo = (seq_lo << _U64(1)) | _U64(1)
    # state = 0; step; state += initstate; step
    state_hi, state_lo = _step128(
        np.zeros_like(init_hi), np.zeros_like(init_lo), inc_hi, inc_lo
    )
    state_hi, state_lo = _add128(state_hi, state_lo, init_hi, init_lo)
    state_hi, state_lo = _step128(state_hi, state_lo, inc_hi, inc_lo)
    return state_hi, state_lo, inc_hi, inc_lo


def _step128(
    state_hi: np.ndarray,
    state_lo: np.ndarray,
    inc_hi: np.ndarray,
    inc_lo: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """One LCG step: state = state * PCG_MULT + inc (mod 2**128)."""
    hi, lo = _mul128(state_hi, state_lo, _PCG_MULT_HI, _PCG_MULT_LO)
    return _add128(hi, lo, inc_hi, inc_lo)


def pcg64_next64(
    state_hi: np.ndarray,
    state_lo: np.ndarray,
    inc_hi: np.ndarray,
    inc_lo: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance every lane one step; return (state_hi, state_lo, output)."""
    state_hi, state_lo = _step128(state_hi, state_lo, inc_hi, inc_lo)
    rot = state_hi >> _U64(58)
    xored = state_hi ^ state_lo
    out = (xored >> rot) | (xored << ((_U64(64) - rot) & _U64(63)))
    return state_hi, state_lo, out


def raw_block(rng_seeds: np.ndarray, count: int) -> np.ndarray:
    """First ``count`` raw 64-bit outputs of every seed's generator.

    ``rng_seeds`` are :class:`DeterministicRng`-level seeds; the internal
    ``derive_seed`` salting is applied here, exactly as the scalar path does.
    """
    rng_seeds = np.atleast_1d(np.asarray(rng_seeds, dtype=np.uint64))
    state4 = seedseq_state4(derive_seed_array(rng_seeds))
    s_hi, s_lo, i_hi, i_lo = pcg64_init(state4)
    out = np.empty((count, rng_seeds.shape[0]), dtype=np.uint64)
    for j in range(count):
        s_hi, s_lo, out[j] = pcg64_next64(s_hi, s_lo, i_hi, i_lo)
    return out


def _uniform_from_raw(raw: np.ndarray) -> np.ndarray:
    return (raw >> _U64(11)).astype(np.float64) * _INV_2_53


def _normal_from_raw(raw: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Ziggurat accept-path standard normal; returns (values, accepted)."""
    idx = (raw & _U64(0xFF)).astype(np.intp)
    sign = (raw >> _U64(8)) & _U64(1)
    rabs = (raw >> _U64(9)) & _MASK52
    x = rabs.astype(np.float64) * _zt.WI_NORMAL[idx]
    x = np.where(sign.astype(bool), -x, x)
    accepted = rabs < _zt.KI_NORMAL[idx]
    return x, accepted


def _exponential_from_raw(raw: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Ziggurat accept-path standard exponential; returns (values, accepted)."""
    ri = raw >> _U64(3)
    idx = (ri & _U64(0xFF)).astype(np.intp)
    m = ri >> _U64(8)
    x = m.astype(np.float64) * _zt.WE_EXP[idx]
    accepted = m < _zt.KE_EXP[idx]
    return x, accepted


_KIND_RAW = {
    KIND_UNIFORM: lambda raw: (_uniform_from_raw(raw), None),
    KIND_NORMAL: _normal_from_raw,
    KIND_EXPONENTIAL: _exponential_from_raw,
}


def _scalar_standard_draw(generator: np.random.Generator, kind: str) -> float:
    if kind == KIND_UNIFORM:
        return float(generator.random())
    if kind == KIND_NORMAL:
        return float(generator.standard_normal())
    if kind == KIND_EXPONENTIAL:
        return float(generator.standard_exponential())
    raise ValueError(f"unknown standard draw kind {kind!r}")


def scalar_draw_row(rng_seed: int, kinds: Sequence[str]) -> np.ndarray:
    """One seed's standard draws via a real ``Generator`` (reference path)."""
    from repro.core.seeds import derive_seed

    generator = np.random.Generator(
        np.random.PCG64(derive_seed(int(rng_seed)))
    )
    return np.array(
        [_scalar_standard_draw(generator, kind) for kind in kinds],
        dtype=np.float64,
    )


def _draw_matrix_scalar(seeds: np.ndarray, kinds: Tuple[str, ...]) -> np.ndarray:
    return np.array(
        [scalar_draw_row(int(seed), kinds) for seed in seeds],
        dtype=np.float64,
    ).reshape(len(seeds), len(kinds))


def fast_path_available(backend: BackendArg = None) -> bool:
    """Self-test the vectorized stream against the host numpy, once per
    backend instance.

    Compares :func:`draw_matrix`'s vector path — routed through the given
    (default: process-active) compute backend — to per-seed ``Generator``
    output over a spread of seeds (including ziggurat-rejection lanes),
    under the backend's ``stream_check``
    (:class:`~repro.core.backend.VerifyThenDegrade`).  On a mismatch, or
    if the vector path raises (the warning then names the exception),
    *that backend instance* permanently falls back to the scalar path, so
    batch sampling can never silently diverge from the scalar contract;
    other instances (other stores, other tests) are untouched.
    """
    backend = resolve_backend(backend)
    check = backend.stream_check
    if check.remaining and not check.degraded:
        probe = np.array(
            [0, 1, 7, 12345, 2**31, 2**52 + 3, 2**63 + 11, 2**64 - 1]
            + list(range(100, 164)),
            dtype=np.uint64,
        )
        kinds = (KIND_NORMAL, KIND_EXPONENTIAL, KIND_UNIFORM, KIND_NORMAL)
        try:
            check.run(
                lambda: _draw_matrix_vector(probe, kinds, backend),
                lambda: _draw_matrix_scalar(probe, kinds),
            )
        except Exception as exc:
            # Whatever a vector kernel raises, the scalar reference stream
            # still answers every draw: degrade (one visible warning).
            check.degrade(f"raised {type(exc).__name__}: {exc}")
    return not check.degraded


def fast_path_status(backend: BackendArg = None) -> Dict[str, object]:
    """Introspect one backend instance's draw fast-path state.

    Returns ``{"backend": <describe()>, "fast_path": "ok" | "degraded" |
    "untested", "degraded_kernels": (...)}`` so tests and ``repro store
    info`` can tell a healthy accelerated run from a silently-degraded
    one.
    """
    backend = resolve_backend(backend)
    check = backend.stream_check
    if check.degraded:
        state = "degraded"
    else:
        state = "untested" if check.remaining else "ok"
    return {
        "backend": backend.describe(),
        "fast_path": state,
        "degraded_kernels": backend.degraded_kernels(),
    }


def reset_fast_path(backend: BackendArg = None) -> None:
    """Re-arm one backend instance's self-test and kernel verification.

    Test-only: production code never un-degrades an instance.  The next
    :func:`draw_matrix` call re-runs the self-test (and the backend
    layer's first-N kernel cross-checks) from scratch, and a repeated
    failure warns again — the warn-once latch resets with the state.
    """
    resolve_backend(backend).reset_verification()


def _vector_draw_block(
    seeds: np.ndarray, kinds: Tuple[str, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """Numpy reference block fill: accept-chain ziggurat over lockstep
    stream positions.

    Returns ``(out, ok)`` — ``ok[i]`` is False where some draw consumed
    more than one raw output (a ziggurat rejection), meaning row ``i``
    must be replayed through a real per-seed ``Generator``.  This is the
    ``draw_block`` kernel every compute backend must reproduce bitwise.
    """
    raw = raw_block(seeds, len(kinds))
    n = seeds.shape[0]
    out = np.empty((n, len(kinds)), dtype=np.float64)
    ok = np.ones(n, dtype=bool)
    for j, kind in enumerate(kinds):
        values, accepted = _KIND_RAW[kind](raw[j])
        out[:, j] = values
        if accepted is not None:
            ok &= accepted
    return out, ok


def _draw_matrix_vector(
    seeds: np.ndarray,
    kinds: Tuple[str, ...],
    backend: BackendArg = None,
) -> np.ndarray:
    """Vector path: backend block fill plus scalar rejection patch-up.

    A lane stays on the vector path while every draw so far consumed exactly
    one raw output (always true for uniforms, ~98.5% per normal/exponential
    draw); the rest replay through a real per-seed ``Generator``.
    """
    out, ok = resolve_backend(backend).draw_block(seeds, kinds)
    for i in np.nonzero(~ok)[0]:
        out[i] = scalar_draw_row(int(seeds[i]), kinds)
    return out


def draw_matrix(
    rng_seeds: np.ndarray,
    kinds: Sequence[str],
    backend: BackendArg = None,
) -> np.ndarray:
    """Standard draws ``(len(rng_seeds), len(kinds))`` of every seed's stream.

    Entry ``[i, j]`` equals the j-th standard draw a fresh
    ``DeterministicRng(rng_seeds[i])`` would produce when asked for the kind
    sequence ``kinds`` — the shared standard draws every location-scale
    variate in the system is an affine function of.  ``backend`` selects
    the compute backend for the block fill (default: the process-active
    one); every backend returns the same bits or degrades trying.
    """
    seeds = np.atleast_1d(np.asarray(rng_seeds, dtype=np.uint64))
    kinds = tuple(kinds)
    for kind in kinds:
        if kind not in _KIND_RAW:
            raise ValueError(f"unknown standard draw kind {kind!r}")
    if not kinds:
        return np.empty((seeds.shape[0], 0), dtype=np.float64)
    backend = resolve_backend(backend)
    if fast_path_available(backend):
        return _draw_matrix_vector(seeds, kinds, backend)
    return _draw_matrix_scalar(seeds, kinds)


def first_uniforms(rng_seeds: np.ndarray) -> np.ndarray:
    """First standard-uniform draw of every seed's stream."""
    return draw_matrix(rng_seeds, (KIND_UNIFORM,))[:, 0]


def first_normals(rng_seeds: np.ndarray) -> np.ndarray:
    """First standard-normal draw of every seed's stream."""
    return draw_matrix(rng_seeds, (KIND_NORMAL,))[:, 0]
