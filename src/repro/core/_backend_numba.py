"""Numba JIT kernels behind :class:`repro.core.backend.NumbaBackend`.

Import of :mod:`numba` is guarded: this module always imports, and
:func:`available` reports whether the kernels can actually compile.
Everything here mirrors the numpy reference arithmetic operation for
operation — uint64 wrapping multiplies for the decomposed 128-bit PCG64
math, one float multiply per ziggurat accept-path draw, a bare
multiply-add per affine validation cell.  Numba's default (non-fastmath)
codegen performs no FMA contraction or reassociation, so the float
results are bit-identical to numpy's; the backend layer's first-N
cross-check verifies that on every host before trusting the kernels.

The seed pipeline splits at the SeedSequence boundary: pool mixing
(:func:`repro.blackbox.fastrng.seedseq_state4` over the salted seeds)
stays in numpy — it is a fixed handful of uint32 array ops — and the
JIT kernel takes over for the per-draw PCG64 stepping and output
transforms, which is where the per-lane Python/numpy loop overhead
actually lives.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    import numba
except ImportError:  # pragma: no cover
    numba = None


def available() -> bool:
    """Whether the optional numba dependency imports on this host."""
    return numba is not None


#: Standard-draw kind codes shared with the JIT kernel (strings do not
#: cross the nopython boundary).
CODE_UNIFORM = 0
CODE_NORMAL = 1
CODE_EXPONENTIAL = 2

# Constants pre-split for the decomposed 128-bit arithmetic; module-level
# numpy scalars are compile-time constants to numba.
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK52 = np.uint64((1 << 52) - 1)
_PCG_MULT_HI = np.uint64(2549297995355413924)
_PCG_MULT_LO = np.uint64(4865540595714422341)
_PCG_MULT_LO_LO = np.uint64(4865540595714422341 & 0xFFFFFFFF)
_PCG_MULT_LO_HI = np.uint64(4865540595714422341 >> 32)
_INV_2_53 = 1.0 / 9007199254740992.0
_U0 = np.uint64(0)
_U1 = np.uint64(1)
_U3 = np.uint64(3)
_U8 = np.uint64(8)
_U9 = np.uint64(9)
_U11 = np.uint64(11)
_U32 = np.uint64(32)
_U58 = np.uint64(58)
_U63 = np.uint64(63)
_U64C = np.uint64(64)
_UFF = np.uint64(0xFF)


if numba is not None:  # pragma: no cover - exercised in the CI extras job

    @numba.njit(cache=True)
    def _pcg_step(s_hi, s_lo, inc_hi, inc_lo):
        """state = state * PCG_MULT + inc (mod 2**128), uint64 halves."""
        a_lo = s_lo & _MASK32
        a_hi = s_lo >> _U32
        ll = a_lo * _PCG_MULT_LO_LO
        lh = a_lo * _PCG_MULT_LO_HI
        hl = a_hi * _PCG_MULT_LO_LO
        hh = a_hi * _PCG_MULT_LO_HI
        mid = (ll >> _U32) + (lh & _MASK32) + (hl & _MASK32)
        low = (ll & _MASK32) | ((mid & _MASK32) << _U32)
        high = hh + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)
        high = high + s_lo * _PCG_MULT_HI + s_hi * _PCG_MULT_LO
        out_lo = low + inc_lo
        carry = _U1 if out_lo < low else _U0
        return high + inc_hi + carry, out_lo

    @numba.njit(cache=True)
    def _draw_block_kernel(state4, codes, wi, ki, we, ke, out, ok):
        n = state4.shape[1]
        draws = codes.shape[0]
        for lane in range(n):
            init_hi = state4[0, lane]
            init_lo = state4[1, lane]
            seq_hi = state4[2, lane]
            seq_lo = state4[3, lane]
            inc_hi = (seq_hi << _U1) | (seq_lo >> _U63)
            inc_lo = (seq_lo << _U1) | _U1
            # srandom: state = 0; step; state += initstate; step
            s_hi, s_lo = _pcg_step(_U0, _U0, inc_hi, inc_lo)
            add_lo = s_lo + init_lo
            carry = _U1 if add_lo < s_lo else _U0
            s_hi = s_hi + init_hi + carry
            s_lo = add_lo
            s_hi, s_lo = _pcg_step(s_hi, s_lo, inc_hi, inc_lo)
            lane_ok = True
            for j in range(draws):
                s_hi, s_lo = _pcg_step(s_hi, s_lo, inc_hi, inc_lo)
                rot = s_hi >> _U58
                xored = s_hi ^ s_lo
                raw = (xored >> rot) | (xored << ((_U64C - rot) & _U63))
                code = codes[j]
                if code == CODE_UNIFORM:
                    out[lane, j] = np.float64(raw >> _U11) * _INV_2_53
                elif code == CODE_NORMAL:
                    idx = np.int64(raw & _UFF)
                    rabs = (raw >> _U9) & _MASK52
                    x = np.float64(rabs) * wi[idx]
                    if (raw >> _U8) & _U1:
                        x = -x
                    out[lane, j] = x
                    if rabs >= ki[idx]:
                        lane_ok = False
                else:  # CODE_EXPONENTIAL
                    ri = raw >> _U3
                    idx = np.int64(ri & _UFF)
                    m = ri >> _U8
                    out[lane, j] = np.float64(m) * we[idx]
                    if m >= ke[idx]:
                        lane_ok = False
            ok[lane] = lane_ok

    @numba.njit(cache=True)
    def _affine_validate_kernel(sources, alpha, beta, targets, tols, valid):
        rows, entries = sources.shape
        for r in range(rows):
            a = alpha[r]
            b = beta[r]
            tol = tols[r]
            row_ok = True
            for c in range(entries):
                deviation = a * sources[r, c] + b - targets[r, c]
                if deviation < 0.0:
                    deviation = -deviation
                if not (deviation <= tol):
                    row_ok = False
                    break
            valid[r] = row_ok


def draw_block(
    seeds: np.ndarray, kinds: Tuple[str, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """JIT accept-path draws; signature of ``fastrng._vector_draw_block``."""
    from repro.blackbox import fastrng
    from repro.blackbox import ziggurat_tables as zt
    from repro.core.seeds import derive_seed_array

    codes = {
        fastrng.KIND_UNIFORM: CODE_UNIFORM,
        fastrng.KIND_NORMAL: CODE_NORMAL,
        fastrng.KIND_EXPONENTIAL: CODE_EXPONENTIAL,
    }
    code_array = np.array([codes[kind] for kind in kinds], dtype=np.int64)
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.uint64))
    state4 = fastrng.seedseq_state4(derive_seed_array(seeds))
    n = seeds.shape[0]
    out = np.empty((n, len(kinds)), dtype=np.float64)
    ok = np.empty(n, dtype=np.bool_)
    _draw_block_kernel(
        np.ascontiguousarray(state4),
        code_array,
        zt.WI_NORMAL,
        zt.KI_NORMAL,
        zt.WE_EXP,
        zt.KE_EXP,
        out,
        ok,
    )
    return out, ok


def affine_validate(
    sources: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    target: np.ndarray,
    tol,
) -> np.ndarray:
    """JIT row-wise affine validation; signature of the numpy reference.

    The kernel always reads a target row and a bound per source row; a
    shared target vector or a single bound reaches it as a zero-stride
    broadcast view, so the one-target call copies nothing extra.
    """
    sources = np.ascontiguousarray(sources, dtype=np.float64)
    valid = np.empty(len(sources), dtype=np.bool_)
    _affine_validate_kernel(
        sources,
        np.ascontiguousarray(alpha, dtype=np.float64),
        np.ascontiguousarray(beta, dtype=np.float64),
        np.broadcast_to(np.asarray(target, dtype=np.float64), sources.shape),
        np.broadcast_to(np.asarray(tol, dtype=np.float64), len(sources)),
        valid,
    )
    return valid
