"""Counter-based pseudo-random numbers keyed on structured indices.

Generation of disordered point sets must be reproducible *per lattice site /
grid cell*, not per draw order: growing the region, re-chunking, or skipping
dead cells must never reshuffle the randomness attached to the sites that were
already there.  Stateful generators cannot give that guarantee, so every draw
here is a pure function of ``(seed, key_0, key_1, ...)``.

The mixer is the splitmix64 finalizer (Steele, Lea & Flood's constants), which
passes the usual avalanche tests and vectorizes trivially over numpy uint64
arrays.  Keys may be negative (lattice coordinates); they are reinterpreted as
two's-complement 64-bit words before mixing.
"""

from __future__ import annotations

import operator

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

__all__ = ["counter_hash", "counter_uniform", "counter_uniform_open"]


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on uint64 arrays (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _as_u64(key) -> np.ndarray:
    a = np.asarray(key)
    if a.dtype.kind == "u":
        return a.astype(np.uint64, copy=False)
    if a.dtype.kind != "i":
        raise TypeError(f"counter keys must be integers, got dtype {a.dtype}")
    return a.astype(np.int64, copy=False).view(np.uint64)


def counter_hash(seed: int, *keys) -> np.ndarray:
    """64-bit hash of (seed, keys...); keys broadcast like numpy operands.

    The seed must be an integer in [-2^63, 2^63), one int64 word; anything
    else is refused with a ``ValueError`` that names it.
    """
    try:
        word = np.int64(operator.index(seed))
    except (TypeError, OverflowError):
        raise ValueError("seed must be an integer in [-2^63, 2^63), "
                         f"got {seed!r}") from None
    with np.errstate(over="ignore"):
        h = _mix64(np.uint64(word).reshape(()) + _GOLDEN)
        for k in keys:
            h = _mix64(h ^ (_as_u64(k) + _GOLDEN))
    return h


def counter_uniform(seed: int, *keys) -> np.ndarray:
    """Uniform float64 in [0, 1) determined by (seed, keys...)."""
    h = counter_hash(seed, *keys)
    return (h >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def counter_uniform_open(seed: int, *keys) -> np.ndarray:
    """Uniform draw in (0, 1) whose mantissa's low bit is forced to 1.

    The result is an odd multiple of 2^-53, hence never a dyadic rational of
    level <= 52.  Used by samplers feeding maps that reject low-level dyadic
    inputs; the distortion against the uniform law is below 2^-52.
    """
    h = counter_hash(seed, *keys)
    return ((h >> np.uint64(11)) | np.uint64(1)).astype(np.float64) * (2.0 ** -53)
