"""The symmetry group's action on truth tables, as NumPy gathers of their bits.

:func:`bfmi.boolfn.canonical_form` and :func:`bfmi.boolfn.orbit` import
this module when they are called; ``bfmi._scan`` and ``bfmi.channel``,
array modules themselves, import it at the top.  ``_index_maps`` builds
the index map of every input transformation in one vectorized formula,
``_orbit_images`` gathers a table's bits through all of them at once and
adds the complements, and ``_lex_min`` picks the least image by one
byte-reversal lookup.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .boolfn import CANONICAL_MAX_N, TruthTable


def _index_maps(n: int) -> np.ndarray:
    """The index map of every input transformation, one int32 row each, perm-major.

    Row p * 2^n + neg is the map of x_j -> x_perm[j] xor neg_j, for the
    p-th ``perm`` of ``itertools.permutations(range(n))`` and the n-bit
    negation pattern ``neg`` (bit j for coordinate j, both 0-based,
    coordinate 0 = x_1).  Applying a map ``m`` to a table gives
    new_bits[i] = bits[m[i]].
    """
    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int32)  # coordinate j is bit n-1-j of an index
    coords = (np.arange(1 << n)[:, None] & weights) != 0  # [index, coordinate]
    moved = (coords[:, np.asarray(list(permutations(range(n))))] @ weights).T  # [perm, index]
    flips = ((np.arange(1 << n)[:, None] & weights[::-1]) != 0) @ weights  # [neg]
    return (moved[:, None, :] ^ flips[None, :, None]).reshape(-1, 1 << n)


def _bits(f: TruthTable) -> np.ndarray:
    """The table of ``f`` as a uint8 0/1 array, index 0 first."""
    raw = np.frombuffer(f.mask.to_bytes((f.size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=f.size, bitorder="little")


# _REVERSED_BYTE[b] is b with its 8 bits in reverse order
_REVERSED_BYTE = np.packbits(
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1), axis=1, bitorder="little"
).ravel()


def _lex_min(masks: np.ndarray) -> int:
    """The uint64 mask whose bit vector, index 0 first, is lexicographically smallest.

    Bits-lexicographic order is the numeric order of the bit-reversed
    mask.  One lookup reverses the bits of every byte; read big-endian,
    the bytes then hold each mask reversed over all 64 bits, which for
    2^n <= 64 is the reversed mask shifted by the same 64 - 2^n places.
    """
    keys = _REVERSED_BYTE[masks.astype("<u8", copy=False).view(np.uint8)].view(">u8")
    return int(masks[keys.argmin()])


def _orbit_images(f: TruthTable) -> np.ndarray:
    """The image of ``f`` under every group element as a uint64 mask, repeats kept (n <= 6).

    One gather of the bits of ``f`` through all n! * 2^n input maps at
    once, each image packed into a uint64 mask, then the complements.
    """
    if f.n > CANONICAL_MAX_N:
        raise ValueError(f"symmetry orbits support n <= {CANONICAL_MAX_N}, got n={f.n}")
    packed = np.packbits(_bits(f)[_index_maps(f.n)], axis=1, bitorder="little")
    images = packed @ (np.uint64(1) << np.arange(0, f.size, 8, dtype=np.uint64))
    return np.concatenate([images, images ^ np.uint64((1 << f.size) - 1)])
