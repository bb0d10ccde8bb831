"""Boolean functions in algebraic normal form over F2.

A function on K binary datasets is an XOR of AND-monomials.  Each
monomial is stored as a bitmask: bit ``k - 1`` set means dataset ``k``
is a factor (datasets are 1-based everywhere outside this module, to
match the usual W_1..W_K naming).  The empty mask is the constant-1
term.  Input assignments and flip sets use the same bitmask encoding.

All values are immutable; every operation here is a pure function.
Every JSON file is read by :func:`load_object` and written by :func:`dump_object`.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

# Masks are machine words; desk-scale tool, larger inputs are rejected.
MAX_DATASETS = 64
# Only a memory stop for dense truth tables (2^26 bytes each): numpy 2
# allows the (2,)*K view they are built on up to 64 dimensions.
MAX_TRUTH_TABLE_DATASETS = 26


class ParseError(ValueError):
    """Malformed function, placement, or scheme input."""


def load_object(text: str, kind: str, fields: Sequence[str]) -> dict[str, Any]:
    """Decode a ``kind`` file: a JSON object that holds every one of ``fields``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{kind} file must be a JSON object")
    for key in fields:
        if key not in obj:
            raise ParseError(f'{kind} file needs field "{key}"')
    return obj


def dump_object(obj: dict[str, Any]) -> str:
    """Canonical JSON text: sorted keys, no spaces, one trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def mask_from_indices(indices: Iterable[int], num_datasets: int | None = None) -> int:
    """Build a bitmask from 1-based dataset indices.

    Duplicate indices are rejected rather than collapsed so that input
    mistakes do not silently disappear.
    """
    mask = 0
    for idx in indices:
        if not isinstance(idx, int) or isinstance(idx, bool):
            raise ParseError(f"dataset index must be an integer, got {idx!r}")
        if idx < 1:
            raise ParseError(f"dataset index {idx} out of range (must be >= 1)")
        if num_datasets is not None and idx > num_datasets:
            raise ParseError(f"dataset index {idx} out of range [1, {num_datasets}]")
        if idx > MAX_DATASETS:
            raise ParseError(f"dataset index {idx} exceeds the {MAX_DATASETS}-dataset limit")
        bit = 1 << (idx - 1)
        if mask & bit:
            raise ParseError(f"duplicate dataset index {idx} in one monomial/subset")
        mask |= bit
    return mask


def indices_from_mask(mask: int) -> tuple[int, ...]:
    """1-based dataset indices of a bitmask, ascending."""
    out = []
    k = 1
    while mask:
        if mask & 1:
            out.append(k)
        mask >>= 1
        k += 1
    return tuple(out)


def monomial_sort_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Canonical monomial order: by degree, then lexicographic on indices."""
    return (mask.bit_count(), indices_from_mask(mask))


def bits_from_assignment(mask: int, num_datasets: int) -> str:
    """Render an assignment mask as a bit string, W_1 first."""
    return "".join("1" if mask >> k & 1 else "0" for k in range(num_datasets))


def _check_num_datasets(k: object) -> None:
    """K is an integer, not a bool, in 1..MAX_DATASETS."""
    if type(k) is not int or k < 1:
        raise ParseError(f'"K" must be a positive integer, got {k!r}')
    if k > MAX_DATASETS:
        raise ParseError(f"number of datasets {k} exceeds the {MAX_DATASETS} limit")


@dataclass(frozen=True)
class BooleanFunctionANF:
    """Canonical ANF: XOR of distinct monomials over ``num_datasets`` inputs.

    The monomial tuple is canonical: XOR-cancelled (a monomial listed an
    even number of times is gone) and sorted by (degree, index order).
    Use :meth:`from_masks` or :meth:`from_indices` to canonicalize raw
    input; direct construction requires already-canonical data.
    """

    num_datasets: int
    monomials: tuple[int, ...]

    def __post_init__(self) -> None:
        k = self.num_datasets
        _check_num_datasets(k)
        full = (1 << k) - 1
        for m in self.monomials:
            if not isinstance(m, int) or m < 0 or m & ~full:
                raise ParseError(f"monomial mask {m!r} not within [1, {k}]")
        keys = [monomial_sort_key(m) for m in self.monomials]
        if keys != sorted(set(keys)):
            raise ValueError("monomials not in canonical order (use from_masks)")

    @classmethod
    def from_masks(cls, num_datasets: int, masks: Iterable[int]) -> "BooleanFunctionANF":
        """Canonicalize: cancel pairs (XOR), sort by (degree, indices)."""
        parity: dict[int, int] = {}
        for m in masks:
            parity[m] = parity.get(m, 0) ^ 1
        kept = [m for m, p in parity.items() if p]
        kept.sort(key=monomial_sort_key)
        return cls(num_datasets, tuple(kept))

    @classmethod
    def from_indices(cls, num_datasets: int, index_lists: Iterable[Iterable[int]]) -> "BooleanFunctionANF":
        _check_num_datasets(num_datasets)  # before any index is compared with it
        masks = [mask_from_indices(ix, num_datasets) for ix in index_lists]
        return cls.from_masks(num_datasets, masks)

    @functools.cached_property
    def support_mask(self) -> int:
        """Union of all monomial variables; computed once, never compared."""
        out = 0
        for m in self.monomials:
            out |= m
        return out

    @property
    def constant_term(self) -> int:
        """1 if the constant-1 monomial is present."""
        return 1 if self.monomials and self.monomials[0] == 0 else 0

    @property
    def non_constant_monomials(self) -> tuple[int, ...]:
        return self.monomials[self.constant_term:]

    def __str__(self) -> str:
        if not self.monomials:
            return "0"
        parts = []
        for m in self.monomials:
            if m == 0:
                parts.append("1")
            else:
                parts.append("".join(f"W{k}" for k in indices_from_mask(m)))
        return " + ".join(parts)


def parse_function(text: str) -> BooleanFunctionANF:
    """Parse the JSON function format: {"K": int, "monomials": [[int,...],...]}.

    An empty inner array is the constant-1 term.  Duplicate monomials
    cancel pairwise (XOR over F2).
    """
    obj = load_object(text, "function", ("K", "monomials"))
    mon = obj["monomials"]
    if not isinstance(mon, list) or any(not isinstance(row, list) for row in mon):
        raise ParseError('"monomials" must be an array of arrays of indices')
    return BooleanFunctionANF.from_indices(obj["K"], mon)


def function_to_json(f: BooleanFunctionANF) -> str:
    """Canonical serialization; parse(function_to_json(f)) round-trips bit-exactly."""
    return dump_object(
        {"K": f.num_datasets, "monomials": [list(indices_from_mask(m)) for m in f.monomials]}
    )


def _check_assignment(f: BooleanFunctionANF, assignment: int) -> None:
    if not isinstance(assignment, int) or assignment < 0 or assignment >> f.num_datasets:
        raise ValueError(
            f"assignment {assignment!r} does not fit {f.num_datasets} datasets"
        )


def evaluate(f: BooleanFunctionANF, assignment: int) -> int:
    """Evaluate f at one assignment mask: XOR over monomials of their ANDed bits."""
    _check_assignment(f, assignment)
    out = 0
    for m in f.monomials:
        if assignment & m == m:
            out ^= 1
    return out


def truth_table(f: BooleanFunctionANF) -> np.ndarray:
    """Dense truth table of f over all 2^K assignments (index = assignment mask).

    Built on a ``(2,)*K`` view with dataset K on axis 0, so the C-order
    flat index is the assignment mask.  Each monomial XORs ``True`` into
    its slab (index 1 on its datasets' axes, every value elsewhere), so a
    degree-d monomial touches 2^(K-d) cells and no index array is built.
    Each call builds a fresh array that the caller owns.
    """
    k = f.num_datasets
    if k > MAX_TRUTH_TABLE_DATASETS:
        raise ValueError(f"truth table for K={k} exceeds the K<={MAX_TRUTH_TABLE_DATASETS} cap")
    table = np.zeros((2,) * k, dtype=bool)
    for m in f.monomials:
        slab = tuple(1 if m >> (k - 1 - axis) & 1 else slice(None) for axis in range(k))
        table[slab] ^= True
    return table.reshape(-1)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): its pool of
# four 32-bit words, hash and mix constants and shift; and PCG64's 128-bit
# LCG multiplier.
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = (1 << 32) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hasher(const: int, mult: int):
    """SeedSequence's hash step, on Python ints or uint64 arrays of 32-bit
    values: XOR the running constant in, step it, multiply by it."""

    def step(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> _XSHIFT

    return step


def _mix(x, y):
    """SeedSequence's mix of a hashed word ``y`` into pool word ``x``."""
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> _XSHIFT


def _block_states(seed: int, count: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of blocks b < ``count``, each as
    ``PCG64(SeedSequence(seed, spawn_key=(b,)))`` sets it, computed
    without building either.

    The entropy is the seed's 32-bit words, padded with zeros to the
    pool size, then b.  Every hash before b's is the same for each block,
    so it runs once on Python ints; b's round and ``generate_state(4,
    uint64)`` run on all blocks at once.  PCG64 then takes state words
    (s, i), each two 64-bit words high first, as inc = 2i + 1 and state =
    (inc + s) * MULT + inc mod 2^128.
    """
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_WORDS - len(words))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words[:_POOL_WORDS]]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    blocks = np.arange(count, dtype=np.uint64)
    for word in words[_POOL_WORDS:] + [blocks]:
        pool = [_mix(p, hashmix(word)) for p in pool]
    generate = _hasher(_INIT_B, _MULT_B)
    halves = [generate(pool[i % _POOL_WORDS]) for i in range(2 * _POOL_WORDS)]
    state_words = [(lo | hi << 32).tolist() for lo, hi in zip(halves[::2], halves[1::2])]
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*state_words):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append(((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def sample_blocks(
    num_datasets: int, sizes: Sequence[int], seed: int
) -> Iterator[tuple[np.ndarray, int]]:
    """Blocks of ``sizes[b]`` uniform samples over K datasets, block b from
    the PCG64 stream that ``SeedSequence(seed, spawn_key=(b,))`` keys, as
    ``(words, shift)``.

    One bit generator serves every block: its state is set to the block's,
    computed by :func:`_block_states` without building a SeedSequence.
    For K < 64, ``words >> shift`` holds the draws of
    ``Generator.integers(0, 1 << K, size, dtype=np.uint64)`` on that
    stream; for K = 64 each sample is a high and then a low 32-bit draw.
    numpy draws below a power of two 2^K without rejection: the top K
    bits of a 32-bit draw (K <= 32, uint32 words) or of a raw word
    (K > 32, uint64 words).
    """
    bits = np.random.PCG64(0)  # each block sets its state; seed 0 is never drawn from
    k = num_datasets
    for size, (state, inc) in zip(sizes, _block_states(seed, len(sizes))):
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        if 32 < k < 64:
            yield bits.random_raw(size), 64 - k
        elif k < 64:
            # numpy's 32-bit draws: the low half of a raw word, then its high half.
            draws = bits.random_raw((size + 1) // 2).astype("<u8", copy=False).view("<u4")
            yield draws[:size], 32 - k
        else:
            # K = 64: the first ``size`` draws are the high halves, the next the
            # low ones; each (low, high) pair read as one little-endian uint64.
            draws = bits.random_raw(size).astype("<u8", copy=False).view("<u4")
            words = np.empty((size, 2), dtype="<u4")
            words[:, 0], words[:, 1] = draws[size:], draws[:size]
            yield words.view("<u8").reshape(-1), 0
