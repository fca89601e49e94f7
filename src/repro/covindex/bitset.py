"""Bitsets over graph IDs: the int reference and the numpy substrate.

Posting lists and per-pattern match sets in the coverage engine are
bitsets: graph ID *g* is present iff bit *g* is set.  Two substrates
implement the same algebra behind the small :class:`BitsetOps` layer:

* **int** — plain Python arbitrary-precision ints.  Intersection
  (``&``), union (``|``) and difference (``& ~``) are single C-level
  operations over the whole database view; this is the PR-4 reference
  implementation and the byte-identity baseline the differential
  oracles compare against.
* **numpy** — little-endian ``uint64`` word arrays.  The same algebra
  becomes word-wise vectorized operations, and the coverage index
  stacks every posting row into one 2-D matrix so a pattern's
  candidate filter is a single ``bitwise_and.reduce`` over all its
  posting rows at once (see :mod:`repro.covindex.index`).

Both substrates serialize to/from the canonical int form (``to_int`` /
``from_int``), which is what the SQLite store persists
(:mod:`repro.store.sqlite`) and what index snapshots and journal
digests are computed over — switching substrates never changes any
persisted byte.

Graph IDs are the small dense integers handed out by
:class:`~repro.graph.database.GraphDatabase`, so both forms stay
compact.  The ambient substrate toggle (:func:`set_substrate` /
:func:`use_substrate`) selects which substrate new indices are built
on; the default is ``numpy`` when numpy is importable and ``int``
otherwise.  The int substrate is the reference the tests and the covix
figure's speedup gate compare against.
"""

from __future__ import annotations

import sys
import warnings
from collections.abc import Iterable, Iterator
from contextlib import contextmanager

try:  # numpy is a declared dependency, but the int substrate keeps the
    import numpy as _np  # engine fully functional without it.
except ImportError:  # pragma: no cover - exercised via resolve_substrate
    _np = None

#: Bits per word of the numpy substrate.
WORD_BITS = 64

_WORD_MASK = (1 << WORD_BITS) - 1

#: ``numpy.bitwise_count`` arrived in numpy 2.0; older numpy falls back
#: to the int popcount through ``words_to_int``.
_BITWISE_COUNT = getattr(_np, "bitwise_count", None) if _np is not None else None

#: Native little-endian hosts can serialize word arrays with a plain
#: ``tobytes`` (see :func:`words_to_int`).
_LITTLE_ENDIAN = sys.byteorder == "little"


# ----------------------------------------------------------------------
# int-bitset primitives (the reference substrate)
# ----------------------------------------------------------------------
def bits_of(ids: Iterable[int]) -> int:
    """The bitset containing exactly *ids*.

    Built via per-word buckets: each ID does O(1) small-int work and the
    final bitset is assembled with one ``int.from_bytes`` pass, so dense
    ID sets cost O(n + words) instead of the O(n × words) of repeatedly
    OR-ing ``1 << id`` into an ever-wider accumulator.
    """
    buckets: dict[int, int] = {}
    for graph_id in ids:
        word = graph_id >> 6
        buckets[word] = buckets.get(word, 0) | (1 << (graph_id & 63))
    if not buckets:
        return 0
    buf = bytearray((max(buckets) + 1) * 8)
    for word, value in buckets.items():
        buf[word * 8 : word * 8 + 8] = value.to_bytes(8, "little")
    return int.from_bytes(buf, "little")


def ids_of(bits: int) -> Iterator[int]:
    """Yield the set graph IDs of *bits* in ascending order.

    Iterates set bits directly (``bits & -bits`` isolates the lowest
    one), so cost scales with the population count — not with the
    highest graph ID ever allocated, which only grows on long-running
    maintenance trajectories.
    """
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def popcount(bits: int) -> int:
    """Number of graph IDs in *bits*."""
    return bits.bit_count()


#: Backwards-compatible alias of :func:`popcount`.
count = popcount


# ----------------------------------------------------------------------
# numpy word-array primitives
# ----------------------------------------------------------------------
def words_for(num_bits: int) -> int:
    """Words needed to hold *num_bits* bits (at least one)."""
    return max(1, (num_bits + WORD_BITS - 1) >> 6)


def int_to_words(bits: int, num_words: int):
    """*bits* as a writable uint64 word array of exactly *num_words*."""
    data = bits.to_bytes(num_words * 8, "little")
    return _np.frombuffer(data, dtype="<u8").astype(_np.uint64)


def words_to_int(words) -> int:
    """The canonical int form of a uint64 word array.

    The common case — a C-contiguous native-order array on a
    little-endian host, which is what every hot path passes — goes
    straight to ``tobytes``; the ``ascontiguousarray`` normalisation is
    an extra array-op dispatch that costs real microseconds per filter
    query under the serving workload.
    """
    if _LITTLE_ENDIAN and words.dtype == _np.uint64 and (
        words.flags["C_CONTIGUOUS"]
    ):
        return int.from_bytes(words.tobytes(), "little")
    data = _np.ascontiguousarray(words, dtype="<u8").tobytes()
    return int.from_bytes(data, "little")


def words_of(ids: Iterable[int], num_words: int):
    """The word array containing exactly *ids* (all < 64 × num_words)."""
    arr = _np.fromiter(ids, dtype=_np.int64)
    words = _np.zeros(num_words, dtype=_np.uint64)
    if arr.size:
        masks = _np.left_shift(_np.uint64(1), (arr & 63).astype(_np.uint64))
        _np.bitwise_or.at(words, arr >> 6, masks)
    return words


def ids_of_words(words) -> list[int]:
    """The set graph IDs of a word array, ascending.

    Sparse-aware: only the nonzero words are unpacked, so the cost
    scales with the population's word span, not the universe width —
    a delta of a few dozen graphs clustered in one or two words stays
    cheap no matter how wide the view has grown.  Populations spanning
    a handful of words skip numpy entirely (low-bit extraction beats
    five array-op dispatches at that size).
    """
    nonzero_words = words.nonzero()[0]
    if not nonzero_words.size:
        return []
    if nonzero_words.size <= 4:
        out = []
        for word_index in nonzero_words.tolist():
            bits_int = int(words[word_index])
            base = word_index << 6
            while bits_int:
                low = bits_int & -bits_int
                out.append(base + low.bit_length() - 1)
                bits_int ^= low
        return out
    packed = _np.ascontiguousarray(words[nonzero_words], dtype="<u8")
    bits = _np.unpackbits(packed.view(_np.uint8), bitorder="little")
    positions = bits.nonzero()[0]
    return (
        nonzero_words[positions >> 6] * 64 + (positions & 63)
    ).tolist()


def popcount_words(words) -> int:
    """Population count of a word array (or 2-D stack of them)."""
    if _BITWISE_COUNT is not None:
        return int(_np.add.reduce(_BITWISE_COUNT(words), axis=None))
    return words_to_int(words.ravel()).bit_count()


# ----------------------------------------------------------------------
# the BitsetOps layer
# ----------------------------------------------------------------------
class IntBitsetOps:
    """The int-bitset algebra; values are plain Python ints.

    This is the reference substrate: semantics (and costs) are exactly
    the pre-substrate code paths, which is what the covix figure's
    wall-clock baseline and the differential oracles compare against.
    """

    name = "int"

    def ensure_capacity(self, num_bits: int) -> None:
        """Ints grow automatically; capacity is a no-op."""

    def zero(self) -> int:
        return 0

    def from_ids(self, ids: Iterable[int]) -> int:
        return bits_of(ids)

    def from_int(self, bits: int) -> int:
        return bits

    def to_int(self, value: int) -> int:
        return value

    def copy(self, value: int) -> int:
        return value

    def union(self, a: int, b: int) -> int:
        return a | b

    def intersect(self, a: int, b: int) -> int:
        return a & b

    def subtract(self, a: int, b: int) -> int:
        return a & ~b

    def set_bit(self, value: int, graph_id: int) -> int:
        return value | (1 << graph_id)

    def clear_bit(self, value: int, graph_id: int) -> int:
        return value & ~(1 << graph_id)

    def test(self, value: int, graph_id: int) -> bool:
        return bool((value >> graph_id) & 1)

    def is_empty(self, value: int) -> bool:
        return not value

    def popcount(self, value: int) -> int:
        return popcount(value)

    def ids(self, value: int) -> list[int]:
        return list(ids_of(value))


class NumpyBitsetOps:
    """The numpy substrate; values are uint64 word arrays.

    One ops instance is shared by an index and its engine so the word
    width (``num_words``) grows in one place — geometrically, as graph
    IDs are allocated.  Values created before a growth step stay valid:
    every binary operation aligns operand widths by zero-padding the
    shorter side, and ``set_bit`` pads in place first.
    """

    name = "numpy"
    __slots__ = ("num_words",)

    def __init__(self, num_bits: int = WORD_BITS) -> None:
        if _np is None:  # pragma: no cover - guarded by resolve_substrate
            raise RuntimeError("the numpy bitset substrate requires numpy")
        self.num_words = words_for(num_bits)

    def ensure_capacity(self, num_bits: int) -> None:
        needed = words_for(num_bits)
        if needed > self.num_words:
            self.num_words = max(needed, self.num_words * 2)

    def _pad(self, value):
        if value.shape[0] >= self.num_words:
            return value
        out = _np.zeros(self.num_words, dtype=_np.uint64)
        out[: value.shape[0]] = value
        return out

    @staticmethod
    def _aligned(a, b):
        if a.shape[0] == b.shape[0]:
            return a, b
        width = max(a.shape[0], b.shape[0])
        if a.shape[0] < width:
            wide = _np.zeros(width, dtype=_np.uint64)
            wide[: a.shape[0]] = a
            a = wide
        else:
            wide = _np.zeros(width, dtype=_np.uint64)
            wide[: b.shape[0]] = b
            b = wide
        return a, b

    def zero(self):
        return _np.zeros(self.num_words, dtype=_np.uint64)

    def from_ids(self, ids: Iterable[int]):
        ids = list(ids)
        if ids:
            self.ensure_capacity(max(ids) + 1)
        return words_of(ids, self.num_words)

    def from_int(self, bits: int):
        self.ensure_capacity(max(1, bits.bit_length()))
        return int_to_words(bits, self.num_words)

    def to_int(self, value) -> int:
        return words_to_int(value)

    def copy(self, value):
        return value.copy()

    def union(self, a, b):
        a, b = self._aligned(a, b)
        return a | b

    def intersect(self, a, b):
        a, b = self._aligned(a, b)
        return a & b

    def subtract(self, a, b):
        a, b = self._aligned(a, b)
        return a & ~b

    def set_bit(self, value, graph_id: int):
        self.ensure_capacity(graph_id + 1)
        value = self._pad(value)
        value[graph_id >> 6] |= _np.uint64(1 << (graph_id & 63))
        return value

    def clear_bit(self, value, graph_id: int):
        word = graph_id >> 6
        if word < value.shape[0]:
            value[word] &= _np.uint64(~(1 << (graph_id & 63)) & _WORD_MASK)
        return value

    def test(self, value, graph_id: int) -> bool:
        word = graph_id >> 6
        if word >= value.shape[0]:
            return False
        return bool((int(value[word]) >> (graph_id & 63)) & 1)

    def is_empty(self, value) -> bool:
        return not value.any()

    def popcount(self, value) -> int:
        return popcount_words(value)

    def ids(self, value) -> list[int]:
        return ids_of_words(value)


#: The substrates :func:`make_ops` understands.
SUBSTRATES = ("int", "numpy")


def available_substrates() -> tuple[str, ...]:
    """The substrates this process can actually build (numpy may be absent)."""
    return SUBSTRATES if _np is not None else ("int",)


def make_ops(substrate: str):
    """A fresh :class:`BitsetOps` instance for *substrate* (resolved)."""
    if substrate not in SUBSTRATES:
        raise ValueError(
            f"unknown substrate {substrate!r}; choose from {SUBSTRATES}"
        )
    if substrate == "numpy":
        return NumpyBitsetOps()
    return IntBitsetOps()


# ----------------------------------------------------------------------
# ambient substrate selection (mirrors repro.covindex.engine's toggle)
# ----------------------------------------------------------------------
_DEFAULT_SUBSTRATE = "numpy" if _np is not None else "int"
_substrate = _DEFAULT_SUBSTRATE
_warned_no_numpy = False


def set_substrate(name: str) -> None:
    """Globally select the bitset substrate for new indices."""
    global _substrate
    if name not in SUBSTRATES:
        raise ValueError(
            f"unknown substrate {name!r}; choose from {SUBSTRATES}"
        )
    _substrate = name


def current_substrate() -> str:
    return _substrate


@contextmanager
def use_substrate(name: str):
    """Select *name* as the substrate for the dynamic extent of the block."""
    global _substrate
    if name not in SUBSTRATES:
        raise ValueError(
            f"unknown substrate {name!r}; choose from {SUBSTRATES}"
        )
    previous = _substrate
    _substrate = name
    try:
        yield
    finally:
        _substrate = previous


def resolve_substrate(name: str | None = None) -> str:
    """*name* (or the ambient substrate) resolved to a buildable one.

    Requesting ``numpy`` without numpy installed degrades to ``int``
    with a one-time warning rather than failing: the substrates are
    byte-identical, so the fallback only costs speed.
    """
    global _warned_no_numpy
    if name is None:
        name = _substrate
    if name not in SUBSTRATES:
        raise ValueError(
            f"unknown substrate {name!r}; choose from {SUBSTRATES}"
        )
    if name == "numpy" and _np is None:
        if not _warned_no_numpy:
            _warned_no_numpy = True
            warnings.warn(
                "numpy is unavailable; the coverage engine falls back to "
                "the int bitset substrate (identical results, no "
                "vectorization)",
                RuntimeWarning,
                stacklevel=2,
            )
        return "int"
    return name


__all__ = [
    "SUBSTRATES",
    "WORD_BITS",
    "IntBitsetOps",
    "NumpyBitsetOps",
    "available_substrates",
    "bits_of",
    "count",
    "current_substrate",
    "ids_of",
    "ids_of_words",
    "int_to_words",
    "make_ops",
    "popcount",
    "popcount_words",
    "resolve_substrate",
    "set_substrate",
    "use_substrate",
    "words_for",
    "words_of",
    "words_to_int",
]
