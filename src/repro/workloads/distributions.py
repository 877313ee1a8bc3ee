"""Key-choosing distributions for the YCSB-style workloads.

The paper's KeyDB experiments (§4.1.1) use the YCSB defaults: a
*Zipfian* chooser for workloads A-C (a small set of keys receives most
of the traffic — this is what lets Hot-Promote shine) and the *latest*
chooser for workload D (recently inserted keys are hottest).  A uniform
chooser is included because §4.1.2 explicitly reasons about it ("if the
keys were distributed uniformly, we anticipate worse performance").

The Zipfian implementation follows the YCSB/Gray et al. rejection-free
algorithm with key scrambling, so hot keys are spread across the key
space rather than clustered at low ids — exactly the property that
matters for page-granular placement studies.
"""

from __future__ import annotations

import abc
from array import array
from functools import lru_cache

import numpy as np

from ..errors import WorkloadError

__all__ = [
    "KeyChooser",
    "UniformChooser",
    "ZipfianChooser",
    "ScrambledZipfianChooser",
    "LatestChooser",
]


class KeyChooser(abc.ABC):
    """Chooses keys in ``[0, item_count)`` with some popularity skew."""

    def __init__(self, item_count: int) -> None:
        if item_count <= 0:
            raise WorkloadError("item_count must be positive")
        self.item_count = item_count

    @abc.abstractmethod
    def next_key(self, rng: np.random.Generator) -> int:
        """Draw one key."""

    def grow(self, new_count: int) -> None:
        """Extend the key space (after inserts).  Default: just widen."""
        if new_count < self.item_count:
            raise WorkloadError("key space cannot shrink")
        self.item_count = new_count


class UniformChooser(KeyChooser):
    """Every key equally likely."""

    def next_key(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, self.item_count))


@lru_cache(maxsize=None, typed=True)
def _zeta_head(theta: float) -> float:
    """The first 10,000 terms of zeta(n, theta), summed once per theta.

    Every ``grow()`` past 10,000 keys reuses this head and adds only the
    closed-form tail, as YCSB keeps zeta as a stored partial sum (Gray
    et al., SIGMOD '94).  The expression is the exact one each call used
    to re-evaluate, so the bits match the unmemoised sum.
    """
    return float(sum(1.0 / (i**theta) for i in range(1, 10_001)))


class ZipfianChooser(KeyChooser):
    """Zipfian distribution over keys, YCSB's default skew (theta=0.99).

    Uses the Gray et al. analytic inverse method.  ``zeta`` constants are
    refreshed on every ``grow()``: past 10,000 keys that costs O(1), a
    per-theta memoised head plus a closed-form tail; up to 10,000 keys it
    is an exact O(n) sum.
    """

    def __init__(self, item_count: int, theta: float = 0.99) -> None:
        super().__init__(item_count)
        if not 0.0 < theta < 1.0:
            raise WorkloadError("theta must be in (0, 1)")
        self.theta = theta
        self._recompute()

    def _zeta(self, n: int) -> float:
        # Exact for small n; Euler-Maclaurin approximation for large n so
        # construction stays O(1)-ish for multi-million key spaces.
        if n <= 10_000:
            return float(sum(1.0 / (i**self.theta) for i in range(1, n + 1)))
        head = _zeta_head(self.theta)
        s = 1.0 - self.theta
        tail = (n**s - 10_000**s) / s
        return head + tail

    def _recompute(self) -> None:
        n = self.item_count
        self.zetan = self._zeta(n)
        self.zeta2 = self._zeta(2)
        self.alpha = 1.0 / (1.0 - self.theta)
        self.eta = (1.0 - (2.0 / n) ** (1.0 - self.theta)) / (
            1.0 - self.zeta2 / self.zetan
        )

    def grow(self, new_count: int) -> None:
        super().grow(new_count)
        self._recompute()

    def next_key(self, rng: np.random.Generator) -> int:
        u = rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return 1
        key = int(self.item_count * (self.eta * u - self.eta + 1.0) ** self.alpha)
        return min(key, self.item_count - 1)


class ScrambledZipfianChooser(ZipfianChooser):
    """Zipfian popularity with hot keys scattered over the key space.

    YCSB scrambles the Zipfian rank with a hash so that popular keys are
    not adjacent — without this, the "hot set" would be one contiguous
    page run and the tiering results would be unrealistically easy.

    The 64-bit hash of every rank is tabled (8 bytes per key) on the
    first draw, and extended when a draw lands past a grown key space,
    so a draw costs one lookup instead of the eight-step hash.
    """

    _FNV_PRIME = 0x100000001B3
    _FNV_OFFSET = 0xCBF29CE484222325

    def __init__(self, item_count: int, theta: float = 0.99) -> None:
        super().__init__(item_count, theta)
        self._hashes = array("Q")  # _fnv_hash(rank), indexed by rank

    def next_key(self, rng: np.random.Generator) -> int:
        rank = super().next_key(rng)
        try:
            return self._hashes[rank] % self.item_count
        except IndexError:  # first draw, or a draw past a grown key space
            ranks = np.arange(len(self._hashes), self.item_count, dtype=np.uint64)
            self._hashes.frombytes(_fnv_hash_vector(ranks).tobytes())
            return self._hashes[rank] % self.item_count

    @classmethod
    def _fnv_hash(cls, value: int) -> int:
        h = cls._FNV_OFFSET
        for _ in range(8):
            h = ((h ^ (value & 0xFF)) * cls._FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
            value >>= 8
        return h


_FNV_PRIME = np.uint64(ScrambledZipfianChooser._FNV_PRIME)
_FNV_OFFSET = np.uint64(ScrambledZipfianChooser._FNV_OFFSET)


def _fnv_hash_vector(values: np.ndarray) -> np.ndarray:
    """Vectorized FNV-style scramble, identical to the chooser's."""
    v = values.astype(np.uint64)
    h = np.full(v.shape, _FNV_OFFSET, dtype=np.uint64)
    mask = np.uint64(0xFF)
    shift = np.uint64(8)
    with np.errstate(over="ignore"):
        for _ in range(8):
            h = (h ^ (v & mask)) * _FNV_PRIME
            v = v >> shift
    return h


class LatestChooser(KeyChooser):
    """YCSB's 'latest' distribution: recently inserted keys are hottest.

    Used by workload D (§4.1.1).  A Zipfian draw is taken over recency
    rank: rank 0 is the newest key.
    """

    def __init__(self, item_count: int, theta: float = 0.99) -> None:
        super().__init__(item_count)
        self._zipf = ZipfianChooser(item_count, theta)

    def grow(self, new_count: int) -> None:
        super().grow(new_count)
        self._zipf.grow(new_count)

    def next_key(self, rng: np.random.Generator) -> int:
        recency_rank = self._zipf.next_key(rng)
        return self.item_count - 1 - recency_rank
