"""YCSB workload generator: workloads A-D as the paper runs them (§4.1.1).

* **A** — 50 % read / 50 % update, Zipfian;
* **B** — 95 % read / 5 % update, Zipfian;
* **C** — 100 % read, Zipfian;
* **D** — 95 % read / 5 % insert, latest distribution.

Record size defaults to the YCSB default the paper uses: 1 KB values.
The generator is an iterator of :class:`Operation` objects so the KV
store client can drive it closed-loop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator

import numpy as np

from ..errors import WorkloadError
from ..units import KIB
from .distributions import KeyChooser, LatestChooser, ScrambledZipfianChooser, UniformChooser

__all__ = ["OpType", "Operation", "YcsbSpec", "YcsbGenerator", "WORKLOADS"]


class OpType(enum.Enum):
    """YCSB operation kinds used by the paper's workloads."""

    READ = "read"
    UPDATE = "update"
    INSERT = "insert"


@dataclass(frozen=True)
class Operation:
    """One request: an op type and the key it targets."""

    op: OpType
    key: int

    @property
    def is_write(self) -> bool:
        """Updates and inserts write the value; reads do not."""
        return self.op is not OpType.READ


@dataclass(frozen=True)
class YcsbSpec:
    """A YCSB workload definition."""

    name: str
    read_fraction: float
    update_fraction: float = 0.0
    insert_fraction: float = 0.0
    distribution: str = "zipfian"  # zipfian | latest | uniform
    value_size: int = KIB  # 1 KB, the YCSB default used in §4.1.1

    def __post_init__(self) -> None:
        total = self.read_fraction + self.update_fraction + self.insert_fraction
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"operation mix must sum to 1, got {total}")
        if self.distribution not in ("zipfian", "latest", "uniform"):
            raise WorkloadError(f"unknown distribution {self.distribution!r}")
        if self.value_size <= 0:
            raise WorkloadError("value_size must be positive")

    @property
    def write_fraction(self) -> float:
        """Fraction of ops that write (updates + inserts)."""
        return self.update_fraction + self.insert_fraction


#: The four workloads of Fig. 5, by YCSB letter.
WORKLOADS: Dict[str, YcsbSpec] = {
    "A": YcsbSpec("YCSB-A", read_fraction=0.5, update_fraction=0.5),
    "B": YcsbSpec("YCSB-B", read_fraction=0.95, update_fraction=0.05),
    "C": YcsbSpec("YCSB-C", read_fraction=1.0),
    "D": YcsbSpec(
        "YCSB-D", read_fraction=0.95, insert_fraction=0.05, distribution="latest"
    ),
}


#: Doubles drawn per ``rng.random(n)`` call by :class:`_UniformBlock`.
_BLOCK = 1024


class _UniformBlock:
    """``rng.random()`` served from blocks of ``rng.random(_BLOCK)``.

    ``Generator.random(n)`` yields the same doubles, in the same order,
    as ``n`` scalar calls, so a consumer of ``.random()`` sees the same
    stream at a fraction of the per-call cost.  The generator is left
    up to ``_BLOCK - 1`` doubles ahead of what was consumed.
    """

    __slots__ = ("_rng", "_next")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._next = iter(()).__next__

    def random(self) -> float:
        try:
            return self._next()
        except StopIteration:
            self._next = iter(self._rng.random(_BLOCK).tolist()).__next__
            return self._next()


class YcsbGenerator:
    """Draws a stream of operations for a spec over ``record_count`` keys.

    The generator owns ``rng``: it reads the Zipfian and latest draws
    ahead in blocks, so nothing else may draw from the same stream.  The
    uniform distribution consumes ``rng.integers`` and stays on scalar
    calls.
    """

    def __init__(
        self,
        spec: YcsbSpec,
        record_count: int,
        rng: np.random.Generator,
    ) -> None:
        if record_count <= 0:
            raise WorkloadError("record_count must be positive")
        self.spec = spec
        self.record_count = record_count
        self._rng = rng if spec.distribution == "uniform" else _UniformBlock(rng)
        self._chooser = self._make_chooser()

    def _make_chooser(self) -> KeyChooser:
        if self.spec.distribution == "zipfian":
            return ScrambledZipfianChooser(self.record_count)
        if self.spec.distribution == "latest":
            return LatestChooser(self.record_count)
        return UniformChooser(self.record_count)

    def next_operation(self) -> Operation:
        """Draw the next operation."""
        r = self._rng.random()
        if r < self.spec.read_fraction:
            return Operation(OpType.READ, self._chooser.next_key(self._rng))
        if r < self.spec.read_fraction + self.spec.update_fraction:
            return Operation(OpType.UPDATE, self._chooser.next_key(self._rng))
        # Insert: append a fresh key at the end of the space.
        new_key = self.record_count
        self.record_count += 1
        self._chooser.grow(self.record_count)
        return Operation(OpType.INSERT, new_key)

    def operations(self, count: int) -> Iterator[Operation]:
        """Yield ``count`` operations."""
        for _ in range(count):
            yield self.next_operation()
