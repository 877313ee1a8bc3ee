"""The O(1) key draws give the same bits as the straightforward ones.

Three shortcuts sit on the YCSB hot path: the Zipf zeta head is summed
once per theta, the FNV scramble is tabled per rank, and the generator
reads its uniform doubles in blocks.  Each test here compares against a
scalar reference written the plain way.
"""

from array import array

import numpy as np
import pytest

from repro.workloads import (
    WORKLOADS,
    OpType,
    ScrambledZipfianChooser,
    YcsbGenerator,
    YcsbSpec,
    ZipfianChooser,
)
from repro.workloads.distributions import _zeta_head


def reference_zeta(n, theta):
    """zeta(n, theta) with the head re-summed on every call."""
    if n <= 10_000:
        return float(sum(1.0 / (i**theta) for i in range(1, n + 1)))
    head = float(sum(1.0 / (i**theta) for i in range(1, 10_001)))
    s = 1.0 - theta
    return head + (n**s - 10_000**s) / s


def reference_constants(n, theta):
    zetan = reference_zeta(n, theta)
    zeta2 = reference_zeta(2, theta)
    eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - zeta2 / zetan)
    return zetan, zeta2, eta


class TestZetaHead:
    @pytest.mark.parametrize("theta", [0.99, 0.8])
    @pytest.mark.parametrize("start", [9_500, 60_000])
    def test_grown_constants_match_fresh_and_reference(self, theta, start):
        grown = ZipfianChooser(start, theta)
        for count in range(start + 1, start + 1_001):
            grown.grow(count)
        final = start + 1_000
        fresh = ZipfianChooser(final, theta)
        expected = reference_constants(final, theta)
        for chooser in (grown, fresh):
            assert (chooser.zetan, chooser.zeta2, chooser.eta) == expected

    def test_head_summed_once_per_theta(self):
        _zeta_head.cache_clear()
        for theta in (0.99, 0.8):
            chooser = ZipfianChooser(20_000, theta)
            for count in range(20_001, 20_201):
                chooser.grow(count)
            ScrambledZipfianChooser(50_000, theta)
        info = _zeta_head.cache_info()
        assert info.misses == 2
        assert info.hits >= 2 * 201


class TestScrambleTable:
    @staticmethod
    def assert_draws_match(chooser, reference, rng, ref_rng, draws):
        n = chooser.item_count
        for _ in range(draws):
            rank = reference.next_key(ref_rng)
            expected = ScrambledZipfianChooser._fnv_hash(rank) % n
            assert chooser.next_key(rng) == expected

    @pytest.mark.parametrize("n", [1_000, 16_384, 65_536])
    def test_draws_match_scalar_hash_before_and_after_grows(self, n):
        chooser = ScrambledZipfianChooser(n)
        reference = ZipfianChooser(n)
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        self.assert_draws_match(chooser, reference, rng, ref_rng, 50_000)
        table = chooser._hashes
        for count in (n + 1, n + 2, n + 3, 2 * n):
            chooser.grow(count)
            reference.grow(count)
        self.assert_draws_match(chooser, reference, rng, ref_rng, 50_000)
        assert chooser._hashes is table  # appended to, never rebuilt

    def test_table_is_eight_bytes_per_rank(self):
        chooser = ScrambledZipfianChooser(4_096)
        chooser.next_key(np.random.default_rng(0))
        assert isinstance(chooser._hashes, array)
        assert chooser._hashes.itemsize == 8
        assert len(chooser._hashes) == 4_096


class ScalarReference:
    """The generator written with one scalar ``rng`` call per use."""

    def __init__(self, spec, record_count, rng):
        self.spec = spec
        self.record_count = record_count
        self.rng = rng
        self.zipf = ZipfianChooser(record_count)

    def key(self):
        if self.spec.distribution == "uniform":
            return int(self.rng.integers(0, self.record_count))
        rank = self.zipf.next_key(self.rng)
        if self.spec.distribution == "latest":
            return self.record_count - 1 - rank
        return ScrambledZipfianChooser._fnv_hash(rank) % self.record_count

    def next_operation(self):
        r = self.rng.random()
        if r < self.spec.read_fraction:
            return OpType.READ, self.key()
        if r < self.spec.read_fraction + self.spec.update_fraction:
            return OpType.UPDATE, self.key()
        new_key = self.record_count
        self.record_count += 1
        self.zipf.grow(self.record_count)
        return OpType.INSERT, new_key


CUSTOM_INSERTS = YcsbSpec(
    "zipf-inserts", read_fraction=0.6, update_fraction=0.3, insert_fraction=0.1
)
UNIFORM = YcsbSpec("uniform", read_fraction=0.9, update_fraction=0.1,
                   distribution="uniform")


class TestBlockedUniforms:
    @pytest.mark.parametrize(
        "spec",
        [WORKLOADS["A"], WORKLOADS["C"], WORKLOADS["D"], CUSTOM_INSERTS, UNIFORM],
        ids=lambda spec: spec.name,
    )
    def test_ops_match_scalar_reference(self, spec):
        generator = YcsbGenerator(spec, 16_384, np.random.default_rng(11))
        reference = ScalarReference(spec, 16_384, np.random.default_rng(11))
        for _ in range(50_000):
            op = generator.next_operation()
            assert (op.op, op.key) == reference.next_operation()
        assert generator.record_count == reference.record_count
