"""Stream stability of the deterministic generator.

The golden words below were produced by an independent transcription of
the SplitMix64 reference algorithm; the seed-0 stream starts with the
published test vector 0xE220A8397B1DCDAF.
"""

import math

import pytest

from gpconsensus.rng import SplitMix64
from oracles import normals

GOLDEN_U64 = {
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC],
    42: [0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52, 0x581CE1FF0E4AE394],
    1234567891011: [0x52FBA1FD45735315, 0xA8198F4A24212FE6, 0xE53BB51EDB2A246D, 0x24DACB4EFC2F619B],
}

GOLDEN_DOUBLES_SEED0 = [
    0.8833108082136426,
    0.43152799704850997,
    0.026433771592597743,
    0.9708819781538285,
]

GOLDEN_NORMAL_PAIR_SEED42 = (0.4147197504315305, 0.6526812221519427)


class TestStream:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_U64))
    def test_golden_words(self, seed):
        rng = SplitMix64(seed)
        assert [rng.next_uint64() for _ in range(4)] == GOLDEN_U64[seed]

    def test_golden_doubles(self):
        rng = SplitMix64(0)
        for expected in GOLDEN_DOUBLES_SEED0:
            assert rng.random() == expected

    def test_golden_normal_pair(self):
        rng = SplitMix64(42)
        assert rng.normal() == GOLDEN_NORMAL_PAIR_SEED42[0]
        assert rng.normal() == GOLDEN_NORMAL_PAIR_SEED42[1]

    def test_seed_wraps_modulo_2_64(self):
        assert SplitMix64(1 << 64).next_uint64() == SplitMix64(0).next_uint64()

    def test_same_seed_same_stream(self):
        a = SplitMix64(77)
        b = SplitMix64(77)
        assert [a.random() for _ in range(50)] == [b.random() for _ in range(50)]

    def test_different_seeds_differ(self):
        a = SplitMix64(77)
        b = SplitMix64(78)
        assert [a.next_uint64() for _ in range(4)] != [b.next_uint64() for _ in range(4)]


class TestDistributions:
    def test_uniform_range(self):
        rng = SplitMix64(5)
        for _ in range(1000):
            v = rng.uniform(-1.5, 1.5)
            assert -1.5 <= v < 1.5

    def test_random_in_unit_interval(self):
        rng = SplitMix64(6)
        vals = [rng.random() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert abs(sum(vals) / len(vals) - 0.5) < 0.03

    def test_normal_moments(self):
        rng = SplitMix64(7)
        n = 20000
        vals = normals(rng, n)
        mean = sum(vals) / n
        var = sum((v - mean) ** 2 for v in vals) / n
        assert abs(mean) < 0.02
        assert abs(var - 1.0) < 0.03

    def test_normal_scaling(self):
        base = SplitMix64(9)
        scaled = SplitMix64(9)
        raw = [base.normal() for _ in range(10)]
        shifted = [scaled.normal(2.0, 0.5) for _ in range(10)]
        for z, s in zip(raw, shifted):
            assert s == pytest.approx(2.0 + 0.5 * z, abs=1e-15)

    def test_normals_matches_repeated_normal(self):
        a = SplitMix64(11)
        b = SplitMix64(11)
        assert normals(a, 9) == [b.normal() for _ in range(9)]

    def test_cache_alternation(self):
        # odd draw counts leave one cached value; stream must stay aligned
        a = SplitMix64(13)
        first3 = [a.normal() for _ in range(3)]
        b = SplitMix64(13)
        assert [b.normal() for _ in range(3)] == first3

    def test_normal_finite(self):
        rng = SplitMix64(15)
        assert all(math.isfinite(v) for v in normals(rng, 5000))
