"""Deterministic randomness: streams, registry, stable indices."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.rng import (
    RandomStream,
    RngRegistry,
    derive_seed,
    spread_evenly,
    stable_fraction,
    stable_fraction_uncached,
    stable_index,
    stable_index_uncached,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_distinct_names(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_distinct_seeds(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")


class TestRandomStream:
    def test_same_name_same_sequence(self):
        first = RandomStream(7, "x")
        second = RandomStream(7, "x")
        assert [first.random() for _ in range(5)] == [
            second.random() for _ in range(5)
        ]

    def test_different_names_diverge(self):
        first = RandomStream(7, "x")
        second = RandomStream(7, "y")
        assert [first.random() for _ in range(5)] != [
            second.random() for _ in range(5)
        ]

    def test_lognormal_median(self):
        stream = RandomStream(7, "lognormal")
        samples = sorted(stream.lognormal_ms(50.0, 0.3) for _ in range(4001))
        median = samples[len(samples) // 2]
        assert 45.0 < median < 55.0

    def test_lognormal_rejects_nonpositive(self):
        stream = RandomStream(7, "z")
        with pytest.raises(ValueError):
            stream.lognormal_ms(0.0, 0.3)

    def test_bounded_gauss_respects_bounds(self):
        stream = RandomStream(7, "bg")
        for _ in range(200):
            value = stream.bounded_gauss(0.0, 10.0, -1.0, 1.0)
            assert -1.0 <= value <= 1.0

    def test_weighted_choice_respects_weights(self):
        stream = RandomStream(7, "wc")
        picks = [
            stream.weighted_choice(["a", "b"], [0.99, 0.01]) for _ in range(500)
        ]
        assert picks.count("a") > 400

    def test_weighted_choice_length_mismatch(self):
        stream = RandomStream(7, "wc2")
        with pytest.raises(ValueError):
            stream.weighted_choice(["a"], [1.0, 2.0])

    def test_bernoulli_extremes(self):
        stream = RandomStream(7, "bern")
        assert not any(stream.bernoulli(0.0) for _ in range(50))
        assert all(stream.bernoulli(1.0) for _ in range(50))


class TestRngRegistry:
    def test_stream_identity(self):
        registry = RngRegistry(5)
        assert registry.stream("a", 1) is registry.stream("a", 1)

    def test_adding_streams_does_not_perturb_existing(self):
        registry = RngRegistry(5)
        first = registry.stream("alpha")
        head = [first.random() for _ in range(3)]
        registry.stream("beta").random()
        fresh = RngRegistry(5).stream("alpha")
        assert [fresh.random() for _ in range(3)] == head

    def test_fork_is_independent(self):
        registry = RngRegistry(5)
        forked = registry.fork("campaign")
        a = registry.stream("x").random()
        b = forked.stream("x").random()
        assert a != b

    def test_known_streams(self):
        registry = RngRegistry(5)
        registry.stream("one")
        registry.stream("two")
        assert list(registry.known_streams()) == ["one", "two"]

    def test_lent_stream_draws_like_a_kept_one_and_is_not_kept(self):
        registry = RngRegistry(5)
        lent = registry.lend("experiment", "d1", 0)
        assert lent.name == "experiment.d1.0"
        kept = RngRegistry(5).stream("experiment", "d1", 0)
        assert [lent.random() for _ in range(5)] == [
            kept.random() for _ in range(5)
        ]
        assert registry.lend("experiment", "d1", 0) is not lent
        assert list(registry.known_streams()) == []
        assert registry.lent == 2

    def test_release_folds_pool_counters(self):
        registry = RngRegistry(5)
        kept = registry.stream("kept")
        kept.gauss_block(3)
        lent = registry.lend("lent")
        lent.weighted_choice(("a", "b"), (1.0, 2.0))
        lent.gauss_block(700)  # spans a refill boundary
        expected = {
            "streams": 2,
            "pool_refills": kept.pool_refills + lent.pool_refills,
            "pool_uniforms": kept.pool_generated + lent.pool_generated,
            "pool_hits": kept.pool_hits + lent.pool_hits,
            "pool_realignments": 0,
            "weighted_memo_entries": 1,
        }
        registry.release(lent)
        del lent
        assert registry.pool_stats() == expected
        assert expected["pool_refills"] == 3


class TestStableFunctions:
    def test_stable_index_pure(self):
        assert stable_index(1, "d", 3, modulo=10) == stable_index(
            1, "d", 3, modulo=10
        )

    def test_stable_index_range(self):
        for part in range(100):
            assert 0 <= stable_index(9, part, modulo=7) < 7

    def test_stable_index_rejects_bad_modulo(self):
        with pytest.raises(ValueError):
            stable_index(1, "x", modulo=0)

    @given(st.integers(), st.text(max_size=20))
    def test_stable_fraction_in_unit_interval(self, seed, name):
        value = stable_fraction(seed, name)
        assert 0.0 <= value < 1.0

    @given(st.integers(), st.text(max_size=20), st.integers())
    def test_uncached_helpers_match_memoised_ones(self, seed, name, epoch):
        assert stable_fraction_uncached(seed, name, epoch) == stable_fraction(
            seed, name, epoch
        )
        assert stable_index_uncached(
            seed, name, epoch, modulo=97
        ) == stable_index(seed, name, epoch, modulo=97)

    def test_stable_index_uncached_rejects_bad_modulo(self):
        with pytest.raises(ValueError):
            stable_index_uncached(1, "x", modulo=0)

    def test_stable_index_roughly_uniform(self):
        counts = [0] * 4
        for item in range(2000):
            counts[stable_index(3, "u", item, modulo=4)] += 1
        assert min(counts) > 350


class TestSpreadEvenly:
    def test_exact_division(self):
        assert spread_evenly(9, 3) == [3, 3, 3]

    def test_remainder_goes_first(self):
        assert spread_evenly(10, 3) == [4, 3, 3]

    def test_more_buckets_than_total(self):
        assert spread_evenly(2, 4) == [1, 1, 0, 0]

    def test_rejects_zero_buckets(self):
        with pytest.raises(ValueError):
            spread_evenly(3, 0)

    @given(
        st.integers(min_value=0, max_value=10000),
        st.integers(min_value=1, max_value=64),
    )
    def test_sum_preserved(self, total, buckets):
        parts = spread_evenly(total, buckets)
        assert sum(parts) == total
        assert max(parts) - min(parts) <= 1
