"""Bucket orders, noisy profiles, and the golden fixtures."""

import random

import pytest

from kemeny.errors import InputError
from kemeny.instances import (
    BucketSpec,
    fifty_fifty_profile,
    five_type_profile,
    generate_bucket_order,
    generate_profile,
    random_partial_order,
)
from kemeny.oracle import count_extensions
from kemeny.orders import PartialOrder, unanimity_order
from kemeny.width import cocomparability_graph

from graph_oracles import exact_pathwidth


class TestBucketOrders:
    def test_unit_buckets_give_linear_order(self):
        order = generate_bucket_order(BucketSpec((1, 1, 1)))
        assert count_extensions(order) == 1

    def test_single_bucket_gives_antichain(self):
        order = generate_bucket_order(BucketSpec((4,)))
        assert order.rows == PartialOrder.antichain(4).rows

    def test_two_by_two_pathwidth(self):
        order = generate_bucket_order(BucketSpec((2, 2)))
        assert exact_pathwidth(cocomparability_graph(order)) == 1

    def test_pathwidth_is_max_bucket_minus_one(self):
        rng = random.Random(61)
        for _ in range(25):
            sizes = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
            order = generate_bucket_order(BucketSpec(sizes))
            g = cocomparability_graph(order)
            assert exact_pathwidth(g) == max(sizes) - 1

    def test_rejects_empty_buckets(self):
        with pytest.raises(InputError):
            BucketSpec((2, 0))


class TestGenerateProfile:
    def test_zero_noise_votes_extend_base(self):
        base = generate_bucket_order(BucketSpec((2, 3)))
        sample = generate_profile(base, m=6, noise=0, seed=9)
        assert all(sample.votes_extend_base)
        una = unanimity_order(sample.profile)
        assert all(una.lt(x, y) for x, y in base.strict_pairs())

    def test_noise_recorded_not_assumed(self):
        base = generate_bucket_order(BucketSpec((1, 1, 1, 1)))
        sample = generate_profile(base, m=3, noise=4, seed=10)
        assert len(sample.votes_extend_base) == 3

    def test_seed_reproducible(self):
        base = random_partial_order(5, random.Random(0), 0.5)
        a = generate_profile(base, m=4, noise=1, seed=3)
        b = generate_profile(base, m=4, noise=1, seed=3)
        assert a.profile.votes == b.profile.votes


class TestFixtures:
    def test_five_type_table(self):
        profile = five_type_profile()
        assert profile.candidates.names == ("A", "B", "C", "D", "E")
        assert [m for _, m in profile.votes] == [10, 10, 10, 40, 20]
        assert profile.m == 90

    def test_fifty_fifty_table(self):
        profile = fifty_fifty_profile()
        assert [m for _, m in profile.votes] == [50, 50]
        for vote, _ in profile.votes:
            assert count_extensions(vote) == 1
