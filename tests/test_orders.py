"""Order types, Kendall-Tau machinery, unanimity, and the cost reduction."""

import random
import time

import pytest

from kemeny.cli import parse_votes
from kemeny.errors import CapabilityError, InputError
from kemeny.instances import (
    candidate_labels,
    fifty_fifty_profile,
    five_type_profile,
    random_partial_order,
    random_profile,
)
from kemeny.oracle import enumerate_extensions
from kemeny.orders import (
    MAX_CANDIDATES,
    CandidateSet,
    CostInstance,
    LinearOrder,
    PartialOrder,
    Profile,
    diversity,
    kemeny_score,
    kt_distance,
    reduce_to_co,
    unanimity_order,
)


def linear(*perm):
    return LinearOrder(tuple(perm))


def chain(n):
    return PartialOrder.from_pairs(n, [(i, i + 1) for i in range(n - 1)])


def merge_sort_inversions(seq):
    """Independent inversion counter for the linear-order cross-check."""
    if len(seq) <= 1:
        return list(seq), 0
    mid = len(seq) // 2
    left, a = merge_sort_inversions(seq[:mid])
    right, b = merge_sort_inversions(seq[mid:])
    merged = []
    inv = a + b
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            inv += len(left) - i
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged, inv


class TestTypes:
    def test_candidate_labels_must_be_unique(self):
        with pytest.raises(InputError):
            CandidateSet(("A", "A"))
        with pytest.raises(InputError):
            CandidateSet(("A", ""))

    def test_partial_order_validation(self):
        with pytest.raises(InputError, match="^relation not reflexive at 1$"):
            PartialOrder(2, (0b01, 0b01))
        with pytest.raises(InputError, match=r"^antisymmetry violated on \(0,1\)$"):
            PartialOrder(2, (0b11, 0b11))
        with pytest.raises(InputError, match=r"^transitivity violated below \(0,1\)$"):
            PartialOrder(3, (0b011, 0b110, 0b100))

    def test_from_pairs_rejects_cycles(self):
        with pytest.raises(InputError):
            PartialOrder.from_pairs(2, [(0, 1), (1, 0)])

    def test_linear_order_round_trip(self):
        lo = linear(2, 0, 1)
        po = lo.as_partial_order()
        assert list(enumerate_extensions(po)) == [lo]
        assert lo.extends(po)

    def test_buckets_ties_are_incomparable(self):
        order = PartialOrder.from_buckets(3, [[0, 1], [2]])
        assert order.incomparable_to(0) == 0b010
        assert order.lt(0, 2) and order.lt(1, 2)

    def test_from_buckets_rejects_bad_elements(self):
        for bad in (3, -1):
            with pytest.raises(InputError, match=f"^bucket element {bad} outside universe$"):
                PartialOrder.from_buckets(3, [[0], [bad]])
        for repeating in ([[0, 1], [2, 1]], [[0, 0], [1]]):
            with pytest.raises(InputError, match="^bucket chain repeats an element$"):
                PartialOrder.from_buckets(3, repeating)

    def test_profile_requires_votes(self):
        cs = CandidateSet(("A", "B"))
        with pytest.raises(InputError):
            Profile(cs, ())
        with pytest.raises(InputError):
            Profile(cs, ((PartialOrder.antichain(2), 0),))

    def test_cost_instance_validation(self):
        base = PartialOrder.antichain(2)
        with pytest.raises(InputError):
            CostInstance(2, ((1, 0), (0, 0)), base)  # nonzero diagonal
        with pytest.raises(InputError):
            CostInstance(2, ((0, -1), (0, 0)), base)
        inst = CostInstance(2, ((0, 2), (3, 0)), base)
        assert inst.is_positive
        zero = CostInstance(2, ((0, 0), (3, 0)), base)
        assert not zero.is_positive


def random_buckets(n, rng):
    """A random bucket chain over 0..n-1 that leaves some elements out."""
    mentioned = [x for x in range(n) if rng.random() < 0.8]
    rng.shuffle(mentioned)
    buckets = []
    while mentioned:
        size = rng.randint(1, len(mentioned))
        buckets.append(mentioned[:size])
        mentioned = mentioned[size:]
    return buckets


def random_vote(n, rng):
    """A bucket, pair or linear vote, as the vote-file grammar allows."""
    kind = rng.randrange(3)
    if kind == 0:
        return PartialOrder.from_buckets(n, random_buckets(n, rng))
    if kind == 1:
        return random_partial_order(n, rng, rng.random())
    perm = list(range(n))
    rng.shuffle(perm)
    return LinearOrder(tuple(perm)).as_partial_order()


def random_mixed_profile(rng):
    """A profile of mixed votes with multiplicities, and with some votes
    repeated as separate entries."""
    n = rng.randint(1, 9)
    pool = [random_vote(n, rng) for _ in range(rng.randint(1, 5))]
    votes = tuple(
        (rng.choice(pool), rng.randint(1, 4)) for _ in range(rng.randint(1, 8))
    )
    return Profile(CandidateSet(candidate_labels(n)), votes)


def assert_matches_checked(order):
    """An order built without the check passes the checked construction
    from the same rows."""
    assert order == PartialOrder(order.n, order.rows)


class TestBuiltValid:
    def test_bucket_chains(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 12)
            assert_matches_checked(PartialOrder.from_buckets(n, random_buckets(n, rng)))

    def test_permutations_and_antichains(self):
        rng = random.Random(12)
        for n in range(1, 13):
            assert_matches_checked(PartialOrder.antichain(n))
            for _ in range(20):
                perm = list(range(n))
                rng.shuffle(perm)
                assert_matches_checked(LinearOrder(tuple(perm)).as_partial_order())

    def test_unanimity_orders(self):
        rng = random.Random(13)
        for _ in range(200):
            assert_matches_checked(unanimity_order(random_mixed_profile(rng)))


def built_orders(n, rng):
    """An order over n elements from each builder: the checked constructor,
    ``from_pairs``, ``antichain``, ``from_buckets``,
    ``LinearOrder.as_partial_order``, both branches of the vote-line parser
    and, within the candidate cap, ``unanimity_order``."""
    perm = list(range(n))
    rng.shuffle(perm)
    buckets = random_buckets(n, rng) or [[0]]
    drawn = random_partial_order(n, rng, rng.random())
    orders = [
        PartialOrder(n, drawn.rows),
        drawn,
        PartialOrder.antichain(n),
        PartialOrder.from_buckets(n, buckets),
        LinearOrder(tuple(perm)).as_partial_order(),
    ]
    names = candidate_labels(n)
    lines = [
        "<".join(names[x] for x in perm),
        "<".join("=".join(names[x] for x in bucket) for bucket in buckets),
    ]
    text = f"candidates: {','.join(names)}\n" + "".join(line + "\n" for line in lines)
    profile = parse_votes(text)
    orders += [vote for vote, _ in profile.votes]
    if n <= MAX_CANDIDATES:
        orders.append(unanimity_order(Profile(profile.candidates, profile.votes + ((drawn, 1),))))
    return orders


class TestColumns:
    def test_columns_transpose_the_rows(self):
        # bit x of _cols[y] iff bit y of rows[x], past the 64-candidate cap
        # too: an order itself has no cap
        rng = random.Random(31)
        for n in range(1, 71):
            for order in built_orders(n, rng):
                rows = order.rows
                assert order._cols == tuple(
                    sum(1 << x for x in range(n) if rows[x] >> y & 1) for y in range(n)
                )


class TestExtends:
    def test_matches_positions(self):
        # a ranking extends an order iff it places x before y for every
        # x < y of the order
        rng = random.Random(32)
        extensions = 0
        for _ in range(400):
            n = rng.randint(1, 9)
            order = random_partial_order(n, rng, rng.random())
            perm = list(range(n))
            rng.shuffle(perm)
            pos = {x: i for i, x in enumerate(perm)}
            expected = all(
                pos[x] < pos[y] for x in range(n) for y in range(n) if order.lt(x, y)
            )
            assert LinearOrder(tuple(perm)).extends(order) == expected
            extensions += expected
        assert 0 < extensions < 150

    def test_size_mismatch_rejected(self):
        with pytest.raises(InputError, match="^orders over different universes$"):
            linear(0, 1).extends(chain(3))


class TestKtDistance:
    def test_identical_orders_disagree_nowhere(self):
        pi = linear(0, 1, 2, 3, 4)
        assert kt_distance(pi, pi) == 0

    def test_adjacent_swap_is_one(self):
        a = linear(0, 1, 2, 3, 4)  # A<B<C<D<E
        b = linear(0, 1, 3, 2, 4)  # A<B<D<C<E
        assert kt_distance(a, b) == 1

    def test_full_reversal_flips_every_pair(self):
        assert kt_distance(linear(0, 1, 2, 3), linear(3, 2, 1, 0)) == 6

    def test_weak_order_against_linear(self):
        # A=B<D<C=E versus A<B<C<D<E: only the (C, D) pair disagrees.
        weak = PartialOrder.from_buckets(5, [[0, 1], [3], [2, 4]])
        assert kt_distance(weak, linear(0, 1, 2, 3, 4)) == 1
        assert kt_distance(linear(0, 1, 2, 3, 4), weak) == 1

    def test_size_mismatch_rejected(self):
        with pytest.raises(InputError):
            kt_distance(linear(0, 1), linear(0, 1, 2))

    def test_symmetry_and_bound_on_random_pairs(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(2, 8)
            a = random_partial_order(n, rng, rng.random())
            b = random_partial_order(n, rng, rng.random())
            d = kt_distance(a, b)
            assert d == kt_distance(b, a)
            assert 0 <= d <= n * (n - 1) // 2

    def test_matches_merge_sort_inversion_count_for_linear_orders(self):
        rng = random.Random(4)
        for _ in range(60):
            n = rng.randint(1, 9)
            perm_a = list(range(n))
            perm_b = list(range(n))
            rng.shuffle(perm_a)
            rng.shuffle(perm_b)
            a, b = LinearOrder(tuple(perm_a)), LinearOrder(tuple(perm_b))
            # positions of b's elements in a-order, inversions of that word
            word = [perm_a.index(x) for x in perm_b]
            _, inv = merge_sort_inversions(word)
            assert kt_distance(a, b) == inv


class TestKemenyScore:
    def test_five_type_worked_election(self):
        profile = five_type_profile()
        assert profile.m == 90  # the published table's multiplicities sum to 90
        assert kemeny_score(profile, linear(0, 1, 2, 3, 4)) == 10

    def test_fifty_fifty_election(self):
        profile = fifty_fifty_profile()
        assert kemeny_score(profile, linear(0, 1, 2, 3, 4)) == 50
        assert kemeny_score(profile, linear(0, 1, 3, 2, 4)) == 50

    def test_single_vote_equal_to_ranking(self):
        ranking = linear(2, 0, 1)
        profile = Profile(
            CandidateSet(("A", "B", "C")),
            ((ranking.as_partial_order(), 1),),
        )
        assert kemeny_score(profile, ranking) == 0

    def test_sweep_matches_naive_pair_count(self):
        # Bucket, pair and linear votes with multiplicities 1-4, scored
        # against random rankings, mostly not extensions of the base.
        rng = random.Random(15)
        for _ in range(200):
            profile = random_mixed_profile(rng)
            n = profile.n
            perm = list(range(n))
            rng.shuffle(perm)
            ranking = LinearOrder(tuple(perm))
            pos = {x: i for i, x in enumerate(perm)}
            naive = 0
            for vote, mult in profile.votes:
                opposed = sum(
                    1 for x in range(n) for y in range(n) if vote.lt(x, y) and pos[y] < pos[x]
                )
                assert kt_distance(ranking, vote) == kt_distance(vote, ranking) == opposed
                naive += mult * opposed
            assert kemeny_score(profile, ranking) == naive
            a, b = rng.choice(profile.votes)[0], rng.choice(profile.votes)[0]
            assert kt_distance(a, b) == sum(
                1 for x in range(n) for y in range(n) if a.lt(x, y) and b.lt(y, x)
            )


class TestDiversity:
    def test_singleton_is_zero(self):
        assert diversity([linear(0, 1, 2)]) == 0

    def test_adjacent_swap_pair(self):
        assert diversity([linear(0, 1, 2, 3, 4), linear(0, 1, 3, 2, 4)]) == 1

    def test_reversal_pair_full_distance(self):
        assert diversity([linear(0, 1, 2, 3), linear(3, 2, 1, 0)]) == 6

    def test_duplicates_rejected(self):
        with pytest.raises(InputError):
            diversity([linear(0, 1), linear(0, 1)])


class TestUnanimity:
    def test_identical_votes(self):
        vote = PartialOrder.from_buckets(3, [[0], [1, 2]])
        profile = Profile(CandidateSet(("A", "B", "C")), ((vote, 3),))
        assert unanimity_order(profile).rows == vote.rows

    def test_opposed_votes_give_antichain(self):
        a = chain(3)
        b = linear(2, 1, 0).as_partial_order()
        profile = Profile(CandidateSet(("A", "B", "C")), ((a, 1), (b, 1)))
        assert unanimity_order(profile).rows == PartialOrder.antichain(3).rows

    def test_five_type_unanimity_pairs(self):
        strict = sorted(unanimity_order(five_type_profile()).strict_pairs())
        assert strict == [(0, 4), (1, 4)]  # exactly A<E and B<E

    def test_contained_in_every_vote_and_maximal(self):
        rng = random.Random(5)
        for _ in range(40):
            profile = random_profile(rng.randint(2, 6), rng.randint(1, 4), rng)
            una = unanimity_order(profile)
            for vote, _ in profile.votes:
                assert all(vote.lt(x, y) for x, y in una.strict_pairs())
            # adding any missing strict pair breaks containment in some vote
            for x in range(una.n):
                for y in range(una.n):
                    if x != y and not una.leq(x, y):
                        assert any(
                            not vote.leq(x, y) for vote, _ in profile.votes
                        )


class TestReduction:
    def test_five_type_costs(self):
        inst = reduce_to_co(five_type_profile())
        # type II (10 voters) orders D before C; type III (10) orders C before D
        assert inst.cost[2][3] == 10
        assert inst.cost[3][2] == 10
        assert inst.base.rows == unanimity_order(five_type_profile()).rows

    def test_fifty_fifty_costs(self):
        inst = reduce_to_co(fifty_fifty_profile())
        assert inst.cost[2][3] == 50 and inst.cost[3][2] == 50

    def test_identical_linear_votes(self):
        vote = linear(1, 0, 2)
        profile = Profile(
            CandidateSet(("A", "B", "C")), ((vote.as_partial_order(), 7),)
        )
        inst = reduce_to_co(profile)
        for x in range(3):
            for y in range(3):
                if x == y:
                    continue
                expected = 0 if vote.perm.index(x) < vote.perm.index(y) else 7
                assert inst.cost[x][y] == expected

    def test_matches_naive_pair_count(self):
        rng = random.Random(14)
        for _ in range(200):
            profile = random_mixed_profile(rng)
            n = profile.n
            naive = [[0] * n for _ in range(n)]
            for vote, mult in profile.votes:
                for x in range(n):
                    for y in range(n):
                        if x != y and vote.leq(x, y):
                            naive[y][x] += mult
            assert reduce_to_co(profile).cost == tuple(map(tuple, naive))

    def test_positive_iff_linear_votes_here(self):
        assert reduce_to_co(fifty_fifty_profile()).is_positive
        assert not reduce_to_co(five_type_profile()).is_positive

    def test_score_identity_on_random_profiles(self):
        # charged completion cost equals the Kemeny score for every extension
        rng = random.Random(6)
        for _ in range(30):
            profile = random_profile(rng.randint(2, 6), rng.randint(1, 4), rng)
            inst = reduce_to_co(profile)
            for ext in enumerate_extensions(inst.base):
                assert inst.extension_cost(ext) == kemeny_score(profile, ext)

    def test_extension_cost_rejects_non_extension(self):
        inst = reduce_to_co(fifty_fifty_profile())
        with pytest.raises(InputError):
            inst.extension_cost(linear(4, 3, 2, 1, 0))


def naive_counts(profile):
    """cost[y][x]: the voters with x at most y (x != y), the rule of
    ``test_matches_naive_pair_count``; and the unanimity rows."""
    n = profile.n
    cost = [[0] * n for _ in range(n)]
    rows = [0] * n
    for x in range(n):
        for y in range(n):
            if all(vote.leq(x, y) for vote, _ in profile.votes):
                rows[x] |= 1 << y
            if x != y:
                cost[y][x] = sum(mult for vote, mult in profile.votes if vote.leq(x, y))
    return tuple(map(tuple, cost)), tuple(rows)


def naive_score(profile, ranking):
    pos = {x: i for i, x in enumerate(ranking.perm)}
    n = profile.n
    return sum(
        mult
        for vote, mult in profile.votes
        for x in range(n)
        for y in range(n)
        if vote.lt(x, y) and pos[y] < pos[x]
    )


def layered_profile(n, m, rng, mults=(1,)):
    """m votes over a random chain of blocks of 0..n-1 that all respect it
    (linear orders shuffled inside the blocks, and the blocks as a weak
    order), so the unanimity order has comparable and incomparable pairs;
    about one vote in ten is an unrelated random vote."""
    elements = list(range(n))
    rng.shuffle(elements)
    cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 8))))
    blocks = [elements[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    votes = []
    for _ in range(m):
        kind = rng.random()
        if kind < 0.1:
            vote = random_vote(n, rng)
        elif kind < 0.3:
            vote = PartialOrder.from_buckets(n, blocks)
        else:
            perm = []
            for block in blocks:
                perm += rng.sample(block, len(block))
            vote = LinearOrder(tuple(perm)).as_partial_order()
        votes.append((vote, rng.choice(mults)))
    return Profile(CandidateSet(candidate_labels(n)), tuple(votes))


def assert_packed_matches_naive(profile, rng):
    cost, rows = naive_counts(profile)
    inst = reduce_to_co(profile)
    assert inst.cost == cost
    base = unanimity_order(profile)
    assert base.rows == rows == inst.base.rows
    assert_matches_checked(base)
    n = profile.n
    perm = list(range(n))
    rng.shuffle(perm)
    extension = next(iter(enumerate_extensions(base))) if n <= 8 else None
    for ranking in (LinearOrder(tuple(perm)), extension):
        if ranking is not None:
            assert kemeny_score(profile, ranking) == naive_score(profile, ranking)


class TestPackedWords:
    # Each vote's rows packed in 64-bit lanes, against the per-cell counts.

    @pytest.mark.parametrize("n", [1, 2, 63, 64])
    def test_lane_edges(self, n):
        # at n = 64 every row x with x at most 63 sets its lane's top bit
        rng = random.Random(n)
        for _ in range(3):
            profile = layered_profile(n, rng.randint(1, 6), rng, mults=(1, 2, 5))
            assert_packed_matches_naive(profile, rng)

    def test_top_lane_bit_set_by_a_single_vote(self):
        n = 64
        vote = LinearOrder(tuple(range(n))).as_partial_order()
        profile = Profile(CandidateSet(candidate_labels(n)), ((vote, 3),))
        inst = reduce_to_co(profile)
        assert inst.cost[63][0] == 3 and inst.cost[0][63] == 0
        assert unanimity_order(profile).rows == vote.rows
        assert kemeny_score(profile, LinearOrder(tuple(reversed(range(n))))) == 3 * 63 * 32

    def test_multiplicities_carrying_through_many_planes(self):
        rng = random.Random(16)
        mults = (1, 2**33 - 1, 2**40 + 1, 3, 2**47)
        for n in (3, 9, 64):
            for _ in range(4):
                profile = layered_profile(n, rng.randint(2, 7), rng, mults)
                assert_packed_matches_naive(profile, rng)

    def test_profiles_of_hundreds_of_votes(self):
        rng = random.Random(17)
        for m in (200, 350, 500):
            profile = layered_profile(rng.randint(6, 10), m, rng, mults=(1, 1, 1, 2, 7))
            assert_packed_matches_naive(profile, rng)

    def test_more_than_64_candidates_rejected_where_packed(self):
        n = 65
        vote = LinearOrder(tuple(range(n))).as_partial_order()
        profile = Profile(CandidateSet(candidate_labels(n)), ((vote, 1),))
        with pytest.raises(InputError, match="at most 64 candidates supported"):
            reduce_to_co(profile)
        with pytest.raises(InputError, match="at most 64 candidates supported"):
            unanimity_order(profile)
        with pytest.raises(InputError, match="at most 64 candidates supported"):
            kemeny_score(profile, LinearOrder(tuple(range(n))))

    def test_passed_deadline_aborts_packing_and_adding(self):
        past = time.monotonic() - 1.0
        profile = five_type_profile()
        with pytest.raises(CapabilityError):
            unanimity_order(profile, past)
        with pytest.raises(CapabilityError):
            reduce_to_co(profile, past)
        # once the words are packed, adding them into the planes checks it
        unanimity_order(profile)
        with pytest.raises(CapabilityError):
            reduce_to_co(profile, past)


class TestCostInstanceCells:
    def test_charge_and_is_positive_per_cell(self):
        rng = random.Random(18)
        positives = 0
        for _ in range(300):
            n = rng.randint(1, 9)
            base = random_partial_order(n, rng, rng.random())
            zero_share = rng.choice([0.0, 0.05, 0.3])
            cost = tuple(
                tuple(
                    0 if x == y or rng.random() < zero_share else rng.randint(1, 9)
                    for y in range(n)
                )
                for x in range(n)
            )
            inst = CostInstance(n, cost, base)
            assert inst.cost == tuple(
                tuple(0 if base.leq(x, y) else cost[x][y] for y in range(n))
                for x in range(n)
            )
            positive = all(
                cost[x][y] > 0
                for x in range(n)
                for y in range(n)
                if base.incomparable_to(x) >> y & 1
            )
            assert inst.is_positive == positive
            positives += positive
        assert 0 < positives < 300
