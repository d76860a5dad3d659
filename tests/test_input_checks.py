"""The public input checks: each documented precondition raises InputError
with its message, and a few degenerate inputs are answered rather than
refused."""

import io
import pathlib

import pytest

from kemeny.cli import run
from kemeny.errors import InputError
from kemeny.instances import five_type_profile, generate_profile
from kemeny.oracle import oracle_diverse
from kemeny.orders import (
    CandidateSet,
    CostInstance,
    LinearOrder,
    PartialOrder,
    Profile,
    kemeny_score,
    reduce_to_co,
)
from kemeny.solver_diverse import DiverseQuery
from kemeny.width import ConsistentPathDecomposition, PathDecomposition

TWO = CandidateSet(("A", "B"))
FIVE = reduce_to_co(five_type_profile())

REFUSED = [
    (lambda: CandidateSet(()), "candidate set is empty"),
    (lambda: PartialOrder(0, ()), "order needs at least one element"),
    (lambda: PartialOrder(2, (0b01,)), "rows size does not match n"),
    (lambda: PartialOrder(2, (0b101, 0b10)), "relation mentions elements outside 0..n-1"),
    (lambda: PartialOrder.from_pairs(2, [(0, 2)]), "pair (0,2) outside universe of size 2"),
    (lambda: LinearOrder((0, 0)), "perm is not a permutation of 0..n-1"),
    (lambda: Profile(TWO, ((PartialOrder.antichain(3), 1),)),
     "vote over a different candidate set"),
    (lambda: Profile(TWO, ((PartialOrder.antichain(2), 2**63),)),
     "profile too large: worst-case score exceeds 64 bits"),
    (lambda: CostInstance(65, (), PartialOrder.antichain(1)), "at most 64 candidates supported"),
    (lambda: CostInstance(2, ((0, 0), (0, 0)), PartialOrder.antichain(3)),
     "cost matrix / base order size mismatch"),
    (lambda: CostInstance(2, ((0, 0), (0,)), PartialOrder.antichain(2)),
     "cost matrix is not square"),
    (lambda: FIVE.extension_cost(LinearOrder((1, 0))), "extension over a different universe"),
    (lambda: kemeny_score(five_type_profile(), LinearOrder((1, 0))),
     "ranking over a different candidate set"),
    (lambda: PathDecomposition(2, ()), "decomposition needs at least one bag"),
    (lambda: DiverseQuery(r=0), "need at least one solution"),
    (lambda: DiverseQuery(r=1, mode="x"), "unknown mode 'x'"),
    (lambda: generate_profile(PartialOrder.antichain(2), 0, 0, 1), "need at least one vote"),
    (lambda: generate_profile(PartialOrder.antichain(2), 1, -1, 1), "noise must be non-negative"),
    (lambda: oracle_diverse(FIVE, 0, 0, 0, 0), "need at least one solution"),
]


def test_each_refused_input_raises_its_message():
    for call, message in REFUSED:
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == message


def test_optima_refuses_zero_rankings():
    votes = pathlib.Path(__file__).parent / "data" / "five_type.votes"
    out, err = io.StringIO(), io.StringIO()
    assert run(["optima", str(votes), "--r", "0"], out, err) == 2
    assert (out.getvalue(), err.getvalue()) == ("", "error: need at least one solution\n")


def test_degenerate_inputs_are_answered():
    assert PathDecomposition(2, (0b11,)).validate(PartialOrder.antichain(3)) == [
        "decomposition over 2 vertices, order has 3"
    ]
    # introducing both vertices in one step is valid but not nice
    dec = PathDecomposition(2, (0, 0b11, 0))
    assert ConsistentPathDecomposition(dec, PartialOrder.antichain(2)).validate() == [
        "decomposition is not nice"
    ]
    # one candidate has no adjacent pair to swap, so noise changes nothing
    sample = generate_profile(PartialOrder.antichain(1), 2, 3, 1)
    assert sample.profile.votes == ((PartialOrder.antichain(1), 1),) * 2
    assert sample.votes_extend_base == (True, True)
