"""Vote-file grammar, result documents, subcommands, and exit codes."""

import dataclasses
import importlib.util
import io
import json
import pathlib
import random
import re
import sys
import time

import pytest

from kemeny.cli import parse_votes, run, serialize_profile, serialize_vote
from kemeny.errors import CapabilityError, InputError
from kemeny.instances import (
    candidate_labels,
    fifty_fifty_profile,
    five_type_profile,
    random_partial_order,
    random_profile,
)
from kemeny.orders import (
    CandidateSet,
    LinearOrder,
    PartialOrder,
    Profile,
    diversity,
    kemeny_score,
    reduce_to_co,
)

DATA = pathlib.Path(__file__).parent / "data"
FIVE = str(DATA / "five_type.votes")
FIFTY = str(DATA / "fifty_fifty.votes")


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


class TestParsing:
    def test_single_pair_vote(self):
        profile = parse_votes("candidates: A,B\nA<B\n")
        assert profile.m == 1
        vote, mult = profile.votes[0]
        assert mult == 1 and vote.lt(0, 1)

    def test_bucket_vote_groups_and_orders(self):
        profile = parse_votes("candidates: A,B,C\nA=B<C\n")
        vote, _ = profile.votes[0]
        assert vote.incomparable_to(0) == 0b010 and vote.lt(0, 2) and vote.lt(1, 2)

    def test_pairs_syntax_with_closure(self):
        profile = parse_votes("candidates: A,B,C\npairs: A<B, B<C\n")
        vote, _ = profile.votes[0]
        assert vote.lt(0, 2)

    def test_five_type_file(self):
        profile = parse_votes(pathlib.Path(FIVE).read_text())
        assert profile.m == 90  # the table's multiplicities sum to 90
        assert profile.votes == five_type_profile().votes

    def test_cycle_rejected_with_line_number(self):
        with pytest.raises(InputError, match="line 2"):
            parse_votes("candidates: A,B\npairs: A<B, B<A\n")

    def test_unknown_label_rejected(self):
        with pytest.raises(InputError, match="line 2"):
            parse_votes("candidates: A,B\nA<Z\n")

    def test_empty_profile_rejected(self):
        with pytest.raises(InputError):
            parse_votes("candidates: A,B\n")
        with pytest.raises(InputError):
            parse_votes("")

    def test_missing_header_rejected(self):
        with pytest.raises(InputError, match="candidates"):
            parse_votes("A<B\n")

    def test_duplicate_label_reports_its_line(self):
        with pytest.raises(InputError, match="^line 2: candidate labels must be unique$"):
            parse_votes("# header next\ncandidates: A,A\nA\n")

    @pytest.mark.parametrize("label", ["Ann Lee", "A<B", "A=B", "A\tB", "pairs:x"])
    def test_label_the_formats_cannot_express_rejected(self, label):
        # votes split on '<' and '=', decomposition dumps on whitespace, and
        # a vote line that starts with 'pairs:' is a pair list
        if label.startswith("pairs:"):
            reason = "starts with 'pairs:'"
        else:
            reason = "contains whitespace, '<' or '='"
        message = f"line 2: candidate label {label!r} {reason}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            parse_votes(f"# header next\ncandidates: {label},C\nC\n")

    def test_repeated_candidate_in_vote_rejected(self):
        with pytest.raises(InputError, match="line 2"):
            parse_votes("candidates: A,B\nA=A<B\n")

    def test_unmentioned_candidates_stay_incomparable(self):
        # a bucket line that leaves out C is the pair vote over A and B alone
        buckets = parse_votes("candidates: A,B,C\nA<B\n")
        pairs = parse_votes("candidates: A,B,C\npairs: A<B\n")
        assert buckets.votes == pairs.votes
        vote, _ = buckets.votes[0]
        assert vote.incomparable_to(2) == 0b011
        assert serialize_profile(buckets) == "candidates: A,B,C\npairs: A<B\n"

    def test_self_pair_rejected_as_a_cycle(self, tmp_path):
        votes = tmp_path / "self.votes"
        votes.write_text("candidates: A,B\nA<B\npairs: A<A\n")
        assert invoke(["solve", str(votes)]) == (
            2, "", "error: line 3: pair set closes to a cycle\n"
        )

    def test_random_bucket_lines_match_checked_orders(self):
        # '=' ties, spaces around names, unmentioned candidates and
        # multiplicities; each parsed order equals the bucket chain it spells
        # and passes the checked constructor over its rows.
        rng = random.Random(23)
        names = "ABCDEFGHIJKL"
        for _ in range(300):
            n = rng.randint(1, len(names))
            mentioned = [x for x in range(n) if rng.random() < 0.8] or [0]
            rng.shuffle(mentioned)
            buckets = []
            while mentioned:
                size = rng.randint(1, len(mentioned)) if rng.random() < 0.5 else 1
                buckets.append(mentioned[:size])
                mentioned = mentioned[size:]
            line = "<".join(
                "=".join(
                    " " * rng.randint(0, 2) + names[x] + " " * rng.randint(0, 2)
                    for x in bucket
                )
                for bucket in buckets
            )
            mult = rng.randint(1, 4)
            if mult > 1:
                line = f"{mult} x {line}"
            profile = parse_votes(f"candidates: {','.join(names[:n])}\n{line}\n")
            (vote, parsed_mult), = profile.votes
            assert parsed_mult == mult
            assert vote == PartialOrder.from_buckets(n, buckets)
            assert vote == PartialOrder(n, vote.rows)

    @pytest.mark.parametrize("line, message", [
        ("A<A<Z", "candidate 'A' repeated in vote"),
        ("Z<A<A", "unknown candidate 'Z'"),
        ("A=<B", "unknown candidate ''"),
        ("A<B=A", "candidate 'A' repeated in vote"),
    ])
    def test_first_fault_in_reading_order(self, line, message):
        with pytest.raises(InputError, match=f"^line 2: {re.escape(message)}$"):
            parse_votes(f"candidates: A,B\n{line}\n")

    def test_random_faulty_bucket_lines_fail_at_their_first_fault(self):
        # one or two unknown or repeated names injected at random positions
        # of a chain or '=' line, with spaces around names; the message is
        # the first fault a naive scan meets in reading order. A faulty
        # chain fails the one-pass check and is read name by name instead.
        rng = random.Random(26)
        names = "ABCDEFGHIJKL"
        for _ in range(400):
            n = rng.randint(1, len(names))
            tokens = [names[x] for x in rng.sample(range(n), rng.randint(1, n))]
            for _ in range(rng.randint(1, 2)):
                bad = rng.choice(["Z", "a", names[n:] or "AB"]) if rng.random() < 0.5 else rng.choice(tokens)
                tokens.insert(rng.randint(0, len(tokens)), bad)
            chain = rng.random() < 0.5
            line = ""
            for i, token in enumerate(tokens):
                if i:
                    line += "<" if chain else rng.choice("<=")
                line += " " * rng.randint(0, 2) + token + " " * rng.randint(0, 2)
            seen = set()
            for name in re.split("[<=]", line):
                name = name.strip()
                if name not in set(names[:n]):
                    message = f"unknown candidate {name!r}"
                    break
                if name in seen:
                    message = f"candidate {name!r} repeated in vote"
                    break
                seen.add(name)
            else:
                raise AssertionError(f"no fault in {line!r}")
            with pytest.raises(InputError, match=f"^line 2: {re.escape(message)}$"):
                parse_votes(f"candidates: {','.join(names[:n])}\n{line}\n")

    def test_chained_pair_shorthand(self):
        profile = parse_votes("candidates: A,B,C\npairs: A<B<C\n")
        vote, _ = profile.votes[0]
        assert vote.lt(0, 1) and vote.lt(1, 2) and vote.lt(0, 2)


class TestRoundTrip:
    def test_fixture_files_round_trip(self):
        for profile in (five_type_profile(), fifty_fifty_profile()):
            text = serialize_profile(profile)
            again = parse_votes(text)
            assert again.votes == profile.votes
            assert serialize_profile(again) == text

    def test_all_tied_vote_round_trips(self):
        # an antichain vote is the one-bucket weak order
        text = "candidates: A,B,C\nA=B=C\n"
        profile = parse_votes(text)
        assert list(profile.votes[0][0].strict_pairs()) == []
        assert serialize_profile(profile) == text

    def test_bucket_line_exactly_for_weak_orders(self):
        # A vote is written as a bucket line iff "incomparable or equal" is
        # transitive on it, checked over all triples; either line reads back
        # as the same vote.
        rng = random.Random(72)
        kinds = {True: 0, False: 0}
        for _ in range(400):
            n = rng.randint(1, 7)
            perm = list(range(n))
            rng.shuffle(perm)
            kind = rng.randrange(5)
            if kind < 2:  # bucket chains, the second kind leaving some out
                mentioned = [x for x in perm if kind == 0 or rng.random() < 0.7]
                cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
                buckets = [mentioned[a:b] for a, b in zip([0] + cuts, cuts + [n])]
                order = PartialOrder.from_buckets(n, [b for b in buckets if b])
            elif kind == 2:
                order = random_partial_order(n, rng, rng.random())
            elif kind == 3:
                order = LinearOrder(tuple(perm)).as_partial_order()
            else:
                order = PartialOrder.antichain(n)
            tied = [
                [x == y or not (order.leq(x, y) or order.leq(y, x)) for y in range(n)]
                for x in range(n)
            ]
            weak = all(
                tied[x][z]
                for x in range(n) for y in range(n) for z in range(n)
                if tied[x][y] and tied[y][z]
            )
            names = candidate_labels(n)
            line = serialize_vote(order, names)
            assert (not line.startswith("pairs:")) == weak
            kinds[weak] += 1
            (vote, _), = parse_votes(f"candidates: {','.join(names)}\n{line}\n").votes
            assert vote == order
        assert min(kinds.values()) > 50

    @pytest.mark.parametrize(
        "label", ["A#x", "A,x", "A x", "A\tx", "A<x", "A=x", "pairs:x"]
    )
    def test_label_a_vote_file_cannot_hold_is_not_written(self, label):
        # '#' would start a comment and ',' split the header, so the text
        # would read back as another profile or fail only on reading
        profile = Profile(CandidateSet((label, "B")), ((PartialOrder.antichain(2), 1),))
        message = f"candidate label {label!r} cannot be written to a vote file"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            serialize_profile(profile)

    def test_labels_near_the_forbidden_ones_round_trip(self):
        profile = Profile(
            CandidateSet(("xpairs:", "pairs", "A:B", "A-B")),
            ((PartialOrder.from_pairs(4, [(0, 1), (2, 3)]), 2),),
        )
        text = serialize_profile(profile)
        assert text == "candidates: xpairs:,pairs,A:B,A-B\n2 x pairs: xpairs:<pairs, A:B<A-B\n"
        assert parse_votes(text) == profile

    def test_random_profiles_round_trip(self):
        rng = random.Random(71)
        for _ in range(25):
            profile = random_profile(rng.randint(2, 6), rng.randint(1, 4), rng)
            text = serialize_profile(profile)
            assert parse_votes(text).votes == profile.votes


FIFTY_HEAD = "n: 5\nm: 100\n"
ORACLE_GOLDENS = [
    (["oracle", FIVE, "--task", "optimum"], 0, (
        "result: oracle-optimum\n"
        "n: 5\n"
        "m: 90\n"
        "optimum: 10\n"
        "minimizers: 2\n"
        "witness-1: A<B<C<D<E\n"
        "witness-2: A<B<D<C<E\n"
    )),
    (["oracle", FIFTY, "--task", "optimum"], 0, "result: oracle-optimum\n" + FIFTY_HEAD + (
        "optimum: 50\n"
        "minimizers: 2\n"
        "witness-1: A<B<C<D<E\n"
        "witness-2: A<B<D<C<E\n"
    )),
    (["oracle", FIFTY, "--task", "count"], 0, "result: oracle-count\n" + FIFTY_HEAD + (
        "extensions: 2\n"
    )),
    (["oracle", FIFTY, "--task", "extensions"], 0, "result: oracle-extensions\n" + FIFTY_HEAD + (
        "extensions: 2\n"
        "extension-1: A<B<C<D<E\n"
        "extension-2: A<B<D<C<E\n"
    )),
    (["oracle", FIFTY, "--task", "diverse", "--r", "2", "--d", "1"], 0,
     "result: oracle-diverse\n" + FIFTY_HEAD + (
        "optimum: 50\n"
        "decision: yes\n"
        "diversity: 1\n"
        "witness-1: A<B<C<D<E\n"
        "witness-2: A<B<D<C<E\n"
     )),
    (["oracle", FIFTY, "--task", "diverse", "--r", "3"], 1,
     "result: oracle-diverse\n" + FIFTY_HEAD + (
        "optimum: 50\n"
        "decision: no\n"
     )),
    # maximizing allows repeats, and the oracle prints all r rankings
    (["oracle", FIFTY, "--task", "diverse", "--r", "3", "--max"], 0,
     "result: oracle-diverse\n" + FIFTY_HEAD + (
        "optimum: 50\n"
        "decision: yes\n"
        "diversity: 2\n"
        "witness-1: A<B<C<D<E\n"
        "witness-2: A<B<C<D<E\n"
        "witness-3: A<B<D<C<E\n"
     )),
    # the two optima are at distance 1, so no pair reaches s = 3
    (["oracle", FIFTY, "--task", "diverse", "--r", "2", "--s", "3", "--max"], 1,
     "result: oracle-diverse\n" + FIFTY_HEAD + (
        "optimum: 50\n"
        "decision: no\n"
     )),
]


class TestSubcommands:
    def test_solve_five_type_golden(self):
        code, out, err = invoke(["solve", FIVE])
        assert code == 0 and err == ""
        assert out == (
            "result: solve\n"
            "n: 5\n"
            "m: 90\n"
            "unanimity-width: 3\n"
            "decision: yes\n"
            "optimum: 10\n"
            "witness-1: A<B<C<D<E\n"
            "score-1: 10\n"
        )

    def test_diverse_yes_and_no(self):
        code, out, _ = invoke(
            ["diverse", FIFTY, "--r", "2", "--delta", "0", "--d", "1", "--s", "1"]
        )
        assert code == 0
        assert out == (
            "result: diverse\n"
            "n: 5\n"
            "m: 100\n"
            "unanimity-width: 1\n"
            "r: 2\n"
            "delta: 0\n"
            "d: 1\n"
            "s: 1\n"
            "optimum: 50\n"
            "decision: yes\n"
            "diversity: 1\n"
            "witness-1: A<B<C<D<E\n"
            "score-1: 50\n"
            "witness-2: A<B<D<C<E\n"
            "score-2: 50\n"
            "distance-1-2: 1\n"
        )
        code, out, _ = invoke(
            ["diverse", FIFTY, "--r", "3", "--delta", "0", "--d", "1", "--s", "1"]
        )
        assert code == 1
        assert out == (
            "result: diverse\n"
            "n: 5\n"
            "m: 100\n"
            "unanimity-width: 1\n"
            "r: 3\n"
            "delta: 0\n"
            "d: 1\n"
            "s: 1\n"
            "optimum: 50\n"
            "decision: no\n"
            "failed-constraint: scatteredness\n"
            "detail: best achievable minimum pairwise distance within the cost "
            "window is 0, required 1\n"
        )

    @staticmethod
    def _wide_votes(tmp_path):
        votes = str(tmp_path / "wide.votes")
        invoke(["gen", "buckets", "--sizes", "5,5,5", "--m", "20", "--noise", "1",
                "--seed", "1", "--out", votes])
        return votes

    def test_diverse_timeout_aborts_promptly(self, tmp_path):
        # a cost window of delta 8 keeps the lockstep busy for over 10 s
        votes = self._wide_votes(tmp_path)
        start = time.monotonic()
        code, _, err = invoke(
            ["diverse", votes, "--r", "3", "--delta", "8", "--d", "3",
             "--timeout", "0.2"]
        )
        assert code == 3 and "timeout" in err
        assert time.monotonic() - start < 1.5

    def test_diverse_timeout_overshoot_is_one_successor(self):
        # 16 solutions over C and D: one lockstep state has 2^16 successors,
        # so the deadline is checked between successors, not between states
        start = time.monotonic()
        code, _, err = invoke(["diverse", FIFTY, "--r", "16", "--timeout", "0.5"])
        assert code == 3 and "timeout" in err
        assert time.monotonic() - start < 2

    def test_diverse_wide_window_case_answers(self, tmp_path):
        # 295 240 initial combinations at delta 2 without the exact cost
        # window; with it, only tails that can still finish take part
        votes = self._wide_votes(tmp_path)
        code, out, err = invoke(
            ["diverse", votes, "--r", "3", "--delta", "2", "--d", "3", "--json"]
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["decision"] == "yes"
        profile = parse_votes(pathlib.Path(votes).read_text())
        names = profile.candidates
        witnesses = [
            LinearOrder(tuple(names.index(x) for x in doc[f"witness-{i}"].split("<")))
            for i in (1, 2, 3)
        ]
        for i, w in enumerate(witnesses, 1):
            assert kemeny_score(profile, w) == doc[f"score-{i}"] <= doc["optimum"] + 2
        assert diversity(witnesses) == doc["diversity"] >= 3

    def test_optima_counts(self):
        header = (
            "result: optima\n"
            "n: 5\n"
            "m: 100\n"
            "unanimity-width: 1\n"
        )
        assert invoke(["optima", FIFTY, "--r", "2"]) == (0, header + (
            "r: 2\n"
            "optimum: 50\n"
            "decision: yes\n"
            "witness-1: A<B<C<D<E\n"
            "score-1: 50\n"
            "witness-2: A<B<D<C<E\n"
            "score-2: 50\n"
        ), "")
        assert invoke(["optima", FIFTY, "--r", "3"]) == (1, header + (
            "r: 3\n"
            "optimum: 50\n"
            "decision: no\n"
            "detail: fewer than 3 distinct optimal rankings\n"
        ), "")

    def test_maxdiv_reports_exact_diversity(self):
        code, out, _ = invoke(["maxdiv", FIFTY, "--r", "2", "--delta", "0"])
        assert code == 0
        assert out == (
            "result: maxdiv\n"
            "n: 5\n"
            "m: 100\n"
            "unanimity-width: 1\n"
            "r: 2\n"
            "delta: 0\n"
            "optimum: 50\n"
            "decision: yes\n"
            "diversity: 1\n"
            "witness-1: A<B<C<D<E\n"
            "score-1: 50\n"
            "witness-2: A<B<D<C<E\n"
            "score-2: 50\n"
            "distance-1-2: 1\n"
        )

    def test_maxdiv_prints_each_witness_once(self, tmp_path):
        # a chain has one extension, so both selected rankings coincide
        votes = tmp_path / "chain.votes"
        votes.write_text("candidates: A,B,C\nA<B<C\n")
        code, out, _ = invoke(["maxdiv", str(votes), "--r", "2"])
        assert code == 0
        assert "diversity: 0\n" in out
        assert out.count("witness-") == 1 and "witness-1: A<B<C\n" in out
        assert "distance-" not in out
        # three rankings from two optima repeat one: the diversity counts
        # all three pairs, the witness and distance lines each ranking once
        assert invoke(["maxdiv", FIFTY, "--r", "3"]) == (0, (
            "result: maxdiv\n"
            "n: 5\n"
            "m: 100\n"
            "unanimity-width: 1\n"
            "r: 3\n"
            "delta: 0\n"
            "optimum: 50\n"
            "decision: yes\n"
            "diversity: 2\n"
            "witness-1: A<B<C<D<E\n"
            "score-1: 50\n"
            "witness-2: A<B<D<C<E\n"
            "score-2: 50\n"
            "distance-1-2: 1\n"
        ), "")

    def test_pco_decisions(self):
        header = (
            "result: pco\n"
            "n: 5\n"
            "m: 100\n"
        )
        assert invoke(["pco", FIFTY, "--k", "50"]) == (0, header + (
            "budget: 50\n"
            "incomparable-pairs: 1\n"
            "unanimity-width: 1\n"
            "optimum: 50\n"
            "decision: yes\n"
            "witness-1: A<B<C<D<E\n"
            "score-1: 50\n"
        ), "")
        assert invoke(["pco", FIFTY, "--k", "49"]) == (1, header + (
            "budget: 49\n"
            "incomparable-pairs: 1\n"
            "unanimity-width: 1\n"
            "optimum: 50\n"
            "decision: no\n"
        ), "")
        assert invoke(["pco", FIFTY, "--k", "0"]) == (1, header + (
            "budget: 0\n"
            "incomparable-pairs: 1\n"
            "decision: no\n"
            "detail: rejected by the edge-count bound\n"
        ), "")
        code, _, err = invoke(["pco", FIVE, "--k", "10"])
        assert code == 2 and "positive" in err

    def test_oracle_tasks(self):
        for argv, code, text in ORACLE_GOLDENS:
            assert invoke(argv) == (code, text, ""), argv

    # The oracle rejects a negative target as the solvers do.
    @pytest.mark.parametrize("command,flag", [
        *((["diverse"], flag) for flag in ("--delta", "--d", "--s")),
        (["maxdiv"], "--delta"),
        *((["oracle", "--task", "diverse"], flag) for flag in ("--delta", "--d", "--s")),
        (["oracle", "--task", "diverse", "--max"], "--delta"),
    ])
    def test_negative_targets_rejected(self, command, flag):
        argv = [command[0], FIFTY, *command[1:], "--r", "2", flag, "-1"]
        assert invoke(argv) == (2, "", "error: delta, d and s must be non-negative\n")

    def test_gen_round_trips_and_solves(self, tmp_path):
        target = tmp_path / "g.votes"
        code, _, _ = invoke(
            ["gen", "buckets", "--sizes", "2,2", "--m", "4", "--noise", "1",
             "--seed", "3", "--out", str(target)]
        )
        assert code == 0
        code, out, _ = invoke(["solve", str(target)])
        assert code == 0 and "decision: yes" in out

    def test_gen_fixture_matches_checked_in_file(self):
        code, out, _ = invoke(["gen", "fixture", "--name", "fifty-fifty"])
        assert code == 0
        assert parse_votes(out).votes == fifty_fifty_profile().votes

    def test_gen_takes_no_document_flags(self):
        # gen writes vote text, never a document, so --json is a usage error
        assert invoke(["gen", "fixture", "--name", "fifty-fifty", "--json"]) == (2, "", "")

    def test_json_output_is_valid_and_complete(self):
        code, out, _ = invoke(["maxdiv", FIFTY, "--r", "2", "--json"])
        assert code == 0
        assert out == (
            "{\n"
            '  "decision": "yes",\n'
            '  "delta": 0,\n'
            '  "distance-1-2": 1,\n'
            '  "diversity": 1,\n'
            '  "m": 100,\n'
            '  "n": 5,\n'
            '  "optimum": 50,\n'
            '  "r": 2,\n'
            '  "result": "maxdiv",\n'
            '  "score-1": 50,\n'
            '  "score-2": 50,\n'
            '  "unanimity-width": 1,\n'
            '  "witness-1": "A<B<C<D<E",\n'
            '  "witness-2": "A<B<D<C<E"\n'
            "}\n"
        )
        payload = json.loads(out)
        assert payload["decision"] == "yes"

    def test_input_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.votes"
        bad.write_text("candidates: A,B\npairs: A<B, B<A\n")
        code, _, err = invoke(["solve", str(bad)])
        assert code == 2 and "line 2" in err

    @pytest.mark.parametrize(
        "votes, dump, message",
        [
            ("candidates: A,B\n0 x A<B\n", None, "line 2: multiplicity must be positive"),
            ("candidates: A,,B\nA<B\n", None, "line 1: empty candidate name"),
            ("candidates: A,B\npairs: A\n", None, "line 2: expected 'X<Y' in pair list, got 'A'"),
            ("candidates: A,B\npairs: ,\n", None, "line 2: empty pair list"),
            ("candidates: A,B\nA<B\n", "", "decomposition file has no bags"),
        ],
        ids=["zero-multiplicity", "empty-name", "pair-without-order", "empty-pair-list", "empty-dump"],
    )
    def test_malformed_file_exit_code(self, tmp_path, votes, dump, message):
        path = tmp_path / "bad.votes"
        path.write_text(votes)
        argv = ["solve", str(path)]
        if dump is not None:
            (tmp_path / "bad.dec").write_text(dump)
            argv = ["validate-decomposition", str(path), "--decomposition", str(tmp_path / "bad.dec")]
        assert invoke(argv) == (2, "", f"error: {message}\n")

    def test_missing_file_exit_code(self):
        code, _, err = invoke(["solve", "/nonexistent/file.votes"])
        assert code == 2

    def test_non_utf8_vote_file_exit_code(self, tmp_path):
        votes = tmp_path / "latin.votes"
        votes.write_bytes(b"candidates: A,B\n\xffA<B\n")
        code, out, err = invoke(["solve", str(votes)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {votes}: ")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        votes = tmp_path / "bom.votes"
        votes.write_bytes(b"\xef\xbb\xbf" + pathlib.Path(FIFTY).read_bytes())
        assert invoke(["solve", str(votes)]) == invoke(["solve", FIFTY])

    def test_non_utf8_decomposition_exit_code(self, tmp_path):
        dump = tmp_path / "latin.dec"
        dump.write_bytes(b"A\nA \xff\n")
        code, out, err = invoke(["validate-decomposition", FIVE, "--decomposition", str(dump)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {dump}: ")

    @pytest.mark.parametrize(
        "module, engine, field, argv",
        [
            ("kemeny.cli", "solve_single", "cost", ["solve", FIVE]),
            ("kemeny.cli", "solve_pco", "optimum", ["pco", FIFTY, "--k", "100"]),
            ("kemeny.cli", "optimal_rankings", 0, ["optima", FIFTY, "--r", "2"]),
            ("kemeny.cli", "solve_max_diversity", "costs", ["maxdiv", FIFTY, "--r", "3"]),
            ("kemeny.solver_diverse", "solve_diverse", "costs", ["diverse", FIFTY, "--r", "2"]),
        ],
        ids=["solve", "pco", "optima", "maxdiv", "diverse"],
    )
    def test_wrong_engine_cost_is_an_internal_error(self, monkeypatch, module, engine, field, argv):
        # each printed score is checked once, in the CLI or in solve_diverse_kra
        owner = importlib.import_module(module)
        real = getattr(owner, engine)

        def off_by_one(*args, **kwargs):
            result = real(*args, **kwargs)
            if isinstance(field, int):  # a tuple, such as optimal_rankings'
                return result[:field] + (result[field] + 1,) + result[field + 1 :]
            value = getattr(result, field)
            bumped = value + 1 if isinstance(value, int) else tuple(c + 1 for c in value)
            return dataclasses.replace(result, **{field: bumped})

        monkeypatch.setattr(owner, engine, off_by_one)
        code, out, err = invoke(argv)
        assert (code, out) == (70, "")
        assert err.startswith("internal error: ")

    @pytest.mark.parametrize("sizes", ["3,x", "", "3,,2"])
    def test_bad_bucket_sizes_exit_code(self, sizes):
        code, out, err = invoke(["gen", "buckets", "--sizes", sizes])
        assert (code, out) == (2, "")
        assert err == f"error: --sizes: expected comma-separated integers, got {sizes!r}\n"

    @pytest.mark.parametrize(
        "argv",
        [["solve", FIVE, "--dump-decomposition"],
         ["gen", "fixture", "--name", "five-type", "--out"]],
        ids=["solve", "gen"],
    )
    def test_unwritable_output_exit_code(self, tmp_path, argv):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = invoke(argv + [str(target)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")

    @pytest.mark.parametrize("density", ["2", "-1", "nan"])
    def test_density_outside_unit_interval_exit_code(self, density):
        argv = ["gen", "random", "--n", "4", "--m", "3", "--density", density]
        code, out, err = invoke(argv)
        assert (code, out) == (2, "")
        assert err == f"error: density must lie in [0, 1], got {float(density)}\n"

    def test_timeout_exit_code(self):
        code, _, err = invoke(["solve", FIVE, "--timeout", "0"])
        assert code == 3 and "timeout" in err

    def test_memory_error_exit_code(self, monkeypatch):
        # exit code 1 is the NO answer, so running out of memory is a
        # capability limit
        def exhausted(profile, deadline):
            raise MemoryError

        monkeypatch.setattr("kemeny.cli.reduce_to_co", exhausted)
        assert invoke(["solve", FIVE]) == (3, "", "error: out of memory\n")

    def test_nan_timeout_is_a_usage_error(self, capsys):
        # no deadline compares past NaN, so it would never abort
        for value, reason in [("nan", "not a number of seconds"), ("abc", "invalid float value")]:
            assert invoke(["solve", FIVE, "--timeout", value]) == (2, "", "")
            assert f"argument --timeout: {reason}: {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["optimum", "extensions", "count", "diverse"])
    def test_oracle_timeout_exit_code(self, task):
        code, out, err = invoke(["oracle", FIFTY, "--task", task, "--timeout", "0"])
        assert (code, out) == (3, "") and "timeout" in err

    def test_oracle_extensions_abort_promptly(self, tmp_path):
        # 181 440 extensions: the full listing runs well past the deadline
        votes = str(tmp_path / "nine.votes")
        invoke(["gen", "buckets", "--sizes", "9", "--m", "4", "--seed", "1", "--out", votes])
        start = time.monotonic()
        code, out, err = invoke(
            ["oracle", votes, "--task", "extensions", "--timeout", "0.1"]
        )
        assert (code, out) == (3, "") and "timeout" in err
        assert time.monotonic() - start < 1.0

    def test_timeout_counts_from_the_start(self, tmp_path):
        # parsing 100 000 vote lines alone takes most of a second
        votes = tmp_path / "long.votes"
        votes.write_text("candidates: A,B,C,D,E\n" + "A=B<C<D=E\n" * 100_000)
        start = time.monotonic()
        code, out, err = invoke(["solve", str(votes), "--timeout", "0.05"])
        assert (code, out) == (3, "") and "timeout" in err
        assert time.monotonic() - start < 0.5

    def test_comment_lines_check_the_deadline(self, monkeypatch):
        # a header and 1 000 comment lines hold no vote, so a check per vote
        # alone would reach the end of the file and report no votes
        text = "candidates: A,B\n" + "# a comment\n" * 1000
        with pytest.raises(InputError, match="header but no votes"):
            parse_votes(text)
        with pytest.raises(CapabilityError):
            parse_votes(text, time.monotonic() - 1)
        calls = []
        monkeypatch.setattr("kemeny.cli.check_deadline", calls.append)
        with pytest.raises(InputError, match="header but no votes"):
            parse_votes(text, 1e9)
        assert calls == [1e9] * 1001

    def test_solve_reaches_width_eleven(self, tmp_path):
        # two buckets of 12: 12! tail orders per position, 2 * 2^12 ideals
        votes = tmp_path / "wide.votes"
        invoke(["gen", "buckets", "--sizes", "12,12", "--m", "20", "--seed", "1",
                "--out", str(votes)])
        code, out, err = invoke(["solve", str(votes)])
        assert (code, err) == (0, "")
        doc = dict(line.split(": ", 1) for line in out.splitlines())
        assert doc["unanimity-width"] == "11"
        assert doc["score-1"] == doc["optimum"]
        cost = reduce_to_co(parse_votes(votes.read_text())).cost
        n = len(cost)
        lower = sum(
            min(cost[x][y], cost[y][x]) for x in range(n) for y in range(x + 1, n)
        )
        assert int(doc["optimum"]) >= lower


# Profiles with many tied optima (3,3,3 has 18). `solve` prints the
# lexicographically smallest optimum and `optima --r R` the R smallest, the
# oracle's first minimizers (TestWitnessIsOracleMinimum), so their witnesses
# depend on the input alone. The maxdiv and diverse witnesses still depend
# on the decomposition the diverse lockstep walks and on how it breaks ties,
# so any change to either shows up here. The 3,3,3 maxdiv pair has the
# oracle's maximum diversity (`oracle --task diverse --max`: 5) with both
# scores at the optimum. The r = 3 rows run three lockstep slots through
# the canonical slot order and the backtrack; the 3,3,3 maxdiv triple
# repeats a ranking, so it lists two witnesses and counts 5 + 5 + 0.
TIE_GOLDENS = [
    ("3,3,3", "solve", 0, (
        "result: solve\n"
        "n: 9\n"
        "m: 6\n"
        "unanimity-width: 2\n"
        "decision: yes\n"
        "optimum: 24\n"
        "witness-1: A<B<C<F<D<E<G<H<I\n"
        "score-1: 24\n"
    )),
    ("3,3,3", "optima --r 3", 0, (
        "result: optima\n"
        "n: 9\n"
        "m: 6\n"
        "unanimity-width: 2\n"
        "r: 3\n"
        "optimum: 24\n"
        "decision: yes\n"
        "witness-1: A<B<C<F<D<E<G<H<I\n"
        "score-1: 24\n"
        "witness-2: A<B<C<F<D<E<H<G<I\n"
        "score-2: 24\n"
        "witness-3: A<B<C<F<D<E<H<I<G\n"
        "score-3: 24\n"
    )),
    ("3,3,3", "maxdiv --r 2 --delta 1", 0, (
        "result: maxdiv\n"
        "n: 9\n"
        "m: 6\n"
        "unanimity-width: 2\n"
        "r: 2\n"
        "delta: 1\n"
        "optimum: 24\n"
        "decision: yes\n"
        "diversity: 5\n"
        "witness-1: A<C<B<F<E<D<H<I<G\n"
        "score-1: 24\n"
        "witness-2: B<A<C<F<D<E<G<H<I\n"
        "score-2: 24\n"
        "distance-1-2: 5\n"
    )),
    ("3,3,3", "diverse --r 2 --delta 1 --d 4", 0, (
        "result: diverse\n"
        "n: 9\n"
        "m: 6\n"
        "unanimity-width: 2\n"
        "r: 2\n"
        "delta: 1\n"
        "d: 4\n"
        "s: 1\n"
        "optimum: 24\n"
        "decision: yes\n"
        "diversity: 4\n"
        "witness-1: A<C<B<F<E<D<H<I<G\n"
        "score-1: 24\n"
        "witness-2: B<A<C<F<D<E<H<G<I\n"
        "score-2: 24\n"
        "distance-1-2: 4\n"
    )),
    ("4,3,2", "solve", 0, (
        "result: solve\n"
        "n: 9\n"
        "m: 6\n"
        "unanimity-width: 3\n"
        "decision: yes\n"
        "optimum: 26\n"
        "witness-1: C<B<D<A<E<G<F<I<H\n"
        "score-1: 26\n"
    )),
    ("4,3,2", "optima --r 3", 0, (
        "result: optima\n"
        "n: 9\n"
        "m: 6\n"
        "unanimity-width: 3\n"
        "r: 3\n"
        "optimum: 26\n"
        "decision: yes\n"
        "witness-1: C<B<D<A<E<G<F<I<H\n"
        "score-1: 26\n"
        "witness-2: C<B<D<A<G<E<F<I<H\n"
        "score-2: 26\n"
        "witness-3: C<B<D<A<G<F<E<I<H\n"
        "score-3: 26\n"
    )),
    ("4,3,2", "maxdiv --r 2 --delta 1", 0, (
        "result: maxdiv\n"
        "n: 9\n"
        "m: 6\n"
        "unanimity-width: 3\n"
        "r: 2\n"
        "delta: 1\n"
        "optimum: 26\n"
        "decision: yes\n"
        "diversity: 2\n"
        "witness-1: C<B<D<A<E<G<F<I<H\n"
        "score-1: 26\n"
        "witness-2: C<B<D<A<G<F<E<I<H\n"
        "score-2: 26\n"
        "distance-1-2: 2\n"
    )),
    ("4,3,2", "diverse --r 2 --delta 1 --d 4", 1, (
        "result: diverse\n"
        "n: 9\n"
        "m: 6\n"
        "unanimity-width: 3\n"
        "r: 2\n"
        "delta: 1\n"
        "d: 4\n"
        "s: 1\n"
        "optimum: 26\n"
        "decision: no\n"
        "failed-constraint: diversity\n"
        "detail: best achievable diversity within the cost window is 2, required 4\n"
    )),
    ("4,4", "solve", 0, (
        "result: solve\n"
        "n: 8\n"
        "m: 6\n"
        "unanimity-width: 3\n"
        "decision: yes\n"
        "optimum: 27\n"
        "witness-1: A<B<C<D<E<H<G<F\n"
        "score-1: 27\n"
    )),
    ("4,4", "optima --r 3", 0, (
        "result: optima\n"
        "n: 8\n"
        "m: 6\n"
        "unanimity-width: 3\n"
        "r: 3\n"
        "optimum: 27\n"
        "decision: yes\n"
        "witness-1: A<B<C<D<E<H<G<F\n"
        "score-1: 27\n"
        "witness-2: A<B<D<C<E<H<G<F\n"
        "score-2: 27\n"
        "witness-3: B<A<C<D<E<H<G<F\n"
        "score-3: 27\n"
    )),
    ("4,4", "maxdiv --r 2 --delta 1", 0, (
        "result: maxdiv\n"
        "n: 8\n"
        "m: 6\n"
        "unanimity-width: 3\n"
        "r: 2\n"
        "delta: 1\n"
        "optimum: 27\n"
        "decision: yes\n"
        "diversity: 3\n"
        "witness-1: A<B<C<D<E<H<G<F\n"
        "score-1: 27\n"
        "witness-2: B<D<A<C<E<H<G<F\n"
        "score-2: 27\n"
        "distance-1-2: 3\n"
    )),
    ("4,4", "diverse --r 2 --delta 1 --d 4", 1, (
        "result: diverse\n"
        "n: 8\n"
        "m: 6\n"
        "unanimity-width: 3\n"
        "r: 2\n"
        "delta: 1\n"
        "d: 4\n"
        "s: 1\n"
        "optimum: 27\n"
        "decision: no\n"
        "failed-constraint: diversity\n"
        "detail: best achievable diversity within the cost window is 3, required 4\n"
    )),
    ("3,3,3", "maxdiv --r 3 --delta 1", 0, (
        "result: maxdiv\n"
        "n: 9\n"
        "m: 6\n"
        "unanimity-width: 2\n"
        "r: 3\n"
        "delta: 1\n"
        "optimum: 24\n"
        "decision: yes\n"
        "diversity: 10\n"
        "witness-1: A<C<B<F<E<D<H<I<G\n"
        "score-1: 24\n"
        "witness-2: B<A<C<F<D<E<G<H<I\n"
        "score-2: 24\n"
        "distance-1-2: 5\n"
    )),
    ("3,3,3", "diverse --r 3 --delta 1 --d 8", 0, (
        "result: diverse\n"
        "n: 9\n"
        "m: 6\n"
        "unanimity-width: 2\n"
        "r: 3\n"
        "delta: 1\n"
        "d: 8\n"
        "s: 1\n"
        "optimum: 24\n"
        "decision: yes\n"
        "diversity: 8\n"
        "witness-1: A<C<B<F<E<D<H<G<I\n"
        "score-1: 24\n"
        "witness-2: A<C<B<F<E<D<H<I<G\n"
        "score-2: 24\n"
        "witness-3: B<A<C<F<D<E<H<I<G\n"
        "score-3: 24\n"
        "distance-1-2: 1\n"
        "distance-1-3: 4\n"
        "distance-2-3: 3\n"
    )),
    ("4,3,2", "maxdiv --r 3 --delta 1", 0, (
        "result: maxdiv\n"
        "n: 9\n"
        "m: 6\n"
        "unanimity-width: 3\n"
        "r: 3\n"
        "delta: 1\n"
        "optimum: 26\n"
        "decision: yes\n"
        "diversity: 4\n"
        "witness-1: C<B<D<A<E<G<F<I<H\n"
        "score-1: 26\n"
        "witness-2: C<B<D<A<G<F<E<I<H\n"
        "score-2: 26\n"
        "distance-1-2: 2\n"
    )),
    ("4,3,2", "diverse --r 3 --delta 0 --d 2", 0, (
        "result: diverse\n"
        "n: 9\n"
        "m: 6\n"
        "unanimity-width: 3\n"
        "r: 3\n"
        "delta: 0\n"
        "d: 2\n"
        "s: 1\n"
        "optimum: 26\n"
        "decision: yes\n"
        "diversity: 4\n"
        "witness-1: C<B<D<A<E<G<F<I<H\n"
        "score-1: 26\n"
        "witness-2: C<B<D<A<G<E<F<I<H\n"
        "score-2: 26\n"
        "witness-3: C<B<D<A<G<F<E<I<H\n"
        "score-3: 26\n"
        "distance-1-2: 1\n"
        "distance-1-3: 2\n"
        "distance-2-3: 1\n"
    )),
    ("4,4", "maxdiv --r 3 --delta 1", 0, (
        "result: maxdiv\n"
        "n: 8\n"
        "m: 6\n"
        "unanimity-width: 3\n"
        "r: 3\n"
        "delta: 1\n"
        "optimum: 27\n"
        "decision: yes\n"
        "diversity: 6\n"
        "witness-1: A<B<C<D<E<H<G<F\n"
        "score-1: 27\n"
        "witness-2: B<D<A<C<E<H<G<F\n"
        "score-2: 27\n"
        "distance-1-2: 3\n"
    )),
    ("4,4", "diverse --r 3 --delta 1 --d 6", 0, (
        "result: diverse\n"
        "n: 8\n"
        "m: 6\n"
        "unanimity-width: 3\n"
        "r: 3\n"
        "delta: 1\n"
        "d: 6\n"
        "s: 1\n"
        "optimum: 27\n"
        "decision: yes\n"
        "diversity: 6\n"
        "witness-1: A<B<D<C<E<H<G<F\n"
        "score-1: 27\n"
        "witness-2: B<A<C<D<E<H<G<F\n"
        "score-2: 27\n"
        "witness-3: B<D<A<C<E<H<G<F\n"
        "score-3: 27\n"
        "distance-1-2: 2\n"
        "distance-1-3: 2\n"
        "distance-2-3: 2\n"
    )),
]


class TestTieSensitiveGoldens:
    @pytest.mark.parametrize(
        "sizes,query,code,text", TIE_GOLDENS,
        ids=[f"{g[0]} {g[1]}" for g in TIE_GOLDENS],
    )
    def test_bucket_profile_output(self, tmp_path, sizes, query, code, text):
        votes = str(tmp_path / "b.votes")
        invoke(["gen", "buckets", "--sizes", sizes, "--m", "6", "--noise", "1",
                "--seed", "1", "--out", votes])
        command, *flags = query.split()
        assert invoke([command, votes, *flags]) == (code, text, "")


class TestWitnessIsOracleMinimum:
    @staticmethod
    def witnesses(text):
        return [line for line in text.splitlines() if line.startswith("witness-")]

    @pytest.mark.parametrize("sizes", sorted({g[0] for g in TIE_GOLDENS}))
    def test_bucket_profile(self, tmp_path, sizes):
        votes = str(tmp_path / "b.votes")
        invoke(["gen", "buckets", "--sizes", sizes, "--m", "6", "--noise", "1",
                "--seed", "1", "--out", votes])
        _, oracle, _ = invoke(["oracle", votes, "--task", "optimum"])
        _, solve, _ = invoke(["solve", votes])
        _, optima, _ = invoke(["optima", votes, "--r", "3"])
        _, single, _ = invoke(["optima", votes, "--r", "1"])
        assert self.witnesses(solve) == self.witnesses(oracle)[:1]
        assert self.witnesses(optima) == self.witnesses(oracle)[:3]
        assert self.witnesses(single) == self.witnesses(solve)

    @pytest.mark.parametrize(
        "argv,r",
        [
            (["solve", FIVE], 1),
            (["solve", FIFTY], 1),
            (["pco", FIFTY, "--k", "50"], 1),
            (["optima", FIFTY, "--r", "2"], 2),
        ],
        ids=["solve five", "solve fifty", "pco fifty", "optima fifty"],
    )
    def test_fixture(self, argv, r):
        _, oracle, _ = invoke(["oracle", argv[1], "--task", "optimum"])
        _, out, _ = invoke(argv)
        assert self.witnesses(out) == self.witnesses(oracle)[:r]


class TestValidateDecomposition:
    def test_dump_then_validate(self, tmp_path):
        dump = tmp_path / "five.dec"
        code, _, _ = invoke(["solve", FIVE, "--dump-decomposition", str(dump)])
        assert code == 0
        assert dump.read_text() == "A\nA B\nA B C\nA B C D\nB C D\nC D\nC D E\n"
        assert invoke(
            ["validate-decomposition", FIVE, "--decomposition", str(dump)]
        ) == (0, (
            "result: validate-decomposition\n"
            "bags: 7\n"
            "width: 3\n"
            "nice: yes\n"
            "valid: yes\n"
        ), "")

    def test_one_candidate_dump(self, tmp_path):
        votes = tmp_path / "one.votes"
        votes.write_text("candidates: A\nA\n")
        dump = tmp_path / "one.dec"
        code, _, _ = invoke(["solve", str(votes), "--dump-decomposition", str(dump)])
        assert code == 0
        assert dump.read_text() == "A\n"
        assert invoke(
            ["validate-decomposition", str(votes), "--decomposition", str(dump)]
        ) == (0, (
            "result: validate-decomposition\n"
            "bags: 1\n"
            "width: 0\n"
            "nice: yes\n"
            "valid: yes\n"
        ), "")

    def test_broken_dump_rejected(self, tmp_path):
        dump = tmp_path / "broken.dec"
        dump.write_text("A B\nD E\n")  # misses vertices and edges
        assert invoke(
            ["validate-decomposition", FIVE, "--decomposition", str(dump)]
        ) == (1, (
            "result: validate-decomposition\n"
            "bags: 2\n"
            "width: 1\n"
            "nice: no\n"
            "valid: no\n"
            "problem-1: bags do not cover every vertex\n"
            "problem-2: edge (0,2) not covered by any bag\n"
            "problem-3: edge (0,3) not covered by any bag\n"
            "problem-4: edge (1,2) not covered by any bag\n"
            "problem-5: edge (1,3) not covered by any bag\n"
            "problem-6: edge (2,3) not covered by any bag\n"
            "problem-7: edge (2,4) not covered by any bag\n"
        ), "")

    def test_dump_with_byte_order_mark(self, tmp_path):
        dump = tmp_path / "five.dec"
        invoke(["solve", FIVE, "--dump-decomposition", str(dump)])
        marked = tmp_path / "bom.dec"
        marked.write_bytes(b"\xef\xbb\xbf" + dump.read_bytes())
        assert invoke(
            ["validate-decomposition", FIVE, "--decomposition", str(marked)]
        ) == invoke(["validate-decomposition", FIVE, "--decomposition", str(dump)])

    def test_unknown_candidate_reports_its_line(self, tmp_path):
        dump = tmp_path / "typo.dec"
        dump.write_text("A B\nA Q\n")
        code, out, err = invoke(
            ["validate-decomposition", FIVE, "--decomposition", str(dump)]
        )
        assert (code, out) == (2, "")
        assert err == "error: line 2: unknown candidate 'Q'\n"


class TestCandidateCap:
    # Votes are packed 64 candidates to a word: every command that reads a
    # vote file's unanimity order or costs stops with exit code 2 above 64;
    # gen reads no packed words.
    CAP = "error: at most 64 candidates supported\n"

    @staticmethod
    def _files(tmp_path, n):
        names = [f"C{k}" for k in range(n)]
        votes = tmp_path / f"wide{n}.votes"
        votes.write_text(
            "candidates: " + ", ".join(names) + "\n"
            + "<".join(names) + "\n2 x " + "<".join(reversed(names)) + "\n"
        )
        dump = tmp_path / f"wide{n}.dec"
        dump.write_text(" ".join(names) + "\n")
        return str(votes), str(dump)

    @pytest.mark.parametrize(
        "command",
        # optima checks r only after the reduction has read the packed words
        [["solve"], ["optima", "--r", "2"], ["pco", "--k", "3"], ["optima", "--r", "0"]],
    )
    def test_solver_commands_stop_above_64(self, tmp_path, command):
        votes, _ = self._files(tmp_path, 65)
        assert invoke([command[0], votes, *command[1:]]) == (2, "", self.CAP)

    def test_validate_decomposition_stops_above_64(self, tmp_path):
        votes, dump = self._files(tmp_path, 65)
        argv = ["validate-decomposition", votes, "--decomposition", dump]
        assert invoke(argv) == (2, "", self.CAP)

    def test_validate_decomposition_reads_64(self, tmp_path):
        votes, dump = self._files(tmp_path, 64)
        argv = ["validate-decomposition", votes, "--decomposition", dump]
        assert invoke(argv) == (0, (
            "result: validate-decomposition\n"
            "bags: 1\n"
            "width: 63\n"
            "nice: yes\n"
            "valid: yes\n"
        ), "")

    def test_gen_writes_65_candidates(self, tmp_path):
        out = tmp_path / "wide.votes"
        assert invoke(["gen", "random", "--n", "65", "--m", "2", "--out", str(out)])[0] == 0
        assert parse_votes(out.read_text()).n == 65


class TestTiming:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", FIVE],
            ["diverse", FIFTY, "--r", "3", "--d", "1"],
            ["maxdiv", FIFTY, "--r", "3"],
            ["pco", FIFTY, "--k", "0"],
            ["oracle", FIFTY, "--task", "count"],
        ],
        ids=lambda a: " ".join(a[:1] + a[2:]),
    )
    def test_timed_document_adds_one_last_line(self, argv):
        code, plain, _ = invoke(argv)
        timed = invoke(argv + ["--timing"])
        *lines, last = timed[1].splitlines(keepends=True)
        assert (timed[0], "".join(lines), timed[2]) == (code, plain, "")
        assert re.fullmatch(r"timing-ms: \d+\.\d\n", last)
        _, plain_json, _ = invoke(argv + ["--json"])
        timed_json = json.loads(invoke(argv + ["--json", "--timing"])[1])
        assert isinstance(timed_json.pop("timing-ms"), float)
        assert timed_json == json.loads(plain_json)


class TestTraceGuard:
    """The benchmark's tracer wraps layer functions by name; a refactor
    that drops one of those names, or the fields its spans read, would
    leave the traced run measuring less than it claims."""

    def test_tracer_targets_resolve_and_spans_carry_info(self, monkeypatch):
        path = pathlib.Path(__file__).parent.parent / "bench" / "spans.py"
        spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, spans)  # for its dataclasses
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert invoke(["diverse", FIFTY, "--r", "2", "--d", "1"])[0] == 0
            assert invoke(["maxdiv", FIFTY, "--r", "3", "--delta", "1"])[0] == 0
            assert invoke(["optima", FIFTY, "--r", "2"])[0] == 0
            assert invoke(["pco", FIFTY, "--k", "0"])[0] == 1
        finally:
            tracer.uninstall()
        assert set(tracer.absent) <= {
            "kemeny.solver_diverse.consistent_path_decomposition",
            "kemeny.pco.consistent_path_decomposition",
            # the tail-order program lives in solver_diverse, where the
            # solver_diverse.register span wraps it
            "kemeny.solver_single.forward_tables",
            # the CLI prints the distances the diverse solver computed
            "kemeny.cli.kt_distance",
            # the single engine no longer decomposes
            "kemeny.solver_single.consistent_path_decomposition",
        }
        assert [(s.name, s.error) for s in tracer.spans if s.error] == []
        names = {s.name for s in tracer.spans}
        assert {"solver_diverse.register", "width.decompose"} <= names
        info = {s.name: s.info for s in tracer.spans if s.info}
        assert info["solver_diverse.entry"] == {"yes": 1}
        assert info["pco.solve"] == {"rejected": 1}


class TestDeterminism:
    COMMANDS = [
        ["solve", FIVE],
        ["solve", FIVE, "--json"],
        ["diverse", FIFTY, "--r", "2", "--d", "1", "--s", "1"],
        ["optima", FIFTY, "--r", "2"],
        ["maxdiv", FIFTY, "--r", "2", "--json"],
        ["pco", FIFTY, "--k", "50"],
        ["oracle", FIVE, "--task", "optimum"],
        ["gen", "random", "--n", "5", "--m", "4", "--seed", "12"],
        ["gen", "buckets", "--sizes", "3,2", "--m", "3", "--noise", "2", "--seed", "4"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a))
    def test_two_runs_byte_identical(self, argv):
        first = invoke(argv)
        second = invoke(argv)
        assert first == second
