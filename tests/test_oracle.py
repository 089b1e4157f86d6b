"""Tests for the best-response oracle and deviation certification."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from hotelling import (
    InvalidInput,
    InvalidStrategy,
    MixedProfile,
    MixedStrategy,
    OffsetLocation,
    PureProfile,
    PureStrategy,
    SupportTooLarge,
    best_response,
    certify_no_deviation,
    construct_mixed,
    construct_pure,
    exists_pure,
    find_partition,
    has_dominant_player,
    is_equilibrium,
    limit_payoff,
    make_game,
    make_olk,
    mixed_payoff,
    optimal_locations,
    two_player_equilibrium,
    verify_multi_unit,
)
import hotelling.mixed as mixed_module
import hotelling.oracle as oracle_module
from hotelling.cli import _atlas_multisets
from hotelling.oracle import (
    _best_band,
    _best_subset,
    _grid,
    _grid_family,
    _refuse,
    candidate_family,
)

from helpers import (
    best_subset,
    limit_value,
    rand_profile,
    rand_strategy,
    reference_best_response,
    reference_gap_fillers,
    reference_pure_best_response,
    reference_pure_supremum,
)

F = Fraction


def point(*locations):
    return MixedStrategy.point(PureStrategy.of(*locations))


class TestCandidateFamily:
    def test_members_behave_like_checked_locations(self):
        rng = random.Random(24)
        for _ in range(30):
            q = rng.choice((1, 2, 3, 5, 8, 12))
            positions = [F(i, q) for i in rng.sample(range(q + 1), rng.randint(1, q + 1))]
            family = candidate_family(positions + [int(x) for x in positions if x.denominator == 1])
            checked = [OffsetLocation(c.position, c.side) for c in family]
            assert list(family) == checked
            assert [hash(c) for c in family] == [hash(c) for c in checked]
            assert [repr(c) for c in family] == [repr(c) for c in checked]
            assert [c.sort_key() for c in family] == [c.sort_key() for c in checked]
            assert all(type(c.position) is Fraction for c in family)
            assert sorted(checked, reverse=True) == sorted(family, reverse=True) == checked[::-1]
            assert all(a < b and not b < a for a, b in zip(family, family[1:]))
            assert len(set(family) | set(checked)) == len(family)

    @pytest.mark.parametrize(
        "positions, error, message",
        [
            ([F(3, 2)], InvalidInput, "offset position 3/2 outside [0,1]"),
            ([F(-1, 2)], InvalidInput, "offset position -1/2 outside [0,1]"),
            ([2], InvalidInput, "offset position 2 outside [0,1]"),
            ([F(-1, 2), 0.25], InvalidInput, "offset position -1/2 outside [0,1]"),
            ([0.5], InvalidStrategy, "expected an exact rational, got float"),
            ([1.5], InvalidStrategy, "expected an exact rational, got float"),
            ([-0.5], InvalidStrategy, "expected an exact rational, got float"),
            ([F(1, 4), 0.5], InvalidStrategy, "expected an exact rational, got float"),
            ([True], InvalidStrategy, "expected an exact rational, got bool"),
            (["1/2"], TypeError, "'>' not supported between instances of 'str' and 'Fraction'"),
            ([None], TypeError, "'>' not supported between instances of 'NoneType' and 'Fraction'"),
        ],
    )
    def test_faulty_positions_raise_as_offset_locations_do(self, positions, error, message):
        # the error and message of the first faulty position in sorted order,
        # as when each member was built by OffsetLocation(x, side)
        with pytest.raises(error) as exc:
            candidate_family(positions)
        assert type(exc.value) is error and str(exc.value) == message

    def test_grid_family_is_candidate_family(self):
        # seeded opponents whose tables have different scales, that share
        # points and sit at 0 and 1: the integer pairs built from their
        # scaled rows, on the one doubled grid, are candidate_family's
        # (position, side) list, in its order
        sides = {-1: "below", 0: "exact", 1: "above"}
        rng = random.Random(26)
        seen = {"scales": 0, "co-located": 0, "ends": 0}
        for _ in range(200):
            opponents = []
            for _ in range(rng.randint(1, 4)):
                q, k = rng.choice((1, 2, 3, 4, 5, 6, 8, 12)), rng.randint(1, 3)
                entries = list({rand_strategy(rng, k, max(q, k - 1)) for _ in range(rng.randint(1, 3))})
                opponents.append(MixedStrategy.uniform(entries))
            positions = [loc for x in opponents for s, _ in x.support for loc in s]
            scale, _, table, _ = _grid(opponents)
            family, _ = _grid_family(table, scale)
            assert [(F(x, scale), sides[side]) for x, side in family] == [
                (c.position, c.side) for c in candidate_family(positions)
            ]
            seen["scales"] += len({x._table[0] for x in opponents}) > 1
            seen["co-located"] += len(set(positions)) < len(positions)
            seen["ends"] += bool({F(0), F(1)} & set(positions))
        assert all(count >= 20 for count in seen.values()), seen
        assert _grid_family([], 2) == ([], []) and candidate_family([]) == ()


class TestBestResponse:
    def test_two_slots_against_full_optimum(self):
        result = best_response([point(*optimal_locations(4))], 2)
        assert result.supremum_payoff == F(1, 4)
        assert result.attained
        assert result.witness == (
            OffsetLocation(F(1, 8), "exact"),
            OffsetLocation(F(3, 8), "exact"),
        )

    def test_single_opponent_not_attained(self):
        result = best_response([point("1/4")], 1)
        assert result.supremum_payoff == F(3, 4)
        assert not result.attained
        assert result.witness == (OffsetLocation(F(1, 4), "above"),)

    def test_dominant_seat_against_mixture(self):
        x1 = MixedStrategy.uniform([PureStrategy.of("1/8"), PureStrategy.of("3/8")])
        x2 = MixedStrategy.uniform([PureStrategy.of("5/8"), PureStrategy.of("7/8")])
        result = best_response([x1, x2], 4)
        assert result.supremum_payoff == F(3, 4)
        assert result.attained
        assert tuple(o.position for o in result.witness) == optimal_locations(4)

    def test_no_opponents(self):
        result = best_response([], 3)
        assert result.supremum_payoff == 1 and result.attained

    def test_more_facilities_than_candidates(self):
        result = best_response([point("1/3")], 5)
        assert result.supremum_payoff == 1
        assert not result.attained
        assert len(result.witness) == 5
        assert len({o.sort_key() for o in result.witness}) == 5
        # nothing below 0 or above 1: the family's four candidates and the
        # gap filler 1/2
        result = best_response([point(0, 1)], 5)
        assert (result.supremum_payoff, result.attained) == (1, False)
        assert [(c.position, c.side) for c in result.witness] == [
            (0, "exact"), (0, "above"), (F(1, 2), "exact"), (1, "below"), (1, "exact"),
        ]
        # nine fillers reach the gaps' odd eighths
        result = best_response([point("1/3")], 12)
        family = candidate_family([F(1, 3)])
        assert result.witness == tuple(sorted([*family, *reference_gap_fillers([F(1, 3)], 9)]))
        assert result.supremum_payoff == 1 and not result.attained

    def test_padded_search_runs_the_family_alone(self, monkeypatch):
        # more facilities than candidates: the chain DP sees the family
        # alone, its one chain of |F| candidates, and the gap fillers join
        # only the witness; in a certification too, beside the other
        # player's search of one facility over ten candidates
        searched = []
        best_band = oracle_module._best_band

        def recorded(head, tail, pair, m):
            searched.append((m, len(head)))
            return best_band(head, tail, pair, m)

        monkeypatch.setattr(oracle_module, "_best_band", recorded)
        for opponents, m in [([point("1/2")], 4), ([point(0, 1)], 5), ([make_olk(2, 4)], 15)]:
            family = candidate_family({loc for x in opponents for s, _ in x.support for loc in s})
            result = best_response(opponents, m)
            assert searched[-1] == (len(family), len(family))
            assert len(result.witness) == m and set(family) < set(result.witness)
        results = certify_no_deviation(make_game([4, 1]), PureProfile.of([0, "1/4", "3/4", 1], ["1/2"]))
        assert searched[-2:] == [(3, 3), (1, 10)]
        assert [r.gain for r in results] == [F(1, 4), 0]

    def test_twenty_thousand_facilities_against_one_point(self):
        # the three candidates around 1/2 and 19,997 fillers, down to the
        # gaps' odd 2**14ths, in one strictly increasing witness
        result = best_response([point("1/2")], 20_000)
        family = candidate_family([F(1, 2)])
        assert result.witness == tuple(sorted([*family, *reference_gap_fillers([F(1, 2)], 19_997)]))
        assert (result.supremum_payoff, result.attained) == (1, False)
        keys = [c.sort_key() for c in result.witness]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_five_facilities_over_thirty_candidates(self):
        # C(30, 5) = 142,506 subsets: the chain search answers exactly, as
        # the knapsack over the opponents' points does
        opponent = [F(i, 17) for i in range(1, 11)]
        assert len(candidate_family(opponent)) == 30
        result = best_response([point(*opponent)], 5)
        assert result.supremum_payoff == F(19, 34) == reference_pure_best_response(opponent, 5)
        assert not result.attained
        assert limit_value([point(*opponent)], result.witness) == F(19, 34)
        # player 0 of this profile faces exactly those opponents
        profile = PureProfile.of([F(i, 17) for i in range(12, 17)], opponent[:5], opponent[5:])
        results = certify_no_deviation(make_game([5, 5, 5]), profile)
        assert results[0].supremum_payoff == F(19, 34)
        assert max(r.gain for r in results) == results[1].gain == F(4, 17)

    @pytest.mark.parametrize(
        "counts, profile, error",
        [
            # player 1 alone faces 11 * 10 opponent draws, over a cap of 100,
            # after player 0's 10 draws would have been searched
            (
                [1, 1, 1],
                MixedProfile((
                    MixedStrategy.uniform([(F(i, 10),) for i in range(11)]),
                    point("1/2"),
                    MixedStrategy.uniform([(F(i, 9),) for i in range(10)]),
                )),
                SupportTooLarge,
            ),
            # player 2 alone faces 11 * 10 opponent draws, over a cap of 100
            (
                [1, 1, 1],
                MixedProfile((
                    MixedStrategy.uniform([(F(i, 10),) for i in range(11)]),
                    MixedStrategy.uniform([(F(i, 9),) for i in range(10)]),
                    point("1/2"),
                )),
                SupportTooLarge,
            ),
        ],
    )
    def test_every_player_is_checked_before_any_search(self, monkeypatch, counts, profile, error):
        def refuse(*args):
            raise AssertionError("searched before every player was checked")

        monkeypatch.setattr(mixed_module, "DEFAULT_SUPPORT_CAP", 100)
        monkeypatch.setattr(oracle_module, "_best_subset", refuse)
        with pytest.raises(error):
            certify_no_deviation(make_game(counts), profile)

    def test_an_earlier_players_size_rule_comes_before_a_later_cap(self, monkeypatch):
        # player 0 places four facilities over a limit of three, and players
        # 1-3 each face 11 * 11 opponent draws over a cap of 100: the checks
        # run in player order, so the size rule is raised, and no payoff
        # pass over the draws runs before them
        monkeypatch.setattr(mixed_module, "DEFAULT_SUPPORT_CAP", 100)
        monkeypatch.setattr(oracle_module, "_MAX_WITNESS", 3)
        eleven = MixedStrategy.uniform([(F(i, 10),) for i in range(11)])
        profile = MixedProfile((point("1/5", "2/5", "3/5", "4/5"), eleven, eleven, eleven))
        with pytest.raises(InvalidInput) as exc:
            certify_no_deviation(make_game([4, 1, 1, 1]), profile)
        assert str(exc.value) == "a witness of 4 facilities exceeds the limit of 3"

    def test_oversized_opponent_support_is_refused(self):
        # the 101**3 = 1,030,301 opponent draws exceed the support cap of
        # 10**6, so the search is refused before any draw is built
        uniform = MixedStrategy.uniform([PureStrategy((F(i, 100),)) for i in range(101)])
        start = time.perf_counter()
        with pytest.raises(SupportTooLarge):
            best_response([uniform, uniform, uniform], 1)
        assert time.perf_counter() - start < 1

    def test_search_cap_is_checked_before_any_draw(self):
        # the draw cap is the one search cap: five facilities over 301
        # candidates against 101**3 opponent draws are refused before a
        # single draw or term of the search is built
        uniform = MixedStrategy.uniform([PureStrategy((F(i, 100),)) for i in range(101)])
        start = time.perf_counter()
        with pytest.raises(SupportTooLarge):
            best_response([uniform, uniform, uniform], 5)
        assert time.perf_counter() - start < 1

    def test_oversized_witness_is_refused_before_padding(self):
        # three candidates, but a witness of 10**6 facilities: an input
        # error before any gap filler is built
        start = time.perf_counter()
        with pytest.raises(InvalidInput) as exc:
            best_response([point("1/2")], 10**6)
        assert time.perf_counter() - start < 1
        assert str(exc.value) == "a witness of 1000000 facilities exceeds the limit of 100000"

    def test_oversized_witness_without_opponents_is_refused(self):
        # no opponent position, so no search: the same size rule still holds
        # before the witness of optimal locations is built
        start = time.perf_counter()
        with pytest.raises(InvalidInput) as exc:
            best_response([], 10**5 + 1)
        assert time.perf_counter() - start < 0.1
        assert str(exc.value) == "a witness of 100001 facilities exceeds the limit of 100000"
        assert len(best_response([], 3).witness) == 3
        _refuse(10**5, 1)  # the bound itself is allowed

    @pytest.mark.parametrize("m", [True, 2.0, F(2), "2", None], ids=["True", "float", "Fraction", "str", "None"])
    @pytest.mark.parametrize("opponents", [[], [point("1/4", "3/4")]], ids=["alone", "opposed"])
    def test_non_int_witness_size_is_refused(self, m, opponents):
        # Game's rule for a facility count: an int that is not a bool; True
        # is not read as 1, and the others raise no TypeError from the search
        with pytest.raises(InvalidInput) as exc:
            best_response(opponents, m)
        assert str(exc.value) == f"player must place an integer number of facilities, got m={m!r}"


class TestCompletenessArgument:
    def test_gap_mass_formula(self):
        # inside a gap (a, b) between opponent positions, own facilities at
        # t1 < ... < tr collect (tr - t1)/2 + (b - a)/2 in total, which the
        # one-sided limits at the gap ends supremize
        rng = random.Random(6)
        for _ in range(20):
            a, t1, t2, b = sorted(rng.sample(range(1, 48), 4))
            a, t1, t2, b = (F(v, 48) for v in (a, t1, t2, b))
            profile = PureProfile((PureStrategy((a, b)), PureStrategy((t1, t2))))
            from hotelling import masses

            own = masses(profile).payoffs[1]
            assert own == (t2 - t1) / 2 + (b - a) / 2
            squeeze = best_response([MixedStrategy.point(PureStrategy((a, b)))], 2)
            assert squeeze.supremum_payoff >= b - a


def best_on_grid(opponents, m, resolution):
    """The best exact placement on the points {i/resolution}, by the reference search."""
    grid = [OffsetLocation(F(i, resolution), "exact") for i in range(resolution + 1)]
    return reference_best_response(opponents, m, grid)[0]


class TestGridComparison:
    def test_grid_never_beats_oracle(self):
        rng = random.Random(31)
        for _ in range(4):
            k = rng.randint(1, 4)
            opp = [MixedStrategy.point(rand_strategy(rng, k, 20))]
            oracle = best_response(opp, 1)
            grid = best_on_grid(opp, 1, 1000)
            assert grid <= oracle.supremum_payoff
            assert oracle.supremum_payoff - grid <= F(2, 1000)

    def test_two_facility_grid(self):
        opp = [point("1/3", "2/3")]
        oracle = best_response(opp, 2)
        grid = best_on_grid(opp, 2, 128)
        assert grid <= oracle.supremum_payoff <= grid + F(2, 128)

    def test_grid_values_of_two_mixtures(self):
        # the (1,1,4) partition mixture against three facilities, and a (1,2)
        # mixture weighing its entries 1/3 and 2/3 against two
        game = make_game([1, 1, 4])
        mixture = construct_mixed(game, find_partition(game))
        weighted = MixedProfile(
            (
                MixedStrategy(((PureStrategy.of("1/4"), F(1, 3)), (PureStrategy.of("3/4"), F(2, 3)))),
                point("1/3", "1/2"),
            )
        )
        for profile, m, resolution, grid, supremum in (
            (mixture, 3, 16, F(3, 8), F(3, 8)),
            (weighted, 2, 12, F(71, 144), F(41, 72)),
        ):
            assert best_on_grid(list(profile.strategies), m, resolution) == grid
            assert best_response(list(profile.strategies), m).supremum_payoff == supremum

    @pytest.mark.parametrize("m", [0, -1])
    def test_no_facility_is_an_input_error(self, m):
        # one message from the one search, with or without opponents
        message = f"player must place at least one facility, got m={m}"
        for search in (
            lambda: best_response([point("1/2")], m),
            lambda: best_response([], m),
        ):
            with pytest.raises(InvalidInput) as exc:
                search()
            assert str(exc.value) == message

    def test_adding_grid_candidates_never_raises_supremum(self):
        # the offset family is already complete: enriching it with exact
        # grid points leaves the supremum unchanged
        rng = random.Random(8)
        for _ in range(3):
            k = rng.randint(1, 3)
            opp = [MixedStrategy.point(rand_strategy(rng, k, 12))]
            family = candidate_family(
                [loc for s, _ in opp[0].support for loc in s]
            )
            enriched = sorted(
                set(family)
                | {OffsetLocation(F(i, 16), "exact") for i in range(17)}
            )
            m = min(2, len(family))
            assert best_subset(enriched, m, opp)[0] == best_subset(family, m, opp)[0]


def brute_chain(head, tail, pair, m, exact):
    """Every m-chain of the candidates valued alone: the best value, whether
    an all-exact chain reaches it, the smallest all-exact maximizer if any,
    else the smallest maximizer, and every maximizer."""
    values = {
        chain: head[chain[0]] + sum(pair[a][b - a - 1] for a, b in zip(chain, chain[1:])) + tail[chain[-1]]
        for chain in itertools.combinations(range(len(head)), m)
    }
    best = max(values.values())
    maximizers = [chain for chain, value in values.items() if value == best]
    all_exact = [chain for chain in maximizers if all(exact[i] for i in chain)]
    return best, bool(all_exact), list((all_exact or maximizers)[0]), maximizers


def scored_band(head, tail, pair, m, exact):
    """``_best_band`` over the terms scored as the search scores them:
    every term times m + 1, plus 1 on an exact candidate's tail and pair
    terms, so a far pair, ``tail[a] + head[b]``, carries ``a``'s
    indicator."""
    score = m + 1
    return _best_band(
        [score * h for h in head],
        [score * t + e for t, e in zip(tail, exact)],
        [[score * p + e for p in row] for row, e in zip(pair, exact)],
        m,
    )


def near_and_far_tie(maximizers, width):
    """Whether two maximizers leave the same candidate, one to a near
    neighbour (fewer than ``width`` candidates between) and one to a far
    one."""
    for one, other in itertools.combinations(maximizers, 2):
        k = next(k for k, (a, b) in enumerate(zip(one, other)) if a != b)
        if k and ((one[k] - one[k - 1] - 1 < width) != (other[k] - other[k - 1] - 1 < width)):
            return True
    return False


class TestScoredChain:
    """``_best_band``'s one run over scored terms against every m-chain
    valued alone: value, ``attained`` and witness, with every pair term in
    the band and with the pairs past a band separating, valued on the
    expanded terms."""

    @pytest.mark.parametrize(
        "head, tail, pair, m, exact, expected",
        [
            # the smallest maximizer, candidate 0, is one-sided, and the
            # all-exact candidate 1 ties it: attained, with 1 as witness
            ([0, 0, 0], [1, 1, 0], [[], [], []], 1, [0, 1, 1], (1, True, [1])),
            # (0, 1) and (0, 2) both reach 5, with no and one exact
            # candidate, and the all-exact (1, 2) earns 0: not attained, and
            # the smallest maximizer, not the one with more exact candidates
            ([0, 0, 0], [0, 0, 0], [[5, 5], [0, 0], [0, 0]], 2, [0, 0, 1], (5, False, [0, 1])),
        ],
    )
    def test_tie_cases(self, head, tail, pair, m, exact, expected):
        assert brute_chain(head, tail, pair, m, exact)[:3] == expected
        assert scored_band(head, tail, pair, m, exact) == expected

    def test_random_terms_with_ties(self):
        rng = random.Random(27)
        seen = {"attained": 0, "exact tie": 0, "limit": 0, "counts differ": 0, "m=1": 0, "m=|F|": 0}
        for _ in range(3000):
            n = rng.randint(1, 8)
            m = rng.randint(1, n)
            reach = n - m + 2 if m > 1 else 1
            head = [rng.randint(-1, 1) for _ in range(n)]
            tail = [rng.randint(-1, 1) for _ in range(n)]
            pair = [[rng.randint(-1, 2) for _ in range(reach - 1)] for _ in range(n)]
            exact = [int(rng.random() < 0.7) for _ in range(n)]
            *expected, maximizers = brute_chain(head, tail, pair, m, exact)
            assert scored_band(head, tail, pair, m, exact) == tuple(expected)
            counts = {sum(exact[i] for i in chain) for chain in maximizers}
            seen["attained"] += expected[1]
            seen["exact tie"] += expected[1] and expected[2] != list(maximizers[0])
            seen["limit"] += not expected[1]
            seen["counts differ"] += not expected[1] and len(counts) > 1
            seen["m=1"] += m == 1
            seen["m=|F|"] += m == n
        assert all(count >= 50 for count in seen.values()), seen

    def test_band_against_every_chain(self):
        # pair terms past a random band are tail[a] + head[b], a chain
        # break: the band DP on the band, head and tail agrees with every
        # chain valued on the expanded terms, from a band of width 0, where
        # every pair is far, to one of width slack + 1, where none is
        rng = random.Random(30)
        seen = {"width 0": 0, "no far pair": 0, "m=|F|": 0, "near-far tie": 0, "attained": 0, "limit": 0}
        for _ in range(3000):
            n = rng.randint(2, 8)
            m = rng.randint(2, n)
            slack = n - m
            width = rng.randint(0, slack + 1)
            head = [rng.randint(-1, 1) for _ in range(n)]
            tail = [rng.randint(-1, 1) for _ in range(n)]
            band = [[rng.randint(-1, 2) for _ in range(width)] for _ in range(n)]
            expanded = [
                [band[a][g] if g < width else tail[a] + head[a + 1 + g] for g in range(min(slack + 1, n - 1 - a))]
                for a in range(n)
            ]
            exact = [int(rng.random() < 0.7) for _ in range(n)]
            *expected, maximizers = brute_chain(head, tail, expanded, m, exact)
            assert scored_band(head, tail, band, m, exact) == tuple(expected)
            seen["width 0"] += width == 0
            seen["no far pair"] += width == slack + 1
            seen["m=|F|"] += m == n
            seen["near-far tie"] += near_and_far_tie(maximizers, width)
            seen["attained"] += expected[1]
            seen["limit"] += not expected[1]
        assert all(count >= 50 for count in seen.values()), seen


def _split_optimum(rng: random.Random) -> list[PureStrategy]:
    """The optimal points of some k <= 4 split among 1-3 pure opponents,
    where exact co-location ties the one-sided limits and the supremum is
    attained."""
    points = optimal_locations(rng.randint(1, 4))
    cuts = sorted(rng.sample(range(1, len(points)), rng.randint(1, min(3, len(points))) - 1))
    return [PureStrategy(points[a:b]) for a, b in zip([0, *cuts], [*cuts, len(points)])]


def _rand_opponents(rng: random.Random) -> list[MixedStrategy]:
    """1-3 opponents, each pure or mixing over up to 3 entries, on a coarse
    grid that puts positions at 0 and 1 and makes maxima tie. One draw in
    five is ``_split_optimum``.
    """
    if rng.random() < 0.2:
        return [MixedStrategy.point(s) for s in _split_optimum(rng)]
    denom = rng.choice([2, 3, 4])
    opponents = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(1, 2)
        entries = list({rand_strategy(rng, k, denom) for _ in range(rng.randint(1, 3))})
        weights = [rng.randint(1, 3) for _ in entries]
        opponents.append(
            MixedStrategy(tuple((s, F(w, sum(weights))) for s, w in zip(entries, weights)))
        )
    return opponents


class TestReferenceAgreement:
    """The oracle against ``reference_best_response``: every subset valued
    through ``limit_payoff``, with the same tie-break."""

    def test_best_response_matches_reference(self):
        rng = random.Random(2024)
        seen = {"mixed": 0, "ends": 0, "m=|F|": 0, "tied": 0, "attained": 0, "limit": 0}
        opponent_counts = set()
        instances = 0
        while instances < 300:
            opponents = _rand_opponents(rng)
            family = candidate_family(
                {loc for x in opponents for s, _ in x.support for loc in s}
            )
            m = rng.randint(1, len(family))
            draws = math.prod(len(x.support) for x in opponents)
            if math.comb(len(family), m) * draws > 150:  # keeps the reference fast
                continue
            instances += 1
            supremum, smallest, exact = reference_best_response(opponents, m)
            result = best_response(opponents, m)
            assert result.supremum_payoff == supremum
            assert result.attained == (exact is not None)
            assert result.witness == (smallest if exact is None else exact)
            seen["mixed"] += any(len(x.support) > 1 for x in opponents)
            seen["ends"] += family[0].position == 0 or family[-1].position == 1
            seen["m=|F|"] += m == len(family)
            seen["tied"] += exact is not None and exact != smallest
            seen["attained"] += exact is not None
            seen["limit"] += exact is None
            opponent_counts.add(len(opponents))
        assert all(count >= 10 for count in seen.values()), seen
        assert opponent_counts == {1, 2, 3}

    def test_every_subset_matches_reference(self):
        # each m-subset valued alone, not only the maximiser, so a wrong
        # cell that never wins a search still shows
        rng = random.Random(404)
        seen = {"stacked exact": 0, "one-sided at empty": 0, "end": 0}
        subsets = 0
        while subsets < 1500:
            opponents = _rand_opponents(rng)
            family = candidate_family(
                {loc for x in opponents for s, _ in x.support for loc in s}
            )
            m = rng.randint(1, min(3, len(family)))
            drawn = [
                [loc for s in combo for loc in s]
                for combo in itertools.product(*([s for s, _ in x.support] for x in opponents))
            ]
            for subset in itertools.combinations(family, m):
                subsets += 1
                assert best_subset(subset, m, opponents)[0] == limit_value(opponents, subset)
                seen["stacked exact"] += any(
                    c.side == "exact" and d.count(c.position) >= 2 for c in subset for d in drawn
                )
                seen["one-sided at empty"] += any(
                    c.side != "exact" and c.position not in d for c in subset for d in drawn
                )
                seen["end"] += any(c.position in (0, 1) for c in subset)
        assert all(count >= 10 for count in seen.values()), seen
        # families whose denominators the opponents' tables do not share:
        # enriched with grid points i/16 and their one-sided limits, each
        # subset valued alone; and padded past their size with gap fillers,
        # where the supremum is what the returned witness earns
        rng = random.Random(405)
        seen = {"one-sided beside an opponent": 0, "padded": 0}
        subsets = 0
        while subsets < 1500:
            opponents = _rand_opponents(rng)
            positions = {loc for x in opponents for s, _ in x.support for loc in s}
            family = candidate_family(positions | {F(i, 16) for i in rng.sample(range(17), 2)})
            m = rng.randint(1, 2)
            for subset in itertools.combinations(family, m):
                subsets += 1
                assert best_subset(subset, m, opponents)[0] == limit_value(opponents, subset)
                seen["one-sided beside an opponent"] += any(
                    c.side != "exact" and c.position not in positions
                    and {c.position - F(1, 16), c.position + F(1, 16)} & positions
                    for c in subset
                )
            if math.prod(len(x.support) for x in opponents) <= 9:
                padded = candidate_family(positions)
                supremum, attained, witness = best_subset(padded, len(padded) + rng.randint(1, 3), opponents)
                assert not attained and set(padded) < set(witness)
                assert supremum == limit_value(opponents, witness)
                seen["padded"] += 1
        assert all(count >= 10 for count in seen.values()), seen

    def test_padded_search_beyond_the_family(self):
        rng = random.Random(5)
        instances = 0
        while instances < 30:
            opponents = _rand_opponents(rng)
            family = candidate_family(
                {loc for x in opponents for s, _ in x.support for loc in s}
            )
            if math.prod(len(x.support) for x in opponents) > 9:  # keeps the reference fast
                continue
            instances += 1
            m = len(family) + rng.randint(1, 3)
            result = best_response(opponents, m)
            # interior fillers add no mass: the whole family already reaches it
            assert result.supremum_payoff == reference_best_response(opponents, len(family))[0]
            assert not result.attained
            assert len(result.witness) == m and set(family) <= set(result.witness)
            positions = [loc for x in opponents for s, _ in x.support for loc in s]
            assert result.witness == tuple(sorted([*family, *reference_gap_fillers(positions, m - len(family))]))
            assert limit_value(opponents, result.witness) == result.supremum_payoff


def record_narrow_bands(monkeypatch) -> list[bool]:
    """Patches ``_band_width`` to record, for each search with m >= 2,
    whether its band is narrower than ``slack + 1``, so that some pairs
    are far."""
    narrow = []
    band_width = oracle_module._band_width

    def recorded(xs, keys, held, scale, slack):
        width = band_width(xs, keys, held, scale, slack)
        narrow.append(width <= slack)
        return width

    monkeypatch.setattr(oracle_module, "_band_width", recorded)
    return narrow


def smallest_band_width(family, held, slack):
    """The smallest band width by brute force: each candidate's bounds by a
    linear scan of ``held``, the first held position above its key and the
    last below, and ``_band_width``'s far test applied to every pair; the
    width is at most ``slack + 1``, which it is when nothing is held."""
    if not held:
        return slack + 1
    above = [next((h for h in held if h > x + side), None) for x, side in family]
    below = [next((h for h in reversed(held) if h < x + side), None) for x, side in family]

    def far(a, b):
        return None not in (above[a], below[b]) and family[b][0] >= above[a] and family[a][0] <= below[b]

    size = len(family)
    width = next(w for w in range(size) if all(far(a, b) for a in range(size) for b in range(a + 1 + w, size)))
    return min(width, slack + 1)


class TestBandSearch:
    """The search with the held positions, where pairs past the band are
    far, against the same search with none held, where the band holds
    every pair a chain can use and every pair term is summed from the
    draws."""

    def test_band_search_matches_full_matrix(self, monkeypatch):
        narrow = record_narrow_bands(monkeypatch)
        rng = random.Random(31)
        seen = {"pure band": 0, "mixed band": 0, "co-located": 0, "ends": 0, "padded": 0, "full": 0}
        for _ in range(400):
            if rng.random() < 0.5:
                denom = rng.choice([4, 6, 8, 12])
                strategies = [rand_strategy(rng, rng.randint(1, 3), denom) for _ in range(rng.randint(1, 3))]
                opponents = [MixedStrategy.point(s) for s in strategies]
            else:
                opponents = _rand_opponents(rng)
            scale, rows, table, dens = _grid(opponents)
            family, held = _grid_family(table, scale)
            m = rng.randint(2, len(family) + 3)
            den = math.prod(dens)
            result = _best_subset(family, held, scale, m, rows, den)
            assert result == _best_subset(family, [], scale, m, rows, den)
            used, full = narrow[-2:]
            assert not full
            positions = [loc for x in opponents for s, _ in x.support for loc in s]
            mixed = any(len(x.support) > 1 for x in opponents)
            seen["pure band"] += used and not mixed
            seen["mixed band"] += used and mixed
            seen["co-located"] += used and len(set(positions)) < len(positions)
            seen["ends"] += used and bool({F(0), F(1)} & set(positions))
            seen["padded"] += m > len(family)
            seen["full"] += not used
        assert len(narrow) == 800
        assert all(count >= 20 for count in seen.values()), seen

    def test_far_pair_terms_are_tail_plus_head(self, monkeypatch):
        # a far pair is a chain break: summed from the draws, as the search
        # with no held position sums it, its term is the first candidate's
        # tail plus the second one's head, scores and exact indicators
        # included, and the held positions change neither head nor tail
        terms = []
        widths = []
        best_band = oracle_module._best_band
        band_width = oracle_module._band_width

        def recorded_band(head, tail, pair, m):
            terms.append((head, tail, pair))
            return best_band(head, tail, pair, m)

        def recorded_width(xs, keys, held, scale, slack):
            widths.append(band_width(xs, keys, held, scale, slack))
            return widths[-1]

        monkeypatch.setattr(oracle_module, "_best_band", recorded_band)
        monkeypatch.setattr(oracle_module, "_band_width", recorded_width)
        rng = random.Random(33)
        far = {"pure": 0, "mixed": 0}
        for i in range(400):
            if i % 2:
                opponents = _rand_opponents(rng)
            else:
                denom = rng.choice([4, 6, 8, 12])
                opponents = [MixedStrategy.point(rand_strategy(rng, rng.randint(1, 3), denom)) for _ in range(rng.randint(1, 3))]
            scale, rows, table, dens = _grid(opponents)
            family, held = _grid_family(table, scale)
            m = rng.randint(2, len(family))
            _best_subset(family, held, scale, m, rows, math.prod(dens))
            _best_subset(family, [], scale, m, rows, math.prod(dens))
            (head, tail, _), (full_head, full_tail, pair) = terms[-2:]
            assert (head, tail) == (full_head, full_tail)
            width = widths[-2]
            kind = "mixed" if any(len(x.support) > 1 for x in opponents) else "pure"
            for a, row in enumerate(pair):
                for g in range(width, min(len(row), len(family) - 1 - a)):
                    assert row[g] == tail[a] + head[a + 1 + g]
                    far[kind] += 1
        assert far["pure"] + far["mixed"] >= 1000 and far["mixed"] >= 200, far

    def test_band_width_is_the_smallest(self, monkeypatch):
        # the width each search passes on is the brute-force smallest one;
        # whenever anything is held it is at least 1, because a held x's
        # (x, below) and (x, exact), or (0, exact) and (0, above), are never
        # far, so a search for the width could start at 1 and change nothing
        widths = []
        band_width = oracle_module._band_width

        def recorded(*args):
            widths.append(band_width(*args))
            return widths[-1]

        monkeypatch.setattr(oracle_module, "_band_width", recorded)
        rng = random.Random(37)
        seen = {"none held": 0, "capped": 0, "odd": 0}
        for i in range(400):
            if i % 2:
                opponents = _rand_opponents(rng)
            else:
                denom = rng.choice([4, 6, 8, 12])
                opponents = [MixedStrategy.point(rand_strategy(rng, rng.randint(1, 3), denom)) for _ in range(rng.randint(1, 3))]
            scale, rows, table, dens = _grid(opponents)
            family, held = _grid_family(table, scale)
            m = rng.randint(2, len(family) + 2)
            widths.clear()
            _best_subset(family, held, scale, m, rows, math.prod(dens))
            slack = len(family) - min(m, len(family))
            expected = smallest_band_width(family, held, slack)
            assert widths == [expected], (opponents, m)
            assert expected >= 1
            seen["none held"] += not held
            seen["capped"] += bool(held) and smallest_band_width(family, held, len(family)) > slack + 1
            seen["odd"] += bool(held) and expected % 2 and expected <= slack
        assert all(count >= 20 for count in seen.values()), seen

    def test_mixture_holding_no_position_sums_every_pair(self, monkeypatch):
        # the k-facility player against make_olk(l, k) with l < k: no
        # position is held in every entry, so no pair is far; the l-facility
        # player against the optimum point mass has a narrow band
        narrow = record_narrow_bands(monkeypatch)
        for l, k in [(2, 3), (2, 4), (3, 5)]:
            scale, _, table, _ = _grid([make_olk(l, k)])
            assert _grid_family(table, scale)[1] == []
            best_response([make_olk(l, k)], k)
            assert narrow[-1] is False
            best_response([point(*optimal_locations(k))], l)
            assert narrow[-1] is True
        assert len(narrow) == 6


def _mirrored(strategy: MixedStrategy) -> MixedStrategy:
    """The strategy with every position x moved to 1 - x."""
    return MixedStrategy(tuple((PureStrategy(tuple(1 - x for x in reversed(s))), p) for s, p in strategy.support))


class TestMetamorphic:
    """Relations between the oracle's own answers, which need no reference
    and so reach sizes the references cannot: mirroring every position,
    permuting the players, and adding facilities."""

    @pytest.mark.parametrize(
        "counts, construct",
        [
            ((6, 12), two_player_equilibrium),
            ((2, 3, 10), lambda game: construct_mixed(game, find_partition(game))),
            ((3, 3, 12), lambda game: construct_mixed(game, find_partition(game))),
            ((100, 100, 100), lambda game: MixedProfile.from_pure(construct_pure(game))),
            ((200, 200), lambda game: MixedProfile.from_pure(construct_pure(game))),
        ],
        ids=["6,12", "2,3,10", "3,3,12", "100,100,100", "200,200"],
    )
    def test_mirror_and_permutation(self, counts, construct):
        # mirroring keeps each player's supremum, attained and gain, though
        # the smallest witness may change; permuting the players permutes
        # the results, witnesses included
        game = make_game(counts)
        profile = construct(game)
        results = certify_no_deviation(game, profile)
        mirrored = certify_no_deviation(game, MixedProfile(tuple(map(_mirrored, profile.strategies))))
        assert [(r.supremum_payoff, r.attained, r.gain) for r in mirrored] == [
            (r.supremum_payoff, r.attained, r.gain) for r in results
        ]
        for order in list(itertools.permutations(range(len(counts))))[1:]:
            permuted = MixedProfile(tuple(profile.strategies[i] for i in order))
            assert list(certify_no_deviation(make_game([counts[i] for i in order]), permuted)) == [
                results[i] for i in order
            ]

    def test_supremum_never_falls_as_m_rises(self):
        # from one facility to three past the family's size, across the
        # padding boundary: never falling, and constant once the whole
        # family is taken
        rng = random.Random(21)
        for _ in range(40):
            opponents = _rand_opponents(rng)
            scale, _, table, _ = _grid(opponents)
            size = len(_grid_family(table, scale)[0])
            sups = [best_response(opponents, m).supremum_payoff for m in range(1, size + 4)]
            assert all(a <= b for a, b in zip(sups, sups[1:])), sups
            assert len(set(sups[size - 1 :])) == 1, sups


class TestKnapsackAgreement:
    """The oracle against ``reference_pure_best_response``: pure opponents
    valued per occupied point, with no subset search and no cell kernel."""

    def test_seeded_point_masses(self):
        rng = random.Random(13)
        seen = {"co-located": 0, "ends": 0, "attained": 0, "limit": 0, "padded": 0}
        ms = set()
        instances = 0
        while instances < 300:
            if rng.random() < 0.2:
                strategies = _split_optimum(rng)
            else:
                denom = rng.choice([6, 8, 12, 24])
                strategies = [rand_strategy(rng, rng.randint(1, 3), denom) for _ in range(rng.randint(1, 3))]
            positions = [x for s in strategies for x in s]
            family = candidate_family(positions)
            m = rng.randint(1, 5)
            instances += 1
            opponents = [MixedStrategy.point(s) for s in strategies]
            result = best_response(opponents, m)
            supremum = reference_pure_best_response(positions, m)
            assert result.supremum_payoff == supremum
            assert limit_value(opponents, result.witness) == supremum
            seen["co-located"] += len(set(positions)) < len(positions)
            seen["ends"] += bool({F(0), F(1)} & set(positions))
            seen["attained"] += result.attained
            seen["limit"] += not result.attained
            seen["padded"] += m > len(family)
            ms.add(m)
        assert all(count >= 10 for count in seen.values()), seen
        assert ms == {1, 2, 3, 4, 5}

    def test_every_construct_pure_player(self):
        # every admissible game with n <= 10
        players = 0
        for counts in _atlas_multisets(10):
            game = make_game(counts)
            if not exists_pure(game).exists:
                continue
            profile = construct_pure(game)
            for player, m in enumerate(game.counts):
                rest = [s for i, s in enumerate(profile.strategies) if i != player]
                result = best_response([MixedStrategy.point(s) for s in rest], m)
                assert result.supremum_payoff == reference_pure_best_response([x for s in rest for x in s], m)
                players += 1
        assert players == 408

    def test_seeded_profiles_up_to_sixty_facilities(self):
        # one seeded player of each of 40 pure profiles of 2-6 players and
        # up to 60 facilities, each player's on one small grid i/q, ends
        # included
        rng = random.Random(60)
        seen = {"co-located": 0, "ends": 0, "attained": 0, "limit": 0, "m >= 10": 0}
        for _ in range(40):
            n = rng.randint(2, 60)
            cuts = sorted(rng.sample(range(1, n), rng.randint(2, min(n, 6)) - 1))
            counts = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
            strategies = []
            for m in counts:
                q = max(m - 1, rng.choice((4, 6, 8, 12, 24)))
                strategies.append(PureStrategy(tuple(F(i, q) for i in sorted(rng.sample(range(q + 1), m)))))
            player = rng.randrange(len(counts))
            m, rest = counts[player], strategies[:player] + strategies[player + 1 :]
            positions = [x for s in rest for x in s]
            opponents = [MixedStrategy.point(s) for s in rest]
            result = best_response(opponents, m)
            assert result.supremum_payoff == reference_pure_best_response(positions, m)
            assert limit_value(opponents, result.witness) == result.supremum_payoff
            seen["co-located"] += len(set(positions)) < len(positions)
            seen["ends"] += bool({F(0), F(1)} & set(positions))
            seen["attained"] += result.attained
            seen["limit"] += not result.attained
            seen["m >= 10"] += m >= 10
        assert all(count >= 3 for count in seen.values()), seen

    def test_large_constructions_certify(self):
        # construct_pure of four games with 16 to 40 facilities and of seeded
        # games with 30 <= n <= 100: every player's supremum is the
        # knapsack's and its payoff in the equilibrium, so every gain is 0;
        # then (50,50,50,50), (100,100,100) and (200,200), every gain 0 and
        # one seeded player's supremum the knapsack's, all three certified
        # in under 1.5 s of CPU: about 0.13 s with the band of near pairs,
        # about 3 s when every pair term is summed from the draws
        rng = random.Random(100)
        games = [(5, 5, 6), (6, 7, 7), (8, 8, 8), (10, 10, 10, 10)]
        while len(games) < 10:
            n = rng.randint(30, 100)
            cuts = sorted(rng.sample(range(1, n), rng.randint(2, 10) - 1))
            counts = tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))
            if exists_pure(make_game(counts)).exists:
                games.append(counts)
        for counts in games:
            profile = construct_pure(make_game(counts))
            results = certify_no_deviation(make_game(counts), profile)
            for player, (m, result) in enumerate(zip(counts, results)):
                rest = [x for i, s in enumerate(profile.strategies) if i != player for x in s]
                assert result.gain == 0, (counts, player)
                assert result.supremum_payoff == reference_pure_best_response(rest, m)
        spent = 0.0
        for counts in [(50, 50, 50, 50), (100, 100, 100), (200, 200)]:
            profile = construct_pure(make_game(counts))
            start = time.process_time()
            results = certify_no_deviation(make_game(counts), profile)
            spent += time.process_time() - start
            assert all(result.gain == 0 for result in results), counts
            player = rng.randrange(len(counts))
            rest = [x for i, s in enumerate(profile.strategies) if i != player for x in s]
            assert results[player].supremum_payoff == reference_pure_best_response(rest, counts[player])
        assert spent < 1.5, spent


class TestPureClosedForm:
    """The oracle against ``reference_pure_supremum``: pure opponents valued
    by their gap pieces alone, cheap enough to check every player of pure
    constructions of up to a thousand facilities, where the search runs
    banded DP rows that no other reference reaches."""

    def test_large_constructions(self):
        players = 0
        for counts in [(50, 50, 50, 50), (100, 100, 100), (200, 200), (500, 500)]:
            profile = construct_pure(make_game(counts))
            results = certify_no_deviation(make_game(counts), profile)
            for player, (m, result) in enumerate(zip(counts, results)):
                rest = [x for i, s in enumerate(profile.strategies) if i != player for x in s]
                assert result.supremum_payoff == reference_pure_supremum(rest, m), (counts, player)
                assert result.gain == 0, (counts, player)
                players += 1
        assert players == 11

    def test_seeded_point_masses(self):
        # 1-3 pure opponents on grids i/q with q from 4 to 30, ends and
        # shared points included, m from 1 past the family's size; the
        # knapsack checks the closed form on the same calls
        rng = random.Random(21)
        seen = {"co-located": 0, "ends": 0, "padded": 0, "m >= 10": 0}
        for _ in range(300):
            q = rng.randint(4, 30)
            strategies = [rand_strategy(rng, rng.randint(1, 4), q) for _ in range(rng.randint(1, 3))]
            positions = [x for s in strategies for x in s]
            m = rng.randint(1, 14)
            result = best_response([MixedStrategy.point(s) for s in strategies], m)
            supremum = reference_pure_supremum(positions, m)
            assert result.supremum_payoff == supremum, (strategies, m)
            assert reference_pure_best_response(positions, m) == supremum
            seen["co-located"] += len(set(positions)) < len(positions)
            seen["ends"] += bool({F(0), F(1)} & set(positions))
            seen["padded"] += m > len(candidate_family(positions))
            seen["m >= 10"] += m >= 10
        assert all(count >= 20 for count in seen.values()), seen


class TestCertify:
    def test_two_player_equilibrium_gains(self):
        game = make_game([2, 4])
        profile = MixedProfile(
            (make_olk(2, 4), MixedStrategy.point(PureStrategy(optimal_locations(4))))
        )
        results = certify_no_deviation(game, profile)
        assert [r.gain for r in results] == [F(0), F(0)]
        assert results[0].attained

    def test_refutes_suboptimal_point_mass(self):
        game = make_game([4, 4])
        profile = MixedProfile(
            (
                MixedStrategy.point(PureStrategy(optimal_locations(4))),
                MixedStrategy.point(PureStrategy.of("1/8", "3/8", "5/8", "3/4")),
            )
        )
        current = mixed_payoff(game, profile)
        assert current[1] == F(15, 32)
        results = certify_no_deviation(game, profile)
        assert results[1].supremum_payoff == F(1, 2)
        assert results[1].gain == F(1, 32)
        assert tuple(o.position for o in results[1].witness) == optimal_locations(4)
        assert not is_equilibrium(results)

    def test_gain_is_supremum_less_mixed_payoff(self):
        # the baseline each search pays from its own opponent draws is the
        # player's mixed_payoff, and each search is best_response against
        # the other players: seeded pure profiles with co-located rivals
        # and points at 0 and 1, mixtures with uneven weights, padded
        # players and one-player games
        rng = random.Random(27)
        profiles = [
            (make_game([1, 5]), PureProfile.of([0], [0, "1/4", "1/2", "3/4", 1])),
            (make_game([1, 4]), PureProfile.of(["1/2"], [0, "1/4", "3/4", 1])),
            (make_game([1]), PureProfile.of(["1/3"])),
            (
                make_game([2]),
                MixedProfile(
                    (MixedStrategy(((PureStrategy.of(0, 1), F(1, 3)), (PureStrategy.of("1/4", "1/2"), F(2, 3)))),)
                ),
            ),
        ]
        while len(profiles) < 240:
            counts = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
            denom = rng.choice([2, 3, 4, 6])
            if rng.random() < 0.5:
                strategies = [rand_strategy(rng, c, max(denom, c - 1)) for c in counts]
                profiles.append((make_game(counts), PureProfile(tuple(strategies))))
                continue
            mixtures = []
            for c in counts:
                entries = list({rand_strategy(rng, c, max(denom, c - 1)) for _ in range(rng.choice([1, 2, 3]))})
                weights = [rng.randint(1, 4) for _ in entries]
                mixtures.append(MixedStrategy(tuple((s, F(w, sum(weights))) for s, w in zip(entries, weights))))
            profiles.append((make_game(counts), MixedProfile(tuple(mixtures))))
        seen = {"co-located": 0, "ends": 0, "uneven": 0, "padded": 0, "one player": 0, "refuted": 0}
        for game, profile in profiles:
            mixed = MixedProfile.from_pure(profile) if isinstance(profile, PureProfile) else profile
            results = certify_no_deviation(game, profile)
            paid = mixed_payoff(game, mixed)
            assert [r.gain for r in results] == [r.supremum_payoff - p for r, p in zip(results, paid)]
            for i, (r, m) in enumerate(zip(results, game.counts)):
                alone = best_response(mixed.strategies[:i] + mixed.strategies[i + 1 :], m)
                assert alone.gain is None
                assert (alone.supremum_payoff, alone.attained, alone.witness) == (
                    r.supremum_payoff,
                    r.attained,
                    r.witness,
                )
            drawn = [[loc for s, _ in x.support for loc in s] for x in mixed.strategies]
            positions = [loc for locs in drawn for loc in locs]
            seen["co-located"] += any(
                set(a) & set(b) for i, a in enumerate(drawn) for b in drawn[i + 1 :]
            )
            seen["ends"] += bool({F(0), F(1)} & set(positions))
            seen["uneven"] += any(len({p for _, p in x.support}) > 1 for x in mixed.strategies)
            seen["padded"] += any(
                m > len(candidate_family([loc for j, locs in enumerate(drawn) if j != i for loc in locs]))
                for i, m in enumerate(game.counts)
                if game.num_players > 1
            )
            seen["one player"] += game.num_players == 1
            seen["refuted"] += not is_equilibrium(results)
        assert seen.pop("one player") == 2 and all(count >= 8 for count in seen.values()), seen

    def test_hotelling_midpoint(self):
        game = make_game([1, 1])
        results = certify_no_deviation(game, PureProfile.of(["1/2"], ["1/2"]))
        assert [r.gain for r in results] == [F(0), F(0)]

    def test_strict_loss_from_leaving_optimum(self):
        # holding any imitation fixed, a strong player off the optimum earns
        # strictly less than the equilibrium share
        rng = random.Random(77)
        handmade = MixedStrategy.uniform(
            [PureStrategy.of("1/8", "7/8"), PureStrategy.of("3/8", "5/8")]
        )
        cases = {
            (1, 2): [make_olk(1, 2)],
            (2, 3): [make_olk(2, 3)],
            (2, 4): [make_olk(2, 4), handmade],
        }
        for (l, k), imitations in cases.items():
            game = make_game([l, k])
            value = 1 - F(l, 2 * k)
            for x1 in imitations:
                for _ in range(20):
                    s2 = rand_strategy(rng, k, 16)
                    if s2.locations == optimal_locations(k):
                        continue
                    payoff = mixed_payoff(
                        game, MixedProfile((x1, MixedStrategy.point(s2)))
                    )[1]
                    assert payoff < value

    def test_witness_evaluates_to_supremum(self):
        # the reported witness, replayed through the limit evaluator, must
        # reproduce the supremum exactly
        rng = random.Random(19)
        for _ in range(10):
            counts = rng.choice([(1, 1), (1, 2), (2, 2), (1, 1, 2)])
            game = make_game(counts)
            profile = rand_profile(rng, game, denom=12)
            player = rng.randrange(game.num_players)
            opponents = [
                MixedStrategy.point(s)
                for i, s in enumerate(profile.strategies)
                if i != player
            ]
            result = best_response(opponents, game.counts[player])
            entries = [
                [loc for loc in s] for i, s in enumerate(profile.strategies) if i != player
            ]
            entries.insert(player, list(result.witness))
            replay = limit_payoff(entries, deviator=player)
            assert replay.payoffs[player] == result.supremum_payoff

    def test_agreement_with_structural_verifier(self):
        rng = random.Random(4)
        pool = [(1, 1), (2, 2), (1, 2), (1, 1, 2), (1, 2, 2), (2, 3), (1, 1, 4)]
        for _ in range(60):
            counts = rng.choice(pool)
            game = make_game(counts)
            profile = rand_profile(rng, game, denom=rng.choice([8, 12]))
            verdict = verify_multi_unit(game, profile).verdict
            certified = is_equilibrium(certify_no_deviation(game, profile))
            assert verdict == certified, (counts, profile)

    def test_agreement_on_seeded_profiles_up_to_sixteen_facilities(self):
        # players share points and sit at 0 and 1; every refuting witness,
        # replayed through the limit evaluator, pays its supremum
        rng = random.Random(35)
        pool = [(2, 2, 2, 2, 2, 2), (4, 4, 4, 4), (1, 2, 3, 4, 5), (8, 8), (3, 5), (2, 3, 4)]
        seen = {"shared": 0, "ends": 0, "refuted": 0}
        for _ in range(300):
            game = make_game(rng.choice(pool))
            profile = rand_profile(rng, game, denom=rng.randint(8, 24))
            results = certify_no_deviation(game, profile)
            assert verify_multi_unit(game, profile).verdict == is_equilibrium(results), profile
            points = [x for s in profile.strategies for x in s]
            seen["shared"] += len(set(points)) < len(points)
            seen["ends"] += 0 in points or 1 in points
            for player, result in enumerate(results):
                if result.gain > 0:
                    entries = [list(s) for s in profile.strategies]
                    entries[player] = list(result.witness)
                    assert limit_payoff(entries, deviator=player).payoffs[player] == result.supremum_payoff
                    seen["refuted"] += 1
        assert all(seen.values()), seen

    def test_every_pure_construction_agrees_with_structural_verifier(self):
        # construct_pure of every game without a dominant player, 4 <= n <= 20:
        # the T3/T4 verifier and the oracle both certify it
        games = 0
        for counts in _atlas_multisets(20):
            game = make_game(counts)
            if game.n < 4 or has_dominant_player(game) is not None:
                continue
            profile = construct_pure(game)
            assert verify_multi_unit(game, profile).verdict, counts
            assert is_equilibrium(certify_no_deviation(game, profile)), counts
            games += 1
        assert games == 2143

    def test_monopoly_routes_agree(self):
        for counts in ([1], [3], [5]):
            game = make_game(counts)
            profile = construct_pure(game)
            assert verify_multi_unit(game, profile).verdict
            assert is_equilibrium(certify_no_deviation(game, profile))

    def test_constructed_equilibria_certify(self):
        for counts in [(2, 2), (1, 1, 2), (1, 2, 2), (1, 1, 2, 2)]:
            game = make_game(counts)
            profile = construct_pure(game)
            assert is_equilibrium(certify_no_deviation(game, profile))
