"""Tests for the best-response oracle and deviation certification."""

import random
import time
from fractions import Fraction

import pytest

from hotelling import (
    InvalidInput,
    MixedProfile,
    MixedStrategy,
    OffsetLocation,
    PureProfile,
    PureStrategy,
    SearchTooLarge,
    SupportTooLarge,
    best_response,
    certify_no_deviation,
    construct_pure,
    grid_search,
    is_equilibrium,
    limit_payoff,
    make_game,
    make_olk,
    mixed_payoff,
    optimal_locations,
    verify_multi_unit,
)
from hotelling.oracle import candidate_family, _expected_value, _opponent_combos

from helpers import rand_profile, rand_strategy

F = Fraction


def point(*locations):
    return MixedStrategy.point(PureStrategy.of(*locations))


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

    def test_over_cap_search_is_refused(self):
        # 30 candidates and m = 5: C(30, 5) = 142,506 subsets exceed the cap
        opponent = [F(i, 17) for i in range(1, 11)]
        assert len(candidate_family(opponent)) == 30
        with pytest.raises(SearchTooLarge):
            best_response([point(*opponent)], 5)
        # player 0 of this profile faces exactly those opponents
        profile = PureProfile.of([F(i, 17) for i in range(12, 17)], opponent[:5], opponent[5:])
        with pytest.raises(SearchTooLarge):
            certify_no_deviation(make_game([5, 5, 5]), profile)

    def test_oversized_opponent_support_is_refused(self):
        # 101**3 = 1,030,301 opponent draws exceed the support cap of 10**6,
        # so the search is refused before any draw is built
        uniform = MixedStrategy.uniform([PureStrategy((F(i, 100),)) for i in range(101)])
        start = time.perf_counter()
        with pytest.raises(SupportTooLarge):
            best_response([uniform, uniform, uniform], 3)
        assert time.perf_counter() - start < 1


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


class TestGridComparison:
    def test_grid_never_beats_oracle(self):
        rng = random.Random(31)
        for _ in range(4):
            k = rng.randint(1, 4)
            opp = [MixedStrategy.point(rand_strategy(rng, k, 20))]
            oracle = best_response(opp, 1)
            grid = grid_search(opp, 1, 1000)
            assert grid <= oracle.supremum_payoff
            assert oracle.supremum_payoff - grid <= F(2, 1000)

    def test_two_facility_grid(self):
        opp = [point("1/3", "2/3")]
        oracle = best_response(opp, 2)
        grid = grid_search(opp, 2, 128)
        assert grid <= oracle.supremum_payoff <= grid + F(2, 128)

    def test_grid_cap(self):
        with pytest.raises(SearchTooLarge):
            grid_search([point("1/2")], 3, 1000)

    def test_grid_resolution_is_an_input_error(self):
        with pytest.raises(InvalidInput):
            grid_search([point("1/2")], 1, 1)
        # four facilities do not fit on the three points {0, 1/2, 1}
        with pytest.raises(InvalidInput):
            grid_search([point("1/2")], 4, 2)

    def test_adding_grid_candidates_never_raises_supremum(self):
        # the offset family is already complete: enriching it with exact
        # grid points leaves the supremum unchanged
        rng = random.Random(8)
        for _ in range(3):
            k = rng.randint(1, 3)
            opp = [MixedStrategy.point(rand_strategy(rng, k, 12))]
            combos = _opponent_combos(opp)
            family = candidate_family(
                [loc for s, _ in opp[0].support for loc in s]
            )
            enriched = sorted(
                set(family)
                | {OffsetLocation(F(i, 16), "exact") for i in range(17)}
            )
            import itertools

            base = max(
                _expected_value(c, combos)
                for c in itertools.combinations(family, min(2, len(family)))
            )
            richer = max(
                _expected_value(c, combos)
                for c in itertools.combinations(enriched, min(2, len(family)))
            )
            assert richer == base


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
