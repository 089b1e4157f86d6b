"""Tests for verifiers, existence classification and constructors."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from hotelling import (
    ConstructionUnavailable,
    FacilityRef,
    InvalidInput,
    InvalidPartition,
    MixedProfile,
    MixedStrategy,
    PureProfile,
    PureStrategy,
    WrongGameKind,
    certify_no_deviation,
    classify,
    construct_even,
    construct_mixed,
    construct_odd,
    construct_pure,
    exists_pure,
    find_partition,
    is_equilibrium,
    make_game,
    make_olk,
    masses,
    mixed_payoff,
    optimal_locations,
    social_cost,
    two_player_equilibrium,
    verify_multi_unit,
    verify_single_unit,
    verify_two_player,
)
from hotelling.equilibrium import (
    COND_EQUAL_OWN_MASSES,
    COND_FLATTENED_EQUILIBRIUM,
    COND_LONE_ISOLATION,
    COND_OPTIMAL_POINT_MASS,
    COND_PAIRED_EXTREMES,
)

from hotelling.serialize import profile_document

from helpers import flatten, rand_profile

F = Fraction


def profile_s3():
    return PureProfile.of(["6/7"], ["4/7"], ["1/7", "3/7"], ["1/7", "6/7"])


def profile_s4():
    return PureProfile.of(["1/7"], ["4/7"], ["3/7", "6/7"], ["1/7", "6/7"])


class TestOptimalLocations:
    def test_four(self):
        assert optimal_locations(4) == (F(1, 8), F(3, 8), F(5, 8), F(7, 8))

    def test_one(self):
        assert optimal_locations(1) == (F(1, 2),)

    def test_two_matches_brute_force(self):
        grid = [F(i, 100) for i in range(101)]
        best = min(
            (social_cost(pair) for pair in itertools.combinations(grid, 2)),
        )
        assert best == social_cost(optimal_locations(2)) == F(1, 8)

    def test_invalid(self):
        with pytest.raises(InvalidInput):
            optimal_locations(0)


class TestVerifySingleUnit:
    def test_midpoint_pair_passes(self):
        assert verify_single_unit(PureProfile.of(["1/2"], ["1/2"])).verdict

    def test_lone_extremes_fail(self):
        report = verify_single_unit(PureProfile.of(["1/4"], ["3/4"]))
        assert not report.verdict
        assert not report.result(COND_PAIRED_EXTREMES).passed

    def test_flattened_six_facility_equilibrium(self):
        # paired extremes at 1/7 and 6/7, lone 3/7 and 4/7: every payoff >= 1/7
        flat = PureProfile.of(["1/7"], ["1/7"], ["3/7"], ["4/7"], ["6/7"], ["6/7"])
        payoffs = masses(flat).payoffs
        assert min(payoffs) == F(1, 7)
        assert verify_single_unit(flat).verdict
        # breaking one extreme pair breaks the equilibrium
        broken = PureProfile.of(["1/7"], ["1/7"], ["3/7"], ["4/7"], ["5/7"], ["6/7"])
        assert not verify_single_unit(broken).verdict

    def test_monopoly_is_trivially_an_equilibrium(self):
        report = verify_single_unit(PureProfile.of(["1/3"]))
        assert report.verdict and report.conditions == ()

    def test_wrong_game_kind(self):
        with pytest.raises(WrongGameKind):
            verify_single_unit(PureProfile.of(["1/4", "3/4"], ["1/2"]))


class TestVerifyMultiUnit:
    def test_odd_construction_passes(self):
        game = make_game([1, 2, 2])
        profile = PureProfile.of(["1/2"], ["1/6", "5/6"], ["1/6", "5/6"])
        report = verify_multi_unit(game, profile)
        assert report.verdict
        per_facility = masses(profile)
        assert per_facility.facility_masses[FacilityRef(0, 0, F(1, 2))] == F(1, 3)

    def test_lone_neighbor_failure(self):
        game = make_game([1, 1, 2, 2])
        report = verify_multi_unit(game, profile_s3())
        assert not report.verdict
        failure = report.result(COND_LONE_ISOLATION)
        assert not failure.passed
        assert failure.witness == {
            "player": 2,
            "position": F(3, 7),
            "neighbor": F(1, 7),
        }

    def test_unequal_masses_failure(self):
        game = make_game([1, 1, 2, 2])
        report = verify_multi_unit(game, profile_s4())
        assert report.result(COND_LONE_ISOLATION).passed
        failure = report.result(COND_EQUAL_OWN_MASSES)
        assert not failure.passed
        assert failure.witness["player"] == 2
        assert {failure.witness["mass_low"], failure.witness["mass_high"]} == {
            F(1, 7),
            F(3, 14),
        }

    def test_passing_profiles_respect_structure(self):
        # peripherals host >= 2 facilities, paired facilities balance their sides
        for counts in [(2, 2), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 1, 2, 2)]:
            game = make_game(counts)
            profile = construct_pure(game)
            assert verify_multi_unit(game, profile).verdict
            report = masses(profile)
            cls = classify(profile)
            occupied = {x for s in profile.strategies for x in s}
            extremes = {min(occupied), max(occupied)}
            for ref, c in cls.items():
                if ref.position in extremes:
                    assert len(c.co_located_players) >= 2
                if c.is_paired:
                    assert report.left_masses[ref] == report.right_masses[ref]

    def test_flattened_condition_matches_single_unit_route(self):
        # T4-3 reuses the multi-unit mass report; flattening is the reference route
        rng = random.Random(43)
        outcomes = set()
        for _ in range(300):
            k = rng.randint(2, 4)
            game = make_game([rng.randint(1, 8 // k) for _ in range(k)])
            profile = rand_profile(rng, game, denom=rng.choice([4, 6, 8]))
            if exists_pure(game) and rng.random() < 0.5:
                # a constructed equilibrium, half the time with one player redrawn
                strategies = list(construct_pure(game).strategies)
                if rng.random() < 0.5:
                    i = rng.randrange(k)
                    strategies[i] = profile.strategies[i]
                profile = PureProfile(tuple(strategies))
            t43 = verify_multi_unit(game, profile).result(COND_FLATTENED_EQUILIBRIUM)
            reference = verify_single_unit(flatten(game, profile).profile)
            assert t43.passed == reference.verdict
            if not reference.verdict:
                first = reference.failed()[0]
                assert t43.witness == {"condition": first.condition, **first.witness}
            outcomes.add((t43.passed, (t43.witness or {}).get("condition")))
        assert outcomes == {(True, None), (False, "T3-1"), (False, "T3-2")}


    def test_witnesses_are_first_in_player_slot_order(self):
        # witnesses re-derived from raw positions, without classify or the verifier
        rng = random.Random(59)
        seen = set()
        for _ in range(600):
            k = rng.randint(2, 5)
            game = make_game([rng.randint(1, 12 // k) for _ in range(k)])
            profile = rand_profile(rng, game, denom=rng.choice([6, 8]))
            if exists_pure(game) and rng.random() < 0.4:
                strategies = list(construct_pure(game).strategies)
                i = rng.randrange(k)
                strategies[i] = profile.strategies[i]
                profile = PureProfile(tuple(strategies))
            assert list(classify(profile)) == profile.refs()

            hosts = Counter(x for s in profile.strategies for x in s)
            positions = sorted(hosts)
            lone = None
            for player, strategy in enumerate(profile.strategies):
                for x in strategy:
                    at = positions.index(x)
                    left = positions[at - 1] if at > 0 else None
                    right = positions[at + 1] if at + 1 < len(positions) else None
                    neighbor = next((p for p in (left, right) if p in strategy.locations), None)
                    if hosts[x] == 1 and neighbor is not None:
                        lone = lone or {"player": player, "position": x, "neighbor": neighbor}

            facility_masses = masses(profile).facility_masses
            unequal = None
            for player, strategy in enumerate(profile.strategies):
                values = [(x, facility_masses[FacilityRef(player, slot, x)]) for slot, x in enumerate(strategy)]
                low = min(v for _, v in values)
                high = max(v for _, v in values)
                if low != high and unequal is None:
                    unequal = {
                        "player": player,
                        "position_low": next(x for x, v in values if v == low),
                        "mass_low": low,
                        "position_high": next(x for x, v in values if v == high),
                        "mass_high": high,
                    }

            report = verify_multi_unit(game, profile)
            assert report.result(COND_LONE_ISOLATION).witness == lone
            assert report.result(COND_EQUAL_OWN_MASSES).witness == unequal
            seen.add((lone is None, unequal is None))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


class TestExistsPure:
    @pytest.mark.parametrize(
        "counts,expected",
        [
            ((1, 2), False),
            ((1, 1, 1), False),
            ((1, 1, 2, 2), True),
            ((1, 1), True),
            ((2,), True),
            ((5,), True),
            ((1, 3), False),
            ((2, 2), True),
            ((1, 1, 4), False),
        ],
    )
    def test_table(self, counts, expected):
        assert exists_pure(make_game(counts)).exists is expected


class TestConstructEven:
    def test_symmetric_two_player(self):
        profile = construct_even(make_game([2, 2]))
        assert profile.strategies[0].locations == (F(1, 4), F(3, 4))
        assert profile.strategies[1].locations == (F(1, 4), F(3, 4))

    def test_three_player_blocks(self):
        profile = construct_even(make_game([1, 1, 2]))
        assert profile.strategies[0].locations == (F(1, 4),)
        assert profile.strategies[1].locations == (F(3, 4),)
        assert profile.strategies[2].locations == (F(1, 4), F(3, 4))

    def test_dominant_refused(self):
        with pytest.raises(ConstructionUnavailable):
            construct_even(make_game([1, 2]))

    def test_every_position_hosts_two_distinct_players(self):
        for counts in [(2, 2), (1, 1, 2), (2, 2, 2), (3, 3), (1, 2, 3), (2, 3, 3)]:
            game = make_game(counts)
            profile = construct_even(game)
            owners = {}
            for ref in profile.refs():
                owners.setdefault(ref.position, []).append(ref.player)
            for position, players in owners.items():
                assert len(players) == 2 and players[0] != players[1], (counts, position)


class TestConstructOdd:
    def test_smallest_case(self):
        profile = construct_odd(make_game([1, 2, 2]))
        assert profile.strategies[0].locations == (F(1, 2),)
        assert profile.strategies[1].locations == (F(1, 6), F(5, 6))
        assert profile.strategies[2].locations == (F(1, 6), F(5, 6))
        assert masses(profile).payoffs == (F(1, 3), F(1, 3), F(1, 3))

    def test_remaining_count_allocation(self):
        profile = construct_odd(make_game([1, 1, 1, 2]))
        p = F(1, 6)
        assert profile.strategies[0].locations == (3 * p,)
        assert profile.strategies[1].locations == (5 * p,)
        assert profile.strategies[2].locations == (p,)
        assert profile.strategies[3].locations == (p, 5 * p)

    def test_small_games_refused(self):
        with pytest.raises(ConstructionUnavailable):
            construct_odd(make_game([1, 1, 1]))

    def test_two_players_refused(self):
        with pytest.raises(ConstructionUnavailable):
            construct_odd(make_game([3, 3]))  # even n anyway

    def test_equal_counts_tie_breaking(self):
        game = make_game([3, 3, 3])
        profile = construct_odd(game)
        assert verify_multi_unit(game, profile).verdict
        report = masses(profile)
        p = F(1, 10)
        for ref, mass in report.facility_masses.items():
            expected = p * F(4, 3) if ref.player == 0 else p
            assert mass == expected


class TestConstructPure:
    def test_monopoly(self):
        profile = construct_pure(make_game([3]))
        assert profile.strategies[0].locations == optimal_locations(3)

    def test_two_singletons(self):
        profile = construct_pure(make_game([1, 1]))
        assert masses(profile).payoffs == (F(1, 2), F(1, 2))

    def test_no_pure_cases(self):
        for counts in [(1, 2), (1, 1, 1), (1, 1, 4)]:
            with pytest.raises(ConstructionUnavailable):
                construct_pure(make_game(counts))

    def test_flattened_structure_of_constructions(self):
        # paired owners earn alike; a lone facility with paired neighbors earns more
        for counts in [(1, 2, 2), (1, 1, 1, 2), (3, 3, 3), (2, 2, 3)]:
            game = make_game(counts)
            profile = construct_pure(game)
            flat = flatten(game, profile)
            flat_payoffs = masses(flat.profile).payoffs
            cls = classify(flat.profile)
            paired_payoffs = {
                flat_payoffs[ref.player]
                for ref, c in cls.items()
                if c.is_paired
            }
            assert len(paired_payoffs) == 1
            paired_value = paired_payoffs.pop()
            paired_positions = {
                ref.position for ref, c in cls.items() if c.is_paired
            }
            for ref, c in cls.items():
                if not c.is_lone:
                    continue
                neighbors = {c.left_neighbor, c.right_neighbor} - {None}
                if neighbors and neighbors <= paired_positions:
                    assert flat_payoffs[ref.player] > paired_value


class TestPartition:
    def test_dominant_blocks(self):
        plan = find_partition(make_game([1, 1, 4]))
        assert plan.b == (2, 2)
        assert plan.blocks == ((F(1, 8), F(3, 8)), (F(5, 8), F(7, 8)))

    def test_unit_weak_players(self):
        plan = find_partition(make_game([1, 1, 1, 6]))
        assert plan.b == (2, 2, 2)

    def test_blocks_follow_player_index(self):
        # player 0 owns more than player 1 yet still gets the leftmost block
        plan = find_partition(make_game([2, 1, 6]))
        assert plan.b == (4, 2)
        assert plan.blocks == (optimal_locations(6)[:4], optimal_locations(6)[4:])

    def test_non_integral(self):
        assert find_partition(make_game([1, 2, 4])) is None

    def test_requires_dominance(self):
        with pytest.raises(WrongGameKind):
            find_partition(make_game([1, 1, 2]))

    def test_monopoly_has_no_partition(self):
        # a monopolist dominates but has no weak player to mix
        assert find_partition(make_game([3])) is None


class TestConstructMixed:
    def test_dominant_player_payoffs(self):
        game = make_game([1, 1, 4])
        profile = construct_mixed(game, find_partition(game))
        assert mixed_payoff(game, profile) == (F(1, 8), F(1, 8), F(3, 4))

    def test_two_player_reduces_to_subset_mixture(self):
        game = make_game([2, 4])
        profile = construct_mixed(game, find_partition(game))
        assert profile.strategies[0] == make_olk(2, 4)
        assert profile.strategies[1].as_pure().locations == optimal_locations(4)

    def test_swapped_blocks_still_equilibrium(self):
        game = make_game([1, 1, 4])
        plan = find_partition(game)
        swapped = type(plan)(b=plan.b, blocks=(plan.blocks[1], plan.blocks[0]))
        profile = construct_mixed(game, swapped)
        assert mixed_payoff(game, profile) == (F(1, 8), F(1, 8), F(3, 4))
        assert is_equilibrium(certify_no_deviation(game, profile))

    def test_invalid_plan_rejected(self):
        game = make_game([1, 1, 4])
        plan = find_partition(game)
        broken = type(plan)(b=(3, 1), blocks=plan.blocks)
        with pytest.raises(InvalidPartition):
            construct_mixed(game, broken)
        overlap = type(plan)(b=(2, 2), blocks=(plan.blocks[0], plan.blocks[0]))
        with pytest.raises(InvalidPartition):
            construct_mixed(game, overlap)


class TestVerifyTwoPlayer:
    def test_canonical_equilibrium(self):
        game = make_game([2, 4])
        profile = two_player_equilibrium(game)
        report = verify_two_player(game, profile.strategies[0], profile.strategies[1])
        assert report.verdict

    def test_canonical_equilibrium_in_either_order(self):
        # (make_olk(l, k), optimum) for l <= k, the same pair swapped for (k, l)
        for k in range(1, 7):
            for l in range(1, k + 1):
                optimum = MixedStrategy.point(PureStrategy(optimal_locations(k)))
                cases = {
                    (l, k): MixedProfile((make_olk(l, k), optimum)),
                    (k, l): MixedProfile((optimum, make_olk(l, k))),
                }
                for counts, expected in cases.items():
                    game = make_game(counts)
                    emitted = profile_document(game, two_player_equilibrium(game))
                    assert json.dumps(emitted) == json.dumps(profile_document(game, expected))

    def test_counts_in_either_order(self):
        # with l < k, swapping both the counts and the strategies keeps the report
        verdicts = set()
        for k in range(2, 8):
            optimum = MixedStrategy.point(PureStrategy(optimal_locations(k)))
            misplaced = MixedStrategy.point(PureStrategy(tuple(F(i, k + 2) for i in range(1, k + 1))))
            for l in range(1, k):
                first_points = MixedStrategy.point(PureStrategy(optimal_locations(k)[:l]))
                for weak, strong in [(make_olk(l, k), optimum), (first_points, optimum), (make_olk(l, k), misplaced)]:
                    report = verify_two_player(make_game([l, k]), weak, strong)
                    assert verify_two_player(make_game([k, l]), strong, weak) == report
                    verdicts.add(report.verdict)
        assert verdicts == {True, False}

    def test_handmade_soi_passes(self):
        game = make_game([2, 4])
        x = MixedStrategy.uniform(
            [PureStrategy.of("1/8", "3/8"), PureStrategy.of("5/8", "7/8")]
        )
        point = MixedStrategy.point(PureStrategy(optimal_locations(4)))
        assert verify_two_player(game, x, point).verdict

    def test_wrong_point_mass_fails(self):
        game = make_game([2, 4])
        off = MixedStrategy.point(PureStrategy.of("1/8", "3/8", "5/8", "3/4"))
        report = verify_two_player(game, make_olk(2, 4), off)
        assert not report.verdict
        assert not report.result(COND_OPTIMAL_POINT_MASS).passed
