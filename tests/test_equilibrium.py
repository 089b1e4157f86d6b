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
    PartitionPlan,
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
    is_soi,
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

from helpers import flatten, limit_value, midpoint_report, rand_profile

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
        # witnesses re-derived from raw positions, without classify or the
        # verifier; T4-3's from helpers.midpoint_report
        rng = random.Random(59)
        seen = set()
        flat_seen = set()
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

            # T3-1: the first lone end, left end first; T3-2: the best
            # one-sided mass in (position, left/right) order, and the first
            # facility in (player, slot) order paid below it
            reference = midpoint_report(profile.strategies)
            lone_ends = [x for x in (positions[0], positions[-1]) if hosts[x] == 1]
            sided = [
                (ref.position, side, of[ref])
                for ref in reference.left_masses
                for side, of in (("left", reference.left_masses), ("right", reference.right_masses))
            ]
            top = max(v for _, _, v in sided)
            position, side, side_mass = next(entry for entry in sided if entry[2] == top)
            paid = [
                reference.facility_masses[FacilityRef(player, slot, x)]
                for player, strategy in enumerate(profile.strategies)
                for slot, x in enumerate(strategy)
            ]
            below = next((i for i, payoff in enumerate(paid) if payoff < side_mass), None)
            flat = None
            if lone_ends:
                flat = {"condition": "T3-1", "position": lone_ends[0]}
            elif below is not None:
                flat = {"condition": "T3-2", "player": below, "payoff": paid[below],
                        "position": position, "side": side, "side_mass": side_mass}

            report = verify_multi_unit(game, profile)
            assert report.result(COND_LONE_ISOLATION).witness == lone
            assert report.result(COND_EQUAL_OWN_MASSES).witness == unequal
            assert report.result(COND_FLATTENED_EQUILIBRIUM).witness == flat
            seen.add((lone is None, unequal is None))
            flat_seen.add(flat and flat["condition"])
        assert seen == {(True, True), (True, False), (False, True), (False, False)}
        assert flat_seen == {None, "T3-1", "T3-2"}


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

    @pytest.mark.parametrize(
        "counts", [(3, 7), (4, 8), (5, 10), (6, 12), (2, 2, 8), (2, 3, 10), (3, 3, 12)]
    )
    def test_large_mixtures_certify(self, counts):
        # two-player (imitation, optimum) equilibria, which the partition
        # mixture of a two-player game is, and three-player partition
        # mixtures: the oracle finds no player a gain
        game = make_game(counts)
        profile = construct_mixed(game, find_partition(game))
        assert [r.gain for r in certify_no_deviation(game, profile)] == [0] * len(counts)

    @pytest.mark.parametrize(
        "counts,gain",
        [((1, 1, 4), F(1, 24)), ((1, 2, 6), F(1, 18))],
    )
    def test_block_designs_with_uniform_marginals_certify(self, counts, gain):
        # the N-player form of the two-player characterization: any weak
        # player's block design with uniform marginals keeps the partition
        # mixture an equilibrium, and weighing the last weak player's stride
        # design 2/3-1/3 gives the dominant player the gain ``gain``
        game = make_game(counts)
        plan = find_partition(game)
        dominant = construct_mixed(game, plan).strategies[-1]
        rng = random.Random(19)
        designs = [block_design(rng, block, c) for block, c in zip(plan.blocks, counts)]
        for x, block, c in zip(designs, plan.blocks, counts):
            assert all(
                sum((p for s, p in x.support if point in s.locations), F(0)) == F(c, len(block))
                for point in block
            )
        results = certify_no_deviation(game, MixedProfile((*designs, dominant)))
        assert [r.gain for r in results] == [0] * len(counts)

        block, c = plan.blocks[-1], counts[-2]
        stride = len(block) // c
        skewed = MixedStrategy(((block[0::stride], F(2, 3)), (block[1::stride], F(1, 3))))
        profile = MixedProfile((*designs[:-1], skewed, dominant))
        results = certify_no_deviation(game, profile)
        assert [r.gain for r in results] == [0] * (len(counts) - 1) + [gain]
        opponents = profile.strategies[:-1]
        current = mixed_payoff(game, profile)[-1]
        assert limit_value(opponents, results[-1].witness) - current == gain


def _plan(b, blocks):
    return PartitionPlan(b=b, blocks=tuple(tuple(F(x) for x in block) for block in blocks))


@pytest.mark.parametrize(
    "call,error,message",
    [
        pytest.param(lambda: construct_even(make_game([1, 2, 2])), ConstructionUnavailable,
                     "even construction needs even n >= 4, got n=5", id="even-on-odd-n"),
        pytest.param(lambda: construct_mixed(make_game([1, 1, 2]), _plan((2,), [["1/4", "3/4"]])),
                     WrongGameKind, "construct_mixed needs a dominant player", id="mixed-no-dominant"),
        pytest.param(lambda: construct_mixed(make_game([1, 1, 4]), _plan((2, 1), [["1/8", "3/8"], ["5/8"]])),
                     InvalidPartition, "block sizes (2, 1) do not sum to 4", id="mixed-size-sum"),
        # two sizes but one block: the optimal points 5/8 and 7/8 are left out
        pytest.param(lambda: construct_mixed(make_game([1, 1, 4]), _plan((2, 2), [["1/8", "3/8"]])),
                     InvalidPartition, "blocks must cover every optimal location", id="mixed-coverage"),
        pytest.param(
            lambda: construct_mixed(
                make_game([1, 2, 6]), _plan((3, 3), [["1/12", "1/4", "5/12"], ["7/12", "3/4", "11/12"]])
            ),
            InvalidPartition, "player 0: count 1 and block size 3 violate n_i/b_i = (n - n_N)/n_N",
            id="mixed-ratio",
        ),
        pytest.param(lambda: verify_two_player(make_game([1, 1, 2]), make_olk(1, 2), make_olk(1, 2)),
                     WrongGameKind, "verify_two_player needs exactly two players", id="two-player-three-players"),
        pytest.param(lambda: verify_two_player(make_game([1, 2]), make_olk(1, 2), make_olk(1, 2)),
                     WrongGameKind, "strategy sizes do not match the game counts", id="two-player-sizes"),
        pytest.param(lambda: verify_single_unit(PureProfile.of(["1/2"], ["1/2"])).result("C9"),
                     KeyError, "'C9'", id="report-absent-condition"),
    ],
)
def test_faults_are_named(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def block_design(rng, block, c):
    """A seeded mixture of c-point subsets of ``block`` with uniform marginals.

    A random positive combination of two rotation mixtures, for c dividing
    the block size b: the b/c cyclic windows of c consecutive points, and
    the b/c rotations of the stride pattern of every (b/c)-th point. Each
    puts weight c/b on every point, and so does any convex combination.
    Entries that repeat are merged.
    """
    stride = len(block) // c
    weights = [F(rng.randint(1, 5)) for _ in range(2)]
    support: dict[tuple[Fraction, ...], Fraction] = {}
    windows = [block[i : i + c] for i in range(0, len(block), c)]
    strides = [block[shift::stride] for shift in range(stride)]
    for weight, entries in zip(weights, (windows, strides)):
        for entry in entries:
            support[entry] = support.get(entry, F(0)) + weight / sum(weights) / stride
    return MixedStrategy(tuple(support.items()))


def soi_design(rng, l, k):
    """A seeded SOI mixture of l of the k optimal points.

    The uniform mixture over the k cyclic rotations of an l-point pattern
    covers every point l times in k entries, so it is SOI, and so is any
    convex combination of such mixtures. Entries that repeat are merged.
    """
    optimum = optimal_locations(k)
    mixtures = rng.randint(1, 3)
    weights = [F(rng.randint(1, 5)) for _ in range(mixtures)]
    support: dict[tuple[Fraction, ...], Fraction] = {}
    for weight in weights:
        pattern = rng.sample(range(k), l)
        for shift in range(k):
            entry = tuple(sorted(optimum[(i + shift) % k] for i in pattern))
            support[entry] = support.get(entry, F(0)) + weight / sum(weights) / k
    return MixedStrategy(tuple(support.items()))


def perturbed(rng, design, k):
    """The design made non-SOI: weight moved between two entries, or one
    location moved off its optimal point."""
    support = [list(entry) for entry in design.support]
    if len(support) > 1 and rng.random() < 0.5:
        i, j = rng.sample(range(len(support)), 2)
        moved = support[i][1] * rng.choice([F(1, 2), F(1, 3), F(1)])
        support[i][1] -= moved
        support[j][1] += moved
        support = [entry for entry in support if entry[1]]
    else:
        i = rng.randrange(len(support))
        locations = list(support[i][0])
        slot = rng.randrange(len(locations))
        locations[slot] += rng.choice([F(1, 4 * k), F(-1, 4 * k)])
        support[i][0] = PureStrategy(tuple(locations))
    return MixedStrategy(tuple(map(tuple, support)))


class TestVerifyTwoPlayer:
    def test_soi_designs_agree_with_the_oracle(self):
        # every l <= k <= 12: seeded SOI designs certify with every gain 0,
        # and each one's non-SOI perturbation is refuted by a gain that the
        # reference limit payoff of its witness confirms
        rng = random.Random(11)
        refuted = 0
        for k in range(1, 13):
            optimum = MixedStrategy.point(PureStrategy(optimal_locations(k)))
            for l in range(1, k + 1):
                game = make_game([l, k])
                for _ in range(3):
                    design = soi_design(rng, l, k)
                    assert is_soi(design, l, k)
                    weak = perturbed(rng, design, k)
                    assert not is_soi(weak, l, k)
                    for x, soi in ((design, True), (weak, False)):
                        profile = MixedProfile((x, optimum))
                        results = certify_no_deviation(game, profile)
                        verdict = verify_two_player(game, x, optimum).verdict
                        assert verdict == is_equilibrium(results) == soi, (l, k, x)
                        if soi:
                            assert all(r.gain == 0 for r in results), (l, k, x)
                            continue
                        current = mixed_payoff(game, profile)
                        for player, r in enumerate(results):
                            if r.gain > 0:
                                opponent = profile.strategies[1 - player]
                                assert limit_value([opponent], r.witness) - current[player] == r.gain
                                refuted += 1
        assert refuted >= 300

    def test_random_profiles_agree_with_the_oracle(self):
        # seeded two-player profiles, l <= 2 and k <= 4 in either order: the
        # weak player plays an SOI design or mixes over random l-subsets of
        # the optimal points, sometimes with one point off them; the strong
        # player sits on the optimum, on a point moved off it, or mixes both
        rng = random.Random(12)
        verdicts = Counter()
        for _ in range(150):
            k = rng.randint(1, 4)
            l = rng.randint(1, min(2, k))
            optimum = PureStrategy(optimal_locations(k))
            points = list(optimum.locations)
            if rng.random() < 0.3:
                points[rng.randrange(k)] += rng.choice([F(1, 4 * k), F(-1, 4 * k)])
            entries = list(itertools.combinations(points, l))
            entries = rng.sample(entries, rng.randint(1, len(entries)))
            weights = [rng.randint(1, 3) for _ in entries]
            weak = MixedStrategy(tuple((e, F(w, sum(weights))) for e, w in zip(entries, weights)))
            if rng.random() < 0.4:
                weak = soi_design(rng, l, k)
            moved = list(optimum.locations)
            moved[rng.randrange(k)] += F(1, 8 * k)
            strong = MixedStrategy.point(optimum)
            if rng.random() < 0.5:
                strong = rng.choice([
                    MixedStrategy.point(PureStrategy(tuple(moved))),
                    MixedStrategy.uniform([optimum, PureStrategy(tuple(moved))]),
                ])
            game, profile = make_game([l, k]), MixedProfile((weak, strong))
            if rng.random() < 0.5:
                game, profile = make_game([k, l]), MixedProfile((strong, weak))
            verdict = verify_two_player(game, *profile.strategies).verdict
            assert verdict == is_equilibrium(certify_no_deviation(game, profile)), (game, profile)
            verdicts[verdict] += 1
        assert min(verdicts.values()) >= 20, verdicts

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
