"""Tests for customer masses, one-sided limits and social cost."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hotelling
from hotelling import (
    InvalidDeviation,
    InvalidInput,
    OffsetLocation,
    PureProfile,
    PureStrategy,
    exactly,
    just_above,
    just_below,
    limit_payoff,
    make_game,
    masses,
    optimal_locations,
    social_cost,
)

from helpers import midpoint_report, rand_kset, rand_profile, riemann_payoffs, riemann_social_cost

F = Fraction


@st.composite
def profiles(draw):
    counts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    denom = draw(st.sampled_from([6, 8, 12, 24]))
    strategies = []
    for c in counts:
        values = draw(
            st.lists(
                st.integers(0, denom), min_size=c, max_size=c, unique=True
            )
        )
        strategies.append(PureStrategy(tuple(sorted(F(v, denom) for v in values))))
    return PureProfile(tuple(strategies))


class TestMasses:
    def test_shared_midpoint(self):
        assert masses(PureProfile.of(["1/2"], ["1/2"])).payoffs == (F(1, 2), F(1, 2))

    def test_two_against_four(self):
        profile = PureProfile.of(["1/8", "3/8"], ["1/8", "3/8", "5/8", "7/8"])
        assert masses(profile).payoffs == (F(1, 4), F(3, 4))

    def test_reconstructed_four_player_profile(self):
        profile = PureProfile.of(["6/7"], ["4/7"], ["1/7", "3/7"], ["1/7", "6/7"])
        report = masses(profile)
        assert report.payoffs == (F(1, 7), F(3, 14), F(5, 14), F(2, 7))
        
    def test_one_sided_masses_shared_by_co_located(self):
        profile = PureProfile.of(["1/4"], ["1/4", "3/4"])
        report = masses(profile)
        from hotelling import FacilityRef

        a = FacilityRef(0, 0, F(1, 4))
        b = FacilityRef(1, 0, F(1, 4))
        assert report.left_masses[a] == report.left_masses[b] == F(1, 4)
        assert report.right_masses[a] == report.right_masses[b] == F(1, 4)
        assert report.facility_masses[a] == report.facility_masses[b] == F(1, 4)

    def test_agrees_with_riemann_oracle(self):
        rng = random.Random(23)
        for _ in range(5):
            game = make_game([rng.randint(1, 3) for _ in range(rng.randint(2, 4))])
            profile = rand_profile(rng, game, denom=16)
            exact = masses(profile).payoffs
            approx = riemann_payoffs(profile, samples=100_000)
            for e, a in zip(exact, approx):
                assert abs(float(e) - a) < 1e-4

    @given(profiles())
    @settings(max_examples=60, deadline=None)
    def test_partition_of_unity(self, profile):
        assert sum(masses(profile).payoffs) == 1

    @given(profiles())
    @settings(max_examples=60, deadline=None)
    def test_payoffs_sum_facility_masses(self, profile):
        report = masses(profile)
        for player in range(profile.num_players):
            total = sum(
                (v for ref, v in report.facility_masses.items() if ref.player == player),
                F(0),
            )
            assert total == report.payoffs[player]


def coprime_strategies(rng):
    """Seeded strategies, each on its own grid {i/d} with d one of 97, 101, 103.

    The lcm of the denominators is then near 10**6. Some players reuse an
    earlier player's point or an end of [0, 1], so co-location still occurs.
    """
    strategies = []
    for _ in range(rng.randint(1, 5)):
        d = rng.choice([97, 101, 103])
        points = {F(v, d) for v in rng.sample(range(d + 1), rng.randint(1, 4))}
        shared = [x for s in strategies for x in s] + [F(0), F(1)]
        points.update(rng.sample(shared, rng.randint(0, 2)))
        strategies.append(sorted(points))
    return strategies


def offset_deviation(rng, opponents):
    """A deviator's strictly increasing offsets around opponent points and on its own grid."""
    d = rng.choice([97, 101, 103])
    picks = {(F(v, d), "exact") for v in rng.sample(range(d + 1), rng.randint(0, 2))}
    points = sorted({x for s in opponents for x in s})
    for x in rng.sample(points, min(len(points), rng.randint(1, 3))):
        sides = ["exact"] + (["below"] if x > 0 else []) + (["above"] if x < 1 else [])
        picks.add((x, rng.choice(sides)))
    return sorted(OffsetLocation(x, side) for x, side in picks)


class TestMidpointReference:
    def test_masses_on_coprime_grids(self):
        rng = random.Random(97)
        for _ in range(400):
            strategies = coprime_strategies(rng)
            profile = PureProfile(tuple(PureStrategy(tuple(s)) for s in strategies))
            assert repr(masses(profile)) == repr(midpoint_report(strategies))

    def test_limit_payoff_on_coprime_grids(self):
        # the undeviated profile also goes in as a PureProfile, which
        # limit_payoff uses as it is, with a deviator drawn from its own seed
        rng = random.Random(101)
        pick = random.Random(102)
        for _ in range(400):
            strategies = coprime_strategies(rng)
            profile = PureProfile(tuple(PureStrategy(tuple(s)) for s in strategies))
            report = limit_payoff(profile, pick.randrange(len(strategies)))
            assert repr(report) == repr(midpoint_report(strategies))
            deviator = rng.randint(0, len(strategies))
            strategies.insert(deviator, offset_deviation(rng, strategies))
            report = limit_payoff(strategies, deviator)
            assert repr(report) == repr(midpoint_report(strategies))


class TestOffsetLocation:
    def test_ordering(self):
        x = F(1, 3)
        assert just_below(x) < exactly(x) < just_above(x)
        assert just_above(F(1, 4)) < just_below(x)

    def test_boundary_sides_rejected(self):
        with pytest.raises(InvalidInput):
            just_below(0)
        with pytest.raises(InvalidInput):
            just_above(1)
        with pytest.raises(InvalidInput):
            OffsetLocation(F(1, 2), "sideways")


class TestLimitPayoff:
    def test_just_above_single_opponent(self):
        report = limit_payoff([[exactly("1/4")], [just_above("1/4")]], deviator=1)
        assert report.payoffs == (F(1, 4), F(3, 4))

    def test_limit_matches_small_epsilon(self):
        eps = F(1, 1000)
        explicit = masses(PureProfile.of(["1/4"], [F(1, 4) + eps])).payoffs
        assert explicit[1] == F(3, 4) - eps / 2

    def test_exact_tie(self):
        report = limit_payoff([[exactly("1/2")], [exactly("1/2")]], deviator=1)
        assert report.payoffs == (F(1, 2), F(1, 2))

    def test_bracketing_deviation(self):
        # two-sided squeeze of the 1/7..4/7 stretch
        report = limit_payoff(
            [
                [exactly("6/7")],
                [exactly("4/7")],
                [just_above("1/7"), just_below("4/7")],
                [exactly("1/7"), exactly("6/7")],
            ],
            deviator=2,
        )
        assert report.payoffs[2] == F(3, 7)

    def test_linear_in_epsilon(self):
        # deviation payoff is linear in eps for small eps: the gap to the
        # limit shrinks by exactly the step ratio
        deltas = {}
        limit = limit_payoff([[exactly("1/4")], [just_above("1/4")]], 1).payoffs[1]
        for m in (1000, 10000):
            explicit = masses(PureProfile.of(["1/4"], [F(1, 4) + F(1, m)])).payoffs[1]
            deltas[m] = abs(limit - explicit)
        assert deltas[1000] == 10 * deltas[10000]
        assert deltas[1000] <= F(2, 1000)

    def test_duplicate_offsets_rejected(self):
        with pytest.raises(InvalidDeviation):
            limit_payoff(
                [[exactly("1/2")], [just_above("1/4"), just_above("1/4")]], deviator=1
            )

    def test_unordered_offsets_rejected(self):
        with pytest.raises(InvalidDeviation):
            limit_payoff(
                [[exactly("1/2")], [just_above("1/4"), just_below("1/4")]], deviator=1
            )

    def test_offsets_on_non_deviator_rejected(self):
        with pytest.raises(InvalidDeviation):
            limit_payoff([[just_above("1/4")], [exactly("1/2")]], deviator=1)

    @pytest.mark.parametrize(
        "profile, player",
        [
            ([["1/2", "1/2"], ["1/4"]], 0),  # stacked
            ([["3/4", "1/4"], ["1/2"]], 0),  # unsorted
            ([[], ["1/2"]], 0),  # empty non-deviator
            ([["1/2"], []], 1),  # empty deviator
        ],
    )
    def test_invalid_strategies_rejected(self, profile, player):
        # every player is held to what a PureStrategy accepts
        with pytest.raises(InvalidDeviation, match=rf"^player {player}\b"):
            limit_payoff(profile, deviator=1)

    def test_deviator_limits_never_tie_with_exact(self):
        report = limit_payoff(
            [[exactly("1/2")], [just_below("1/2"), just_above("1/2")]], deviator=1
        )
        assert report.payoffs == (F(0), F(1))


class TestSocialCost:
    def test_single_midpoint(self):
        assert social_cost([F(1, 2)]) == F(1, 4)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_optimal_locations_cost(self, k):
        assert social_cost(optimal_locations(k)) == F(1, 4 * k)

    def test_boundary_points(self):
        # facilities sitting on the ends: zero-width border gaps contribute nothing
        assert social_cost([0, 1]) == F(1, 4)
        assert abs(riemann_social_cost([0, 1], samples=1_000_000) - 0.25) < 1e-5

    def test_duplicates_collapse(self):
        assert social_cost([F(1, 2), F(1, 2)]) == F(1, 4)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            social_cost([])

    def test_agrees_with_riemann_oracle(self):
        rng = random.Random(9)
        for _ in range(5):
            points = rand_kset(rng, rng.randint(1, 5), 20)
            exact = social_cost(points)
            assert abs(float(exact) - riemann_social_cost(points, samples=200_000)) < 1e-4

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True))
    @settings(max_examples=80, deadline=None)
    def test_monotone_refinement(self, numerators):
        points = [F(v, 40) for v in numerators]
        base = social_cost(points)
        for extra in (F(1, 3), F(9, 40), F(1)):
            assert social_cost(points + [extra]) <= base


@pytest.mark.parametrize(
    "call,error,message",
    [
        pytest.param(lambda: OffsetLocation(F(3, 2)), InvalidInput, "offset position 3/2 outside [0,1]",
                     id="offset-outside"),
        pytest.param(lambda: limit_payoff([["1/4"], ["3/4"]], deviator=2), InvalidDeviation,
                     "deviator index 2 out of range", id="deviator-out-of-range"),
        pytest.param(lambda: limit_payoff(PureProfile.of(["1/4"], ["3/4"]), deviator=2), InvalidDeviation,
                     "deviator index 2 out of range", id="pure-profile-deviator-out-of-range"),
        pytest.param(lambda: limit_payoff(PureProfile.of(["1/4"], ["3/4"]), deviator=-1), InvalidDeviation,
                     "deviator index -1 out of range", id="pure-profile-negative-deviator"),
        # limit_payoff range-checks every bare rational first, then the
        # deviator index, then player by player: no facility, sides, order
        pytest.param(lambda: limit_payoff([[F(3, 4), F(1, 4)], [just_above(F(1, 2))]], 0), InvalidDeviation,
                     "player 0's offsets must strictly increase, got 3/4 exact then 1/4 exact",
                     id="order-before-later-side"),
        pytest.param(lambda: limit_payoff([[F(3, 2)]], 5), InvalidInput, "offset position 3/2 outside [0,1]",
                     id="range-before-deviator"),
        pytest.param(lambda: limit_payoff([[F(1, 2), just_below(F(1, 2))], [F(1, 4), just_above(F(3, 4))]], 0),
                     InvalidDeviation, "player 0's offsets must strictly increase, got 1/2 exact then 1/2 below",
                     id="order-before-later-side-at-a-point"),
        pytest.param(lambda: limit_payoff([[], [F(3, 2)]], 0), InvalidInput, "offset position 3/2 outside [0,1]",
                     id="range-before-empty"),
        pytest.param(lambda: limit_payoff([[just_above(F(1, 4))], [F(3, 4), F(1, 4)]], 1), InvalidDeviation,
                     "player 0 is not the deviator but carries side=above", id="side-before-later-order"),
        pytest.param(lambda: limit_payoff([[just_above(F(3, 4)), F(1, 4)], [F(1, 2)]], 1), InvalidDeviation,
                     "player 0 is not the deviator but carries side=above", id="side-before-own-order"),
        pytest.param(lambda: social_cost(["1/2", "5/4"]), InvalidInput, "location 5/4 outside [0,1]",
                     id="social-cost-outside"),
    ],
)
def test_arguments_outside_their_domain_are_named(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


class TestReimport:
    def test_reimport_releases_previous_module_generation(self):
        # Module-level typing constructs over the package's own classes enter
        # typing's global caches and pin every earlier import generation.
        script = """
import gc, sys, weakref
import hotelling, hotelling.cli
ref = weakref.ref(hotelling.payoff.OffsetLocation)
del hotelling
for name in [n for n in sys.modules if n == "hotelling" or n.startswith("hotelling.")]:
    del sys.modules[name]
import hotelling, hotelling.cli
gc.collect()
sys.exit(0 if ref() is None else 1)
"""
        src = str(Path(hotelling.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src}, timeout=60
        )
        assert proc.returncode == 0
