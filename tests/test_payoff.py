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

from helpers import rand_kset, rand_profile, riemann_payoffs, riemann_social_cost

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
