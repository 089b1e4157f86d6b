"""Tests for mixed strategies, expectations, the facility measure and SOI."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hotelling import (
    InvalidStrategy,
    MeasureQuery,
    MixedProfile,
    MixedStrategy,
    PureProfile,
    PureStrategy,
    SupportTooLarge,
    combined_strategy,
    is_soi,
    make_game,
    make_olk,
    masses,
    mixed_payoff,
    mu,
    optimal_locations,
)

from helpers import rand_strategy

F = Fraction


def figure_profile():
    """Dominant-player mixture: two singleton mixers against the full optimum."""
    x1 = MixedStrategy.uniform([PureStrategy.of("1/8"), PureStrategy.of("3/8")])
    x2 = MixedStrategy.uniform([PureStrategy.of("5/8"), PureStrategy.of("7/8")])
    x3 = MixedStrategy.point(PureStrategy(optimal_locations(4)))
    return MixedProfile((x1, x2, x3))


def soi_pair_examples():
    x = MixedStrategy.uniform(
        [PureStrategy.of("1/8", "3/8"), PureStrategy.of("5/8", "7/8")]
    )
    y = MixedStrategy.uniform(
        [PureStrategy.of("1/8", "7/8"), PureStrategy.of("3/8", "5/8")]
    )
    return x, y


class TestMixedStrategy:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(InvalidStrategy):
            MixedStrategy(((PureStrategy.of("1/2"), F(1, 3)),))

    def test_rejects_duplicates(self):
        s = PureStrategy.of("1/2")
        with pytest.raises(InvalidStrategy):
            MixedStrategy(((s, F(1, 2)), (s, F(1, 2))))

    def test_rejects_mixed_sizes(self):
        with pytest.raises(InvalidStrategy):
            MixedStrategy(
                ((PureStrategy.of("1/2"), F(1, 2)), (PureStrategy.of("1/4", "3/4"), F(1, 2)))
            )


class TestMixedPayoff:
    def test_dominant_player_mixture(self):
        game = make_game([1, 1, 4])
        assert mixed_payoff(game, figure_profile()) == (F(1, 8), F(1, 8), F(3, 4))

    def test_point_masses_reduce_to_pure(self):
        game = make_game([1, 2])
        profile = PureProfile.of(["1/3"], ["1/4", "3/4"])
        assert mixed_payoff(game, MixedProfile.from_pure(profile)) == masses(profile).payoffs

    def test_two_player_equilibrium_value(self):
        game = make_game([2, 4])
        profile = MixedProfile(
            (make_olk(2, 4), MixedStrategy.point(PureStrategy(optimal_locations(4))))
        )
        assert mixed_payoff(game, profile) == (F(1, 4), F(3, 4))

    def test_support_cap(self):
        # 101**3 draws exceed the cap of 10**6; the guard fires before enumerating
        game = make_game([1, 1, 1])
        big = MixedStrategy.uniform(
            [PureStrategy((F(i, 100),)) for i in range(101)]
        )
        profile = MixedProfile((big, big, big))
        with pytest.raises(SupportTooLarge):
            mixed_payoff(game, profile)


class TestMeasure:
    def test_two_point_mixture(self):
        x = make_olk(1, 2)
        assert mu(x, MeasureQuery.point(F(1, 4))) == F(1, 2)

    def test_soi_example_point(self):
        x, _ = soi_pair_examples()
        assert mu(x, MeasureQuery.point(F(1, 8))) == F(1, 2)

    def test_full_interval_counts_facilities(self):
        rng = random.Random(2)
        for _ in range(20):
            k = rng.randint(1, 4)
            support = {rand_strategy(rng, k, 16) for _ in range(rng.randint(1, 3))}
            x = MixedStrategy.uniform(sorted(support, key=lambda s: s.locations))
            assert mu(x, MeasureQuery.interval(0, 1)) == k

    def test_empty_query(self):
        x = make_olk(2, 4)
        empty = MeasureQuery.interval("1/8", "1/8", lower_closed=False, upper_closed=False)
        assert empty.is_empty() and mu(x, empty) == 0

    def test_additivity_split_interval(self):
        rng = random.Random(14)
        for _ in range(50):
            k = rng.randint(1, 4)
            support = {rand_strategy(rng, k, 12) for _ in range(rng.randint(1, 4))}
            x = MixedStrategy.uniform(sorted(support, key=lambda s: s.locations))
            a, b, c = sorted(F(rng.randint(0, 12), 12) for _ in range(3))
            left = MeasureQuery.interval(a, b, True, True)
            right = MeasureQuery.interval(b, c, False, True)
            whole = MeasureQuery.interval(a, c, True, True)
            assert mu(x, left) + mu(x, right) == mu(x, whole)
            assert mu(x, left) >= 0 and mu(x, right) >= 0


class TestSoi:
    @pytest.mark.parametrize(
        "l,k", [(l, k) for k in range(1, 7) for l in range(1, k + 1)]
    )
    def test_canonical_mixture_is_soi(self, l, k):
        assert is_soi(make_olk(l, k), l, k).ok

    def test_both_handmade_examples(self):
        x, y = soi_pair_examples()
        assert is_soi(x, 2, 4).ok and is_soi(y, 2, 4).ok

    def test_failure_names_first_bad_point(self):
        x = MixedStrategy.point(PureStrategy.of("1/8", "5/8"))
        result = is_soi(x, 2, 4)
        # 3/8 carries mass 0 != 1/2, but 1/8 (mass 1) already fails before it
        assert not result.ok and result.witness == F(1, 8)
        assert mu(x, MeasureQuery.point(F(3, 8))) == 0

    def test_failure_witness_when_only_later_points_fail(self):
        x = MixedStrategy.uniform(
            [PureStrategy.of("1/8", "3/8"), PureStrategy.of("3/8", "5/8")]
        )
        result = is_soi(x, 2, 4)
        assert not result.ok and result.witness == F(3, 8)

    def test_quasi_uniqueness(self):
        # any two passing strategies put identical measure on each optimal point
        x, y = soi_pair_examples()
        for point in optimal_locations(4):
            q = MeasureQuery.point(point)
            assert mu(x, q) == mu(y, q) == F(1, 2)


class TestMakeOlk:
    def test_degenerate_full_subset(self):
        x = make_olk(4, 4)
        assert x.is_point() and x.as_pure().locations == optimal_locations(4)

    def test_two_singletons(self):
        x = make_olk(1, 2)
        assert sorted(s.locations for s, _ in x.support) == [(F(1, 4),), (F(3, 4),)]
        assert all(p == F(1, 2) for _, p in x.support)

    def test_choose_counts(self):
        x = make_olk(2, 4)
        assert len(x.support) == math.comb(4, 2)
        assert all(p == F(1, 6) for _, p in x.support)
        assert is_soi(x, 2, 4).ok


class TestCombinedStrategy:
    def test_disjoint_blocks_combine(self):
        profile = figure_profile()
        joint = combined_strategy(profile.strategies[:2])
        assert joint.num_facilities == 2
        assert is_soi(joint, 2, 4).ok

    def test_colliding_supports_rejected(self):
        x = MixedStrategy.point(PureStrategy.of("1/2"))
        with pytest.raises(InvalidStrategy):
            combined_strategy([x, x])


@st.composite
def finite_strategies(draw):
    k = draw(st.integers(1, 3))
    denom = draw(st.sampled_from([8, 12]))
    n_support = draw(st.integers(1, 4))
    seen = set()
    for salt in range(n_support * 6):
        values = draw(
            st.lists(st.integers(0, denom), min_size=k, max_size=k, unique=True)
        )
        seen.add(tuple(sorted(values)))
        if len(seen) == n_support:
            break
    support = [PureStrategy(tuple(F(v, denom) for v in vals)) for vals in sorted(seen)]
    return MixedStrategy.uniform(support)


@given(finite_strategies(), st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=80, deadline=None)
def test_measure_axioms_property(x, a_num, b_num):
    a, b = sorted((F(a_num, 12), F(b_num, 12)))
    q = MeasureQuery.interval(a, b)
    assert mu(x, q) >= 0
    empty = MeasureQuery.interval(a, a, lower_closed=False, upper_closed=False)
    assert mu(x, empty) == 0
    if a < b:
        mid = (a + b) / 2
        left = MeasureQuery.interval(a, mid, True, False)
        right = MeasureQuery.interval(mid, b, True, True)
        assert mu(x, left) + mu(x, right) == mu(x, q)
