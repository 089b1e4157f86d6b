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
    SoiResult,
    SupportTooLarge,
    construct_mixed,
    find_partition,
    is_soi,
    make_game,
    make_olk,
    masses,
    mixed_payoff,
    mu,
    optimal_locations,
)

from hotelling.mixed import _expected_counts

from helpers import combined_strategy, enumerated_payoffs, rand_strategy

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

    @pytest.mark.parametrize(
        "support,message",
        [
            ((), "mixed strategy needs a non-empty support"),
            (((("1/2",), F(1, 2)), (("1/4",), F(1, 3))), "probabilities sum to 5/6, expected 1"),
            (((("1/2",), F(2, 3)), (("1/4",), F(3, 5))), "probabilities sum to 19/15, expected 1"),
            (((("1/2",), F(3, 2)), (("1/4",), F(-1, 2))), "probability -1/2 is not positive"),
            (((("1/2",), F(1, 3)), (("1/4",), F(1, 3)), (("1/2",), F(1, 3))),
             "duplicate support entry (Fraction(1, 2),)"),
            (((("1/2",), F(1, 2)), (("1/4", "3/4"), F(1, 2))),
             "support entries must place the same number of facilities"),
            # a duplicate is reported before the size mismatch of the same entry
            (((("1/2",), F(1, 3)), (("1/2",), F(1, 3)), (("0", "1"), F(1, 3))),
             "duplicate support entry (Fraction(1, 2),)"),
        ],
    )
    def test_error_messages(self, support, message):
        with pytest.raises(InvalidStrategy) as exc:
            MixedStrategy(support)
        assert str(exc.value) == message


def rand_mixture(rng, count, denom, must=()):
    """One to three distinct strategies on the grid {i/denom}, each holding the points in must."""
    grid = [F(i, denom) for i in range(denom + 1) if F(i, denom) not in must]
    entries = list(
        dict.fromkeys(
            PureStrategy(tuple(sorted((*must, *rng.sample(grid, count - len(must))))))
            for _ in range(rng.randint(1, 3))
        )
    )
    weights = [rng.randint(1, 6) for _ in entries]
    return MixedStrategy(tuple((s, F(w, sum(weights))) for s, w in zip(entries, weights)))


def rand_mixed_profile(rng, game, kind):
    """A seeded mixed profile of one of four kinds that stress the integer sweep.

    shared: one grid for every player; coprime: a distinct prime grid per
    player; common-point: every draw stacks all players on one point;
    endpoints: every draw occupies 0 or 1, or both.
    """
    if kind == "coprime":
        denoms = rng.sample([5, 7, 11, 13], game.num_players)
        return MixedProfile(tuple(rand_mixture(rng, c, d) for c, d in zip(game.counts, denoms)))
    denom = rng.choice([4, 6, 8, 12])
    common = F(rng.randint(0, denom), denom)
    strategies = []
    for c in game.counts:
        if kind == "common-point":
            must = (common,)
        elif kind == "endpoints":
            must = (F(0), F(1)) if c > 1 else (F(rng.randint(0, 1)),)
        else:
            must = ()
        strategies.append(rand_mixture(rng, c, denom, must))
    return MixedProfile(tuple(strategies))


class TestMixedPayoff:
    @pytest.mark.parametrize("kind", ["shared", "coprime", "common-point", "endpoints"])
    def test_matches_enumerated_reference(self, kind):
        rng = random.Random(sum(map(ord, kind)))
        for _ in range(100):
            game = make_game([rng.randint(1, 3) for _ in range(rng.randint(1, 4))])
            profile = rand_mixed_profile(rng, game, kind)
            payoffs = mixed_payoff(game, profile)
            assert payoffs == enumerated_payoffs(profile)
            assert sum(payoffs) == 1

    def test_constructions_match_enumerated_reference(self):
        for k in range(1, 7):
            optimum = MixedStrategy.point(PureStrategy(optimal_locations(k)))
            for l in range(1, k + 1):
                profile = MixedProfile((make_olk(l, k), optimum))
                payoffs = mixed_payoff(make_game([l, k]), profile)
                assert payoffs == enumerated_payoffs(profile) == (F(l, 2 * k), 1 - F(l, 2 * k))
        for counts in ([1, 1, 4], [2, 1, 6], [1, 1, 1, 6], [2, 2, 8]):
            game = make_game(counts)
            profile = construct_mixed(game, find_partition(game))
            payoffs = mixed_payoff(game, profile)
            assert payoffs == enumerated_payoffs(profile)
            n_dom = max(counts)
            assert payoffs[:-1] == tuple(F(c, 2 * n_dom) for c in counts[:-1])

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


def fraction_sum_counts(x):
    """Reference expected counts: a plain Fraction sum per location."""
    counts = {}
    for strategy, prob in x.support:
        for loc in strategy:
            counts[loc] = counts.get(loc, F(0)) + prob
    return counts


def coprime_mixture(rng, l, k):
    """A non-uniform mixture over distinct l-subsets of the optimal points and
    the grid {i/12}, with probabilities over pairwise coprime denominators."""
    grid = sorted(set(optimal_locations(k)) | {F(i, 12) for i in range(13)})
    entries = list(dict.fromkeys(tuple(sorted(rng.sample(grid, l))) for _ in range(rng.randint(2, 4))))
    probs = [F(rng.randint(1, 2), d) for d in rng.sample([5, 7, 11, 13], len(entries) - 1)]
    probs.append(1 - sum(probs))
    return MixedStrategy(tuple((PureStrategy(s), p) for s, p in zip(entries, probs)))


def coprime_soi_mixture(rng, l, k):
    """make_olk(l, k) blended, at a weight over 7 or 11, with the k cyclic
    windows of l consecutive optimal points: an SOI mixture, and a
    non-uniform one when 1 < l < k - 1, where the windows are fewer than
    the subsets."""
    points = optimal_locations(k)
    windows = {tuple(sorted(points[(i + j) % k] for j in range(l))) for i in range(k)}
    a = F(rng.randint(1, 6), rng.choice([7, 11]))
    weights = {s.locations: p * a for s, p in make_olk(l, k).support}
    for window in windows:
        weights[window] = weights.get(window, 0) + (1 - a) / len(windows)
    return MixedStrategy(tuple((PureStrategy(s), p) for s, p in weights.items()))


@pytest.mark.parametrize("seed", range(12))
def test_measure_and_soi_match_fraction_sums(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 6)
    l = rng.randint(1, k - 1)
    for x in (coprime_mixture(rng, l, k), coprime_soi_mixture(rng, l, k)):
        counts = fraction_sum_counts(x)
        assert _expected_counts(x) == counts
        assert all(type(v) is Fraction for v in _expected_counts(x).values())
        expected_soi = next(
            (p for p in optimal_locations(k) if counts.get(p, 0) != F(l, k)), None
        )
        assert is_soi(x, l, k) == SoiResult(expected_soi is None, expected_soi)
        queries = [MeasureQuery.point(p) for p in [*counts, *optimal_locations(k), F(1, 2)]]
        for _ in range(10):
            a, b = sorted(F(rng.randint(0, 24), 24) for _ in range(2))
            queries.append(MeasureQuery.interval(a, b, rng.random() < 0.5, rng.random() < 0.5))
        for q in queries:
            assert mu(x, q) == sum((c for loc, c in counts.items() if q.contains(loc)), F(0))
    assert is_soi(coprime_soi_mixture(rng, l, k), l, k).ok


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
