"""Tests for games, strategies, classification and flattening."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hotelling import (
    FacilityRef,
    InvalidGame,
    InvalidStrategy,
    PureProfile,
    PureStrategy,
    as_fraction,
    classify,
    has_dominant_player,
    make_game,
)

from helpers import flatten, rand_profile


class TestMakeGame:
    def test_two_players(self):
        g = make_game([1, 2])
        assert g.num_players == 2 and g.n == 3

    def test_three_players(self):
        g = make_game([1, 1, 4])
        assert g.num_players == 3 and g.n == 6

    def test_monopoly(self):
        g = make_game([5])
        assert g.num_players == 1 and g.n == 5

    def test_unsorted_accepted(self):
        g = make_game([3, 1, 2])
        assert g.ascending_order() == (1, 2, 0)

    @pytest.mark.parametrize("bad", [[], [0], [-1, 2], [1, 0, 2], [True, True]])
    def test_rejects(self, bad):
        with pytest.raises(InvalidGame):
            make_game(bad)


class TestPureStrategy:
    def test_coerces_strings(self):
        s = PureStrategy.of("1/4", "3/4")
        assert s.locations == (Fraction(1, 4), Fraction(3, 4))

    def test_rejects_stacking(self):
        with pytest.raises(InvalidStrategy):
            PureStrategy.of("1/2", "1/2")

    def test_rejects_decreasing(self):
        with pytest.raises(InvalidStrategy):
            PureStrategy.of("3/4", "1/4")

    def test_rejects_outside_interval(self):
        with pytest.raises(InvalidStrategy):
            PureStrategy.of("5/4")

    def test_rejects_zero_denominator(self):
        with pytest.raises(InvalidStrategy):
            PureStrategy.of("1/0")

    def test_rejects_floats(self):
        with pytest.raises(InvalidStrategy):
            PureStrategy((0.5,))

    def test_rejects_booleans(self):
        with pytest.raises(InvalidStrategy):
            PureStrategy((True,))

    def test_mixed_input_types(self):
        s = PureStrategy((0, "1/3", Fraction(1, 2), 1))
        assert s.locations == (0, Fraction(1, 3), Fraction(1, 2), 1)
        assert all(type(x) is Fraction for x in s)

    @pytest.mark.parametrize(
        "locations,message",
        [
            ((), "a strategy must place at least one facility"),
            (("-1/4", "1/2"), "location -1/4 outside [0,1]"),
            (("1/4", "5/4"), "location 5/4 outside [0,1]"),
            ((Fraction(-1), Fraction(2)), "location -1 outside [0,1]"),
            # the range is checked before the order, wherever the bad value sits
            (("1/2", "2", "1/4"), "location 2 outside [0,1]"),
            ((1, 0, -1), "location -1 outside [0,1]"),
            (("1/4", "1/4"), "locations must strictly increase, got 1/4 then 1/4"),
            (("0", "1/2", "1/2", "1"), "locations must strictly increase, got 1/2 then 1/2"),
            (("3/4", "1/4"), "locations must strictly increase, got 3/4 then 1/4"),
            ((1, 0), "locations must strictly increase, got 1 then 0"),
            ((2,), "location 2 outside [0,1]"),
        ],
    )
    def test_error_messages(self, locations, message):
        with pytest.raises(InvalidStrategy) as exc:
            PureStrategy(locations)
        assert str(exc.value) == message


class TestAsFraction:
    @pytest.mark.parametrize(
        "text,value",
        [("3", Fraction(3)), ("-2/6", Fraction(-1, 3)), ("0.25", Fraction(1, 4)), (" 1/2 ", Fraction(1, 2))],
    )
    def test_accepts_integers_ratios_and_decimals(self, text, value):
        assert as_fraction(text) == value and type(as_fraction(text)) is Fraction

    @pytest.mark.parametrize("text", ["1e-3", "1E2", "2.5e0", "-3e+1"])
    def test_rejects_exponents(self, text):
        with pytest.raises(InvalidStrategy) as exc:
            as_fraction(text)
        assert str(exc.value) == f"invalid rational {text!r}: exponents are not accepted"


class TestClassify:
    def test_reconstructed_lone_facility(self):
        # third player's isolated facility between her own pair partner and a rival
        profile = PureProfile.of(["6/7"], ["4/7"], ["1/7", "3/7"], ["1/7", "6/7"])
        cls = classify(profile)[FacilityRef(2, 1, Fraction(3, 7))]
        assert cls.is_lone and not cls.is_paired
        assert not cls.is_peripheral
        assert cls.left_neighbor == Fraction(1, 7)
        assert cls.right_neighbor == Fraction(4, 7)

    def test_midpoint_pairing(self):
        profile = PureProfile.of(["1/2"], ["1/2"])
        for facility_class in classify(profile).values():
            assert facility_class.is_paired and not facility_class.is_lone
            assert facility_class.is_peripheral  # min and max coincide
            assert facility_class.left_neighbor is None and facility_class.right_neighbor is None
            assert facility_class.co_located_players == frozenset({0, 1})

    def test_three_lone_facilities(self):
        profile = PureProfile.of(["1/4", "3/4"], ["1/2"])
        cls = classify(profile)
        assert all(c.is_lone for c in cls.values())
        middle = cls[FacilityRef(1, 0, Fraction(1, 2))]
        assert middle.left_neighbor == Fraction(1, 4)
        assert middle.right_neighbor == Fraction(3, 4)

    def test_co_located_not_neighbors(self):
        profile = PureProfile.of(["1/3"], ["1/3", "2/3"])
        cls = classify(profile)[FacilityRef(0, 0, Fraction(1, 3))]
        assert cls.left_neighbor is None
        assert cls.right_neighbor == Fraction(2, 3)

    def test_owner_count_partition(self):
        rng = random.Random(11)
        for _ in range(50):
            game = make_game([rng.randint(1, 3) for _ in range(rng.randint(1, 4))])
            profile = rand_profile(rng, game, denom=12)
            cls = classify(profile)
            by_position = {}
            for ref in cls:
                by_position.setdefault(ref.position, set()).update(
                    cls[ref].co_located_players
                )
            assert sum(len(owners) for owners in by_position.values()) == game.n

    def test_permutation_equivariance(self):
        profile = PureProfile.of(["6/7"], ["4/7"], ["1/7", "3/7"], ["1/7", "6/7"])
        perm = [2, 0, 3, 1]  # new index -> old index
        permuted = PureProfile(tuple(profile.strategies[i] for i in perm))
        original = classify(profile)
        renamed = classify(permuted)
        inverse = {old: new for new, old in enumerate(perm)}
        for ref, facility_class in original.items():
            moved = FacilityRef(inverse[ref.player], ref.slot, ref.position)
            other = renamed[moved]
            assert other.is_lone == facility_class.is_lone
            assert other.left_neighbor == facility_class.left_neighbor
            assert other.co_located_players == frozenset(
                inverse[p] for p in facility_class.co_located_players
            )


class TestDominantPlayer:
    def test_examples(self):
        assert has_dominant_player(make_game([1, 1, 4])) == 2
        assert has_dominant_player(make_game([1, 1, 2, 2])) is None
        assert has_dominant_player(make_game([1, 2])) == 1

    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6))
    def test_strict_majority_only(self, counts):
        game = make_game(counts)
        dom = has_dominant_player(game)
        if dom is None:
            assert all(2 * c <= game.n for c in counts)
        else:
            assert 2 * counts[dom] > game.n


class TestFlatten:
    def test_documented_example(self):
        game = make_game([2, 1])
        profile = PureProfile.of(["1/4", "3/4"], ["1/2"])
        flat = flatten(game, profile)
        assert flat.game.counts == (1, 1, 1)
        assert [s.locations[0] for s in flat.profile.strategies] == [
            Fraction(1, 4),
            Fraction(3, 4),
            Fraction(1, 2),
        ]
        assert flat.back_map == ((0, 0), (0, 1), (1, 0))

    def test_shared_midpoint(self):
        game = make_game([1, 1])
        profile = PureProfile.of(["1/2"], ["1/2"])
        flat = flatten(game, profile)
        assert flat.game.counts == (1, 1)
        assert [s.locations[0] for s in flat.profile.strategies] == [Fraction(1, 2)] * 2

    def test_single_player(self):
        game = make_game([2])
        flat = flatten(game, PureProfile.of(["1/4", "3/4"]))
        assert flat.game.counts == (1, 1)

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(50):
            game = make_game([rng.randint(1, 4) for _ in range(rng.randint(1, 4))])
            profile = rand_profile(rng, game, denom=16)
            flat = flatten(game, profile)
            multiset = sorted(x for s in profile.strategies for x in s)
            assert sorted(s.locations[0] for s in flat.profile.strategies) == multiset
            rebuilt = [[] for _ in game.counts]
            for k, (i, j) in enumerate(flat.back_map):
                rebuilt[i].append((j, flat.profile.strategies[k].locations[0]))
            for i, pairs in enumerate(rebuilt):
                ordered = tuple(x for _, x in sorted(pairs))
                assert ordered == profile.strategies[i].locations

    def test_shape_mismatch(self):
        with pytest.raises(InvalidStrategy):
            flatten(make_game([2, 1]), PureProfile.of(["1/2"], ["1/4", "3/4"]))
