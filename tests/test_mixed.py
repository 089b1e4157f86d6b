"""Tests for mixed strategies, expectations, the facility measure and SOI."""

import copy
import dataclasses
import itertools
import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hotelling import (
    Game,
    InvalidInput,
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
    two_player_equilibrium,
    verify_two_player,
)

import hotelling.mixed as mixed_module
from hotelling.mixed import _expected_counts

import hotelling.serialize as serialize_module
from hotelling.serialize import mixed_strategy_from_json, parse_profile_document, profile_document

from helpers import TABLE_ROUTES, combined_strategy, enumerated_payoffs, rand_strategy, reference_support

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

    @pytest.mark.parametrize(
        "first,second",
        [
            (("2/4",), (F(1, 2),)),
            ((1,), ("1/1",)),
            (("0.5",), ("1/2",)),
            ((0,), ("0/3",)),
            (("1/4", "2/4"), (F(1, 4), "0.5")),
        ],
    )
    def test_duplicates_written_differently(self, first, second):
        with pytest.raises(InvalidStrategy) as exc:
            MixedStrategy(((first, F(1, 2)), (second, F(1, 2))))
        assert str(exc.value) == f"duplicate support entry {PureStrategy.of(*second).locations}"


SUPPORT_FAULTS = (
    "valid", "empty-support", "outside", "not-increasing", "no-location", "float-location",
    "bad-string", "float-prob", "non-positive", "duplicate", "size", "sum", "entry-shape",
)


def rand_support(rng, fault):
    """A seeded support with the named fault, or none for "valid".

    Most supports hold only Fractions, in ``PureStrategy``s and tuples; the
    others mix in lists, ints and strings, which the check converts first.
    Locations are either shared objects or fresh ones, so equal values are
    often held by distinct objects.
    """
    exact = rng.random() < 0.6
    if fault == "empty-support":
        return ()
    size = rng.randint(1, 3)
    denom = rng.choice([2, 3, 4, 6, 8, 12])
    shared = {v: F(v, denom) for v in range(denom + 1)}
    candidates = list(itertools.combinations(range(denom + 1), size))
    count = 1 if size == 1 and rng.random() < 0.3 else rng.randint(2, 12)
    rows = rng.sample(candidates, min(count, len(candidates)))
    count = len(rows)
    weights = [rng.randint(1, 4) for _ in rows]
    probs = [F(w, sum(weights)) for w in weights]

    def location(v):
        form = rng.random()
        if form < 0.5:
            return shared[v]
        if form < 0.7 or exact:
            return F(v * 2, denom * 2)  # equal value, distinct object
        if form < 0.85:
            return f"{v}/{denom}"
        return v // denom if v % denom == 0 else F(v, denom)

    strategies = [[location(v) for v in row] for row in rows]
    i = rng.randrange(count)
    if fault == "outside":
        outside = [F(-1, denom), F(denom + 1, denom)] + ([] if exact else [2, "-1/3"])
        strategies[i][rng.randrange(size)] = rng.choice(outside)
    elif fault == "not-increasing":
        if size == 1:
            strategies[i] = [F(1, 2), F(1, 2)] if rng.random() < 0.5 else [F(2, 3), F(1, 3)]
        else:
            strategies[i].reverse()
    elif fault == "no-location":
        strategies[i] = []
    elif fault == "float-location":
        strategies[i][rng.randrange(size)] = rng.choice([0.5, True, None])
    elif fault == "bad-string":
        strategies[i][rng.randrange(size)] = rng.choice(["x/y", "1/0", "1e-3", "1_0"])
    elif fault == "float-prob":
        probs[i] = rng.choice([0.5, True, "1/0", None])
    elif fault == "non-positive":
        j = rng.randrange(count)
        probs[i], probs[j] = rng.choice([F(0), F(-1, 3)]), probs[j] + probs[i]
    elif fault == "duplicate":
        j = rng.randrange(count)
        strategies.append([F(v.numerator * 3, v.denominator * 3) if isinstance(v, F) else v for v in strategies[j]])
        probs = [p / 2 for p in probs] + [F(1, 2)]
    elif fault == "size":
        if size > 1:
            del strategies[i][-1]
        elif rows[i][0] < denom:
            strategies[i].append(shared[denom])
        else:
            strategies[i].insert(0, shared[0])
    elif fault == "sum":
        probs[i] += rng.choice([F(1, 7), F(-1, 100), F(1)])
    forms = []
    for strategy in strategies:
        form = rng.random()
        if form < 0.3 and fault in ("valid", "non-positive", "duplicate", "size", "sum"):
            strategy = PureStrategy.of(*strategy)
        elif form < 0.8 or exact:
            strategy = tuple(strategy)
        forms.append(strategy)
    if not exact:
        probs = [
            str(p) if rng.random() < 0.1 and isinstance(p, F) else 1 if p == 1 and rng.random() < 0.5 else p
            for p in probs
        ]
    support = list(zip(forms, probs))
    if fault == "entry-shape":
        support[i] = rng.choice([(forms[i],), (forms[i], probs[i], 0), [forms[i], probs[i]], None])
    return tuple(support)


def support_outcome(check, support):
    try:
        return "ok", check(support)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


def fresh_table(x):
    """The integer table of x's support, scaled afresh from its Fractions."""
    locations = [loc for s, _ in x.support for loc in s]
    probs = [p for _, p in x.support]
    scale, ints = mixed_module._scaled(locations)
    den, weights = mixed_module._scaled(probs)
    # the integers read back as the support's values
    assert scale == math.lcm(*(loc.denominator for loc in locations))
    assert [F(i, scale) for i in ints] == locations
    assert den == math.lcm(*(p.denominator for p in probs))
    assert [F(w, den) for w in weights] == probs
    return scale, ints, den, weights


def test_table_check_agrees_with_entry_by_entry_reference():
    rng = random.Random(15)
    seen = {fault: 0 for fault in SUPPORT_FAULTS}
    valid = 0
    faults = itertools.cycle(SUPPORT_FAULTS[1:])
    for case in range(900):
        fault = "valid" if case % 3 == 0 else next(faults)  # every third one valid
        support = rand_support(rng, fault)
        expected = support_outcome(reference_support, support)
        got = support_outcome(lambda s: MixedStrategy(s).support, support)
        assert got == expected, (fault, support)
        if expected[0] == "ok":
            valid += 1
            x = MixedStrategy(support)
            assert x._table == fresh_table(x), (fault, support)
            for strategy, prob in got[1]:
                assert type(strategy) is PureStrategy and type(prob) is F
                assert all(type(x) is F for x in strategy.locations)
        seen[fault] += expected[0] != "ok" or fault == "valid"
    # every fault kind raised, not just drawn
    assert all(seen.values()), seen
    assert valid >= 250


@pytest.mark.parametrize(
    "support",
    [
        ((PureStrategy.of("1/4"), F(1, 2)), ((F(3, 4),), F(1, 2))),
        (((F(1, 4),), 1),),
        ((("1/4",), "1/1"),),
        ((PureStrategy.of("1/4"), F(1, 2)), ((F(2, 8),), F(1, 2))),
        (((F(1, 2), F(3, 4)), F(2, 3)), ((F(1, 2), F(2, 4)), F(1, 3))),
    ],
    ids=["mixed-forms", "int-prob", "str-point", "equal-values-distinct-objects", "fault-in-last"],
)
def test_table_check_examples(support):
    expected = support_outcome(reference_support, support)
    assert support_outcome(lambda s: MixedStrategy(s).support, support) == expected


DOCUMENT_FAULTS = (
    "valid", "bad-string", "exponent", "bool", "float", "int", "not-a-list", "missing-key",
    "sizes", "duplicate", "not-increasing", "outside", "non-positive", "sum",
)


def spelled(value, rng):
    """A rational string for value: plain, unreduced or, where exact, decimal."""
    form = rng.random()
    if form < 0.2 and value.denominator in (1, 2, 4, 5, 8):
        return str(value.numerator / value.denominator)
    if form < 0.4:
        factor = rng.randint(2, 5)
        return f"{value.numerator * factor}/{value.denominator * factor}"
    return f"{value.numerator}/{value.denominator}"


def rand_document(rng, fault):
    """A seeded mixed document with the named fault, or none for "valid".

    Locations and probabilities are strings in several spellings, and some
    entries carry a key the decoder ignores; each fault changes one entry.
    """
    size = rng.randint(1, 3)
    denom = rng.choice([2, 4, 6, 8, 12])
    candidates = list(itertools.combinations(range(denom + 1), size))
    rows = rng.sample(candidates, min(rng.randint(1, 10), len(candidates)))
    weights = [rng.randint(1, 4) for _ in rows]
    entries = [
        {"strategy": [spelled(F(v, denom), rng) for v in row], "prob": spelled(F(w, sum(weights)), rng)}
        for row, w in zip(rows, weights)
    ]
    for entry in entries:
        if rng.random() < 0.2:
            entry["note"] = rng.choice(["x", 1, None])
    i = rng.randrange(len(entries))
    entry = entries[i]
    key = rng.choice(["strategy", "prob"])

    def one_value(value):
        if key == "prob":
            entry["prob"] = value
        else:
            entry["strategy"][rng.randrange(size)] = value

    if fault == "bad-string":
        one_value(rng.choice(["x/y", "1/0", "1_0", "", "1/2/3", "\u0663"]))
    elif fault == "exponent":
        one_value(rng.choice(["1e-3", "2E-1", "5e-1"]))
    elif fault == "bool":
        one_value(rng.choice([True, False]))
    elif fault == "float":
        one_value(rng.choice([0.5, 1.0, 0.0]))
    elif fault == "int":  # ints are rationals: the document may still be valid
        one_value(rng.choice([0, 1, 2, -1]))
    elif fault == "not-a-list":
        entry["strategy"] = rng.choice(["1/2", {"0": "1/2"}, None, 1])
    elif fault == "missing-key":
        if rng.random() < 0.2:
            entries[i] = rng.choice([["1/2"], "1/2", None])
        else:
            del entry[key]
    elif fault == "sizes":
        if size > 1 and rng.random() < 0.5:
            entry["strategy"].pop()
        else:
            entry["strategy"] = [*entry["strategy"], "1"] if rows[i][-1] < denom else ["0", *entry["strategy"]]
    elif fault == "duplicate":
        j = rng.randrange(len(entries))
        entries.append({"strategy": [spelled(F(v, denom), rng) for v in rows[j]], "prob": "1/2"})
        for earlier, w in zip(entries, weights):
            earlier["prob"] = spelled(F(w, 2 * sum(weights)), rng)
    elif fault == "not-increasing":
        entry["strategy"] = [*entry["strategy"], entry["strategy"][-1]] if size == 1 else entry["strategy"][::-1]
    elif fault == "outside":
        entry["strategy"][rng.randrange(size)] = rng.choice(["-1/3", "5/4", "1.5", f"{denom + 1}/{denom}"])
    elif fault == "non-positive":
        entry["prob"] = rng.choice(["0", "-1/3", "0/5"])
    elif fault == "sum":
        entry["prob"] = spelled(F(weights[i], sum(weights)) + rng.choice([F(1, 7), F(-1, 100), F(1)]), rng)
    return entries


def test_decoder_table_route_agrees_with_entry_by_entry_decoding():
    rng = random.Random(22)
    raised = {fault: 0 for fault in DOCUMENT_FAULTS}
    tabled = 0
    faults = itertools.cycle(DOCUMENT_FAULTS[1:])
    for case in range(900):
        fault = "valid" if case % 3 == 0 else next(faults)
        document = rand_document(rng, fault)
        expected = support_outcome(lambda d: serialize_module._entries_from_json(d, "mixed")._table, document)
        got = support_outcome(lambda d: mixed_strategy_from_json(d)._table, document)
        assert got == expected, (fault, document)
        direct = serialize_module._table_from_json(document)
        if direct is not None:  # the table route took it: the same table
            tabled += 1
            assert expected == ("ok", direct._table), (fault, document)
        raised[fault] += expected[0] != "ok" or fault == "valid"
    # every fault kind raised, not just drawn, and most valid documents
    # were read by the table route
    assert all(raised.values()), raised
    assert tabled >= 250


class TestKeptTable:
    @pytest.mark.parametrize("name", list(TABLE_ROUTES))
    def test_every_route_keeps_the_support_table(self, name):
        routes = TABLE_ROUTES[name]()
        for x in routes:
            assert x._table == fresh_table(x)
            assert all(type(s) is PureStrategy for s, _ in x.support)
            assert all(type(v) is F for s, p in x.support for v in (*s, p))
        # equal supports from different routes are equal, hash equal and
        # keep equal tables
        assert len(set(routes)) == 1 and all(x == routes[0] for x in routes)
        assert len({repr(x) for x in routes}) == 1
        assert all(x._table == routes[0]._table for x in routes)

    def test_table_is_not_a_field(self):
        x = make_olk(2, 4)
        assert [f.name for f in dataclasses.fields(MixedStrategy)] == ["support"]
        assert repr(x) == f"MixedStrategy(support={x.support!r})"
        same = dataclasses.replace(x)
        assert same == x and hash(same) == hash(x) and same._table == x._table
        changed = dataclasses.replace(x, support=((PureStrategy.of("0", "1"), F(1)),))
        assert changed._table == (1, [0, 1], 1, [1])

    @pytest.mark.parametrize("name", list(TABLE_ROUTES))
    def test_copies_agree_on_every_route(self, name):
        for x in TABLE_ROUTES[name]():
            # copied before a support made from a table is built, then after
            copies = [copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]
            copies += [dataclasses.replace(x), copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]
            for same in copies:
                assert type(same) is MixedStrategy
                assert same == x and hash(same) == hash(x) and repr(same) == repr(x)
                assert same.support == x.support and same._table == x._table

    @pytest.mark.parametrize("locations", [["0"], ["1"], ["1/3", "1/2", "1"], ["0", "2/7", "5/6"]])
    def test_point_masses_are_written_as_tables(self, locations):
        strategy = PureStrategy.of(*locations)
        checked = MixedStrategy(((strategy, F(1)),))
        for x in (MixedStrategy.point(strategy), MixedStrategy.point(locations)):
            assert "support" not in vars(x)
            assert x._table == checked._table == fresh_table(checked)
            assert x == checked and hash(x) == hash(checked) and repr(x) == repr(checked)
            assert x.is_point() and x.as_pure() == strategy
        with pytest.raises(InvalidStrategy):
            MixedStrategy.point(locations[::-1] + ["0"])

    def test_unequal_tables_are_unequal(self):
        x, y = make_olk(2, 4), make_olk(3, 4)
        assert x != y and x != make_olk(2, 6) and x != x.support and x != MixedStrategy(x.support[::-1])

    def test_two_player_documents_never_build_the_support(self):
        game = Game((6, 12))
        profile = two_player_equilibrium(game)
        text = json.dumps(profile_document(game, profile))  # construct
        _, decoded = parse_profile_document(json.loads(text))
        mixed_payoff(game, decoded)  # payoff
        assert verify_two_player(game, *decoded.strategies).verdict  # verify
        # only the optimum's one entry is read, by verify's as_pure
        for x in (*profile.strategies, decoded.strategies[0]):
            assert "support" not in vars(x)
        assert len(decoded.strategies[1].support) == 1


def grid_points(denom):
    return [F(i, denom) for i in range(denom + 1)]


def weighted_mixture(rng, entries):
    """The distinct strategies in entries, with random positive weights."""
    weights = [rng.randint(1, 6) for _ in entries]
    return MixedStrategy(tuple((s, F(w, sum(weights))) for s, w in zip(entries, weights)))


def rand_mixture(rng, count, grid, must=()):
    """One to three distinct strategies on the points of grid, each holding the points in must."""
    free = [x for x in grid if x not in must]
    entries = list(
        dict.fromkeys(
            PureStrategy(tuple(sorted((*must, *rng.sample(free, count - len(must))))))
            for _ in range(rng.randint(1, 3))
        )
    )
    return weighted_mixture(rng, entries)


def rand_mixed_profile(rng, kind):
    """A seeded game and mixed profile of a kind that stresses ``mixed_payoff``.

    shared: one grid for every player; coprime: a distinct prime grid per
    player; common-point: every draw stacks all players on one point;
    endpoints: every draw occupies 0 or 1, or both; own-neighbours: player
    0 keeps to [0, 1/2] and everyone else to (1/2, 1], so no opponent falls
    between its own neighbours; co-located: all players share four points,
    so opponents often sit on own points; open-ends: player 0 holds 0 and 1
    and nobody else reaches either; many-mixers: three to five players, two
    or more of them mixing; tied-cost: every player plays one mixture, so
    all tie in opponent draws when the remainder is chosen.
    """
    if kind == "own-neighbours":
        counts = [rng.randint(2, 3)] + [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        grid = grid_points(rng.choice([8, 12]))
        half = len(grid) // 2 + 1
        strategies = [rand_mixture(rng, counts[0], grid[:half])]
        strategies += [rand_mixture(rng, c, grid[half:]) for c in counts[1:]]
        return make_game(counts), MixedProfile(tuple(strategies))
    if kind == "co-located":
        counts = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        points = sorted(rng.sample(grid_points(rng.choice([6, 8, 12])), 4))
        return make_game(counts), MixedProfile(tuple(rand_mixture(rng, c, points) for c in counts))
    if kind == "open-ends":
        counts = [rng.randint(2, 3)] + [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        grid = grid_points(rng.choice([6, 8, 12]))
        strategies = [rand_mixture(rng, counts[0], grid, (F(0), F(1)))]
        strategies += [rand_mixture(rng, c, grid[1:-1]) for c in counts[1:]]
        return make_game(counts), MixedProfile(tuple(strategies))
    if kind == "many-mixers":
        counts = [rng.randint(1, 3) for _ in range(rng.randint(3, 5))]
        grid = grid_points(rng.choice([6, 8, 12]))
        mixers = rng.sample(range(len(counts)), rng.randint(2, len(counts)))
        strategies = []
        for i, c in enumerate(counts):
            chosen = rng.sample(list(itertools.combinations(grid, c)), rng.randint(2, 3) if i in mixers else 1)
            strategies.append(weighted_mixture(rng, [PureStrategy(s) for s in chosen]))
        return make_game(counts), MixedProfile(tuple(strategies))
    if kind == "tied-cost":
        c = rng.randint(1, 3)
        players = rng.randint(2, 4)
        mixture = rand_mixture(rng, c, grid_points(rng.choice([6, 8, 12])))
        return make_game([c] * players), MixedProfile((mixture,) * players)
    game = make_game([rng.randint(1, 3) for _ in range(rng.randint(1, 4))])
    if kind == "coprime":
        denoms = rng.sample([5, 7, 11, 13], game.num_players)
        strategies = [rand_mixture(rng, c, grid_points(d)) for c, d in zip(game.counts, denoms)]
        return game, MixedProfile(tuple(strategies))
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
        strategies.append(rand_mixture(rng, c, grid_points(denom), must))
    return game, MixedProfile(tuple(strategies))


class TestMixedPayoff:
    @pytest.mark.parametrize(
        "kind",
        [
            "shared",
            "coprime",
            "common-point",
            "endpoints",
            "own-neighbours",
            "co-located",
            "open-ends",
            "many-mixers",
            "tied-cost",
        ],
    )
    def test_matches_enumerated_reference(self, kind):
        rng = random.Random(sum(map(ord, kind)))
        for _ in range(100):
            game, profile = rand_mixed_profile(rng, kind)
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
        # the player paid the remainder draws nothing, and every other player
        # meets 101**3 opponent draws, over the cap of 10**6: the guard fires
        # before the first draw
        game = make_game([1, 1, 1, 1])
        big = MixedStrategy.uniform(
            [PureStrategy((F(i, 100),)) for i in range(101)]
        )
        profile = MixedProfile((big,) * 4)
        with pytest.raises(SupportTooLarge):
            mixed_payoff(game, profile)

    def test_support_cap_boundary(self):
        # exactly DEFAULT_SUPPORT_CAP joint draws pass, one more is refused
        mixed_module._refuse_too_many_draws(10**6)
        with pytest.raises(SupportTooLarge, match=r"^product support has 1000001 combinations \(cap 1000000\)$"):
            mixed_module._refuse_too_many_draws(10**6 + 1)

    def test_symmetric_uniform_three_players(self):
        # two players are paid from 11**2 opponent draws each, the third the rest
        game = make_game([1, 1, 1])
        uniform = MixedStrategy.uniform([PureStrategy((F(i, 10),)) for i in range(11)])
        profile = MixedProfile((uniform,) * 3)
        payoffs = mixed_payoff(game, profile)
        assert payoffs == (F(1, 3),) * 3 == enumerated_payoffs(profile)


    def test_remainder_goes_to_the_player_facing_most_draws(self, monkeypatch):
        # with the cap at 100 the pure player, facing 5**3 draws, must take
        # the remainder wherever it sits; each mixer faces 25 draws
        monkeypatch.setattr(mixed_module, "DEFAULT_SUPPORT_CAP", 100)
        five = MixedStrategy.uniform([PureStrategy((F(i, 4),)) for i in range(5)])
        pure = MixedStrategy.point(PureStrategy((F(1, 3),)))
        game = make_game([1, 1, 1, 1])
        last = MixedProfile((five, five, five, pure))
        first = mixed_payoff(game, MixedProfile((pure, five, five, five)))
        assert mixed_payoff(game, last) == first[1:] + first[:1] == enumerated_payoffs(last)

    def test_only_players_paid_directly_are_folded(self, monkeypatch):
        # the pure player faces most draws and takes the remainder, so only
        # the three mixers' chains are folded, each once
        folded = []

        def counted(support, scale):
            folded.append(len(support))
            return real_halves(support, scale)

        real_halves = mixed_module._chain_halves
        monkeypatch.setattr(mixed_module, "_chain_halves", counted)
        five = MixedStrategy.uniform([PureStrategy((F(i, 4),)) for i in range(5)])
        pure = MixedStrategy.point(PureStrategy((F(1, 3),)))
        profile = MixedProfile((five, pure, five, five))
        assert mixed_payoff(make_game([1, 1, 1, 1]), profile) == enumerated_payoffs(profile)
        assert folded == [5, 5, 5]

    def test_cap_refuses_before_any_draw(self, monkeypatch):
        # 11 single points and two 10-entry pair mixtures face 100, 110 and
        # 110 draws: one mixture takes the remainder and the other is refused
        # before player 0, within the cap, enumerates anything
        consumed = []

        def counted(supports, scale):
            for item in real_draws(supports, scale):
                consumed.append(item)
                yield item

        real_draws = mixed_module._sorted_draws
        monkeypatch.setattr(mixed_module, "DEFAULT_SUPPORT_CAP", 100)
        monkeypatch.setattr(mixed_module, "_sorted_draws", counted)
        points = MixedStrategy.uniform([PureStrategy((F(i, 10),)) for i in range(11)])
        profile = MixedProfile((points, make_olk(2, 5), make_olk(2, 5)))
        with pytest.raises(SupportTooLarge):
            mixed_payoff(make_game([1, 2, 2]), profile)
        assert consumed == []

    def test_cap_refuses_before_any_chain(self, monkeypatch):
        # the profile of test_cap_refuses_before_any_draw: no player's chain
        # is folded before the refusal, whose message names the 110 draws
        folded = []

        def counted(support, scale):
            folded.append(len(support))
            return real_halves(support, scale)

        real_halves = mixed_module._chain_halves
        monkeypatch.setattr(mixed_module, "DEFAULT_SUPPORT_CAP", 100)
        monkeypatch.setattr(mixed_module, "_chain_halves", counted)
        points = MixedStrategy.uniform([PureStrategy((F(i, 10),)) for i in range(11)])
        profile = MixedProfile((points, make_olk(2, 5), make_olk(2, 5)))
        with pytest.raises(SupportTooLarge) as exc:
            mixed_payoff(make_game([1, 2, 2]), profile)
        assert str(exc.value) == "product support has 110 combinations (cap 100)"
        assert folded == []


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


@pytest.mark.parametrize(
    "call,error,message",
    [
        pytest.param(lambda: MixedStrategy.uniform([]), InvalidStrategy, "uniform mixture over an empty family",
                     id="uniform-empty"),
        pytest.param(lambda: make_olk(1, 2).as_pure(), InvalidStrategy, "not a point mass", id="as-pure-mixture"),
        pytest.param(lambda: MeasureQuery.interval("3/4", "1/4"), InvalidInput,
                     "query [3/4, 1/4] must satisfy 0 <= lower <= upper <= 1", id="query-upper-below-lower"),
        pytest.param(lambda: is_soi(make_olk(1, 2), 3, 2), InvalidInput, "need 1 <= l <= k, got l=3, k=2",
                     id="soi-l-above-k"),
        pytest.param(lambda: is_soi(make_olk(1, 2), 2, 4), InvalidInput,
                     "strategy places 1 facilities, expected l=2", id="soi-wrong-size"),
        pytest.param(lambda: make_olk(0, 3), InvalidInput, "need 1 <= l <= k, got l=0, k=3", id="olk-l-zero"),
    ],
)
def test_faults_are_named(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


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
