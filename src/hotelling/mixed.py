"""Finite-support mixed strategies, exact expectations and facility measures.

Mixed strategies here always have finite support: every equilibrium object
this library constructs or certifies mixes over finitely many pure
strategies, so expectations are exact rational sums of each player's own
chain of facilities over its opponents' joint draws.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .core import (
    ONE,
    ZERO,
    Game,
    PureProfile,
    PureStrategy,
    RationalLike,
    as_fraction,
    require_profile,
)
from .errors import InvalidInput, InvalidStrategy, SupportTooLarge

DEFAULT_SUPPORT_CAP = 10**6

# a support entry's locations as integers over a scale, see _scaled_supports
_Row = tuple[int, ...]
# a facility's weighted own left and right neighbours, see _chain_pay
_Halves = tuple[Sequence[tuple[int, int]], Sequence[tuple[int, int]]]
# a support as integers, (scale, ints, den, weights): every location, entry
# after entry, as an integer over scale, and every probability over den
_Table = tuple[int, list[int], int, list[int]]


def _over_lcm(ratios: dict) -> tuple[int, dict]:
    """The lcm of the reduced ratios' denominators, and each key's ratio as
    an integer over it."""
    scale = math.lcm(*{den for _, den in ratios.values()})
    return scale, {key: num * (scale // den) for key, (num, den) in ratios.items()}


def _scaled(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm of the values' denominators, and the values as integers over it.

    Each distinct object is converted once: a support repeats a few location
    and probability objects over all its entries. Objects are told apart by
    ``id`` while ``values`` holds them, so no Fraction is hashed.
    """
    ids = list(map(id, values))
    scale, ints = _over_lcm({key: x.as_integer_ratio() for key, x in dict(zip(ids, values)).items()})
    return scale, list(map(ints.__getitem__, ids))


def _sound_table(table: _Table, size: int) -> bool:
    """Whether a table of ``size``-location rows passes every integer check.

    Strict increase is one comparison of neighbouring columns, and then the
    range one ``min`` of the first column and one ``max`` of the last.
    Duplicates are one set of rows, and the weights must be positive and
    sum to ``den``.
    """
    scale, ints, den, weights = table
    columns = [ints[j::size] for j in range(size)]
    if not all(all(map(operator.lt, a, b)) for a, b in zip(columns, columns[1:])):
        return False
    if min(columns[0]) < 0 or max(columns[-1]) > scale:
        return False
    return len(set(zip(*[iter(ints)] * size))) == len(weights) and min(weights) > 0 and sum(weights) == den


def _checked_entries(support: tuple) -> tuple[tuple[PureStrategy, Fraction], ...]:
    """Convert and check the support entry by entry, raising its first fault.

    Strategies given as other sequences become ``PureStrategy``s, which
    check their own locations, and rationals given as ``int`` or ``str``
    become Fractions; then the support is checked as a whole.
    """
    entries = []
    for strategy, prob in support:
        if type(strategy) is not PureStrategy:
            strategy = PureStrategy(tuple(strategy))
        entries.append((strategy, as_fraction(prob)))
    if not entries:
        raise InvalidStrategy("mixed strategy needs a non-empty support")
    den = math.lcm(*(p.denominator for _, p in entries))
    total = 0  # probabilities summed as integers over den
    # entries keyed by their locations' integer ratios, which hash far
    # faster than Fractions; a duplicate leaves the set short of count
    seen: set[tuple[tuple[int, int], ...]] = set()
    size = len(entries[0][0])
    for count, (strategy, prob) in enumerate(entries, 1):
        if prob.numerator <= 0:
            raise InvalidStrategy(f"probability {prob} is not positive")
        seen.add(tuple(map(Fraction.as_integer_ratio, strategy.locations)))
        if len(seen) != count:
            raise InvalidStrategy(f"duplicate support entry {strategy.locations}")
        if len(strategy) != size:
            raise InvalidStrategy("support entries must place the same number of facilities")
        total += prob.numerator * (den // prob.denominator)
    if total != den:
        raise InvalidStrategy(f"probabilities sum to {Fraction(total, den)}, expected 1")
    return tuple(entries)


@dataclass(frozen=True)
class MixedStrategy:
    """A finite probability distribution over pure strategies.

    Probabilities are positive rationals summing to exactly 1; support
    entries are pairwise distinct and all place the same number of
    facilities. An entry's strategy may be given as a ``PureStrategy`` or
    as a sequence of rationals, and its probability as any rational.

    The strategy is its checked integer table, ``_table``, which equality
    and hashing compare and the library's payoffs, searches, measures and
    encoder read. A strategy made from a table (``_of_table``) builds
    ``support`` on first read.
    """

    support: tuple[tuple[PureStrategy, Fraction], ...]

    def __post_init__(self) -> None:
        support = _checked_entries(tuple(self.support))
        strategies, probs = zip(*support)
        locations = list(itertools.chain.from_iterable(s.locations for s in strategies))
        table = (*_scaled(locations), *_scaled(probs))
        object.__setattr__(self, "support", support)
        # not a field, so repr shows the support alone
        object.__setattr__(self, "_table", table)

    @classmethod
    def _of_table(cls, table: _Table) -> "MixedStrategy":
        """The strategy of a table its caller has already checked, with no
        ``support`` until it is read."""
        strategy = object.__new__(cls)
        object.__setattr__(strategy, "_table", table)
        return strategy

    def __getattr__(self, name: str):
        # called only for a missing attribute: support, if made from a table
        if name != "support" or "_table" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        scale, ints, den, weights = self._table
        locations = {i: Fraction(i, scale) for i in set(ints)}
        probs = {w: Fraction(w, den) for w in set(weights)}
        rows = zip(*[map(locations.__getitem__, ints)] * self.num_facilities)
        support = tuple(zip(map(PureStrategy._checked, rows), map(probs.__getitem__, weights)))
        object.__setattr__(self, "support", support)
        return support

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._table == other._table

    def __hash__(self) -> int:
        scale, ints, den, weights = self._table
        return hash((scale, tuple(ints), den, tuple(weights)))

    @classmethod
    def point(cls, strategy: PureStrategy | Sequence[RationalLike]) -> "MixedStrategy":
        """The point mass on a strategy, written straight to its table: a
        checked ``PureStrategy`` is in range and increasing, and one entry
        of weight 1 is a sound support."""
        if type(strategy) is not PureStrategy:
            strategy = PureStrategy.of(*strategy)
        return cls._of_table((*_scaled(strategy.locations), 1, [1]))

    @classmethod
    def uniform(cls, strategies: Iterable[PureStrategy | tuple[Fraction, ...]]) -> "MixedStrategy":
        strats = tuple(strategies)
        if not strats:
            raise InvalidStrategy("uniform mixture over an empty family")
        return cls(tuple(zip(strats, itertools.repeat(Fraction(1, len(strats))))))

    @property
    def num_facilities(self) -> int:
        _, ints, _, weights = self._table
        return len(ints) // len(weights)

    def is_point(self) -> bool:
        return len(self._table[3]) == 1

    def as_pure(self) -> PureStrategy:
        if not self.is_point():
            raise InvalidStrategy("not a point mass")
        return self.support[0][0]


def _uniform_subsets(points: Sequence[int], scale: int, size: int) -> MixedStrategy:
    """The uniform mixture over the ``size``-subsets of ``points``, which are
    distinct increasing integers in ``[0, scale]``.

    Its table is written directly, with no check: the subsets are distinct,
    increasing and in range by construction. Like ``_scaled``, the table's
    scale is the lcm of the locations' reduced denominators, ``scale``
    divided by its gcd with every point.
    """
    common = math.gcd(scale, *points)
    rows = list(itertools.combinations([x // common for x in points], size))
    ints = list(itertools.chain.from_iterable(rows))
    return MixedStrategy._of_table((scale // common, ints, len(rows), [1] * len(rows)))


@dataclass(frozen=True)
class MixedProfile:
    """One mixed strategy per player; pure profiles embed as point masses."""

    strategies: tuple[MixedStrategy, ...]

    def __post_init__(self) -> None:
        if not self.strategies:
            raise InvalidStrategy("a profile needs at least one strategy")
        object.__setattr__(self, "strategies", tuple(self.strategies))

    @classmethod
    def from_pure(cls, profile: PureProfile) -> "MixedProfile":
        return cls(tuple(MixedStrategy.point(s) for s in profile.strategies))

    @property
    def num_players(self) -> int:
        return len(self.strategies)

    def matches(self, game: Game) -> bool:
        return self.num_players == game.num_players and all(
            x.num_facilities == c for x, c in zip(self.strategies, game.counts)
        )

    def support_size(self) -> int:
        return math.prod(len(x._table[3]) for x in self.strategies)


def _refuse_too_many_draws(size: int) -> None:
    """The one draw cap: raise ``SupportTooLarge`` for more than
    ``DEFAULT_SUPPORT_CAP`` joint draws."""
    if size > DEFAULT_SUPPORT_CAP:
        raise SupportTooLarge(f"product support has {size} combinations (cap {DEFAULT_SUPPORT_CAP})")


def _scaled_supports(strategies: Sequence[MixedStrategy], scale: int) -> list[list[tuple[_Row, int]]]:
    """Each strategy's support as ``(row, weight)`` pairs from its table:
    locations as integers over ``scale``, which every table's own scale
    divides, and probabilities as integers over the table's denominator."""
    supports = []
    for mixed in strategies:
        own, ints, _, weights = mixed._table
        rows = map((scale // own).__mul__, ints)
        supports.append(list(zip(zip(*[rows] * mixed.num_facilities), weights)))
    return supports


def _sorted_draws(supports: Sequence[Sequence[tuple[_Row, int]]], scale: int) -> Iterator[tuple[int, list[int]]]:
    """Every joint draw of independent players: its weight, the product of
    its entries' weights, and its positions sorted, with repeats, between
    sentinels ``-scale`` and ``3*scale`` beyond every own neighbour.

    ``supports`` holds one sequence of ``(row, weight)`` entries per player,
    as ``_scaled_supports`` builds them. Callers refuse more than
    ``DEFAULT_SUPPORT_CAP`` draws with ``_refuse_too_many_draws`` first.
    """
    for combo in itertools.product(*supports):
        positions = sorted(itertools.chain.from_iterable(row for row, _ in combo))
        yield math.prod(w for _, w in combo), [-scale, *positions, 3 * scale]


def _chain_halves(support: Sequence[tuple[_Row, int]], scale: int) -> tuple[list[int], list[_Halves]]:
    """Fold a scaled support into each position's weighted own neighbours.

    ``_chain_pay``'s doubled cell is a right half minus a left half, so
    the chain triples ``(prev, x, next)`` fold into the keys ``x`` and
    their halves ``([(prev, w)...], [(next, w)...])``, with ``w`` the total
    weight of the entries holding each pair. A missing neighbour stands at
    ``-x`` or ``2*scale - x``, which puts its boundary at 0 or ``2*scale``.
    """
    lefts: defaultdict[int, dict[int, int]] = defaultdict(dict)
    rights: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for s, weight in support:
        for x, prev, nxt in zip(s, (-s[0], *s), (*s[1:], 2 * scale - s[-1])):
            left = lefts[x]
            left[prev] = left.get(prev, 0) + weight
            right = rights[x]
            right[nxt] = right.get(nxt, 0) + weight
    return list(lefts), [(list(left.items()), list(rights[x].items())) for x, left in lefts.items()]


def _nearest(keys: Sequence[int], opponents: Sequence[int], split: int) -> list[tuple[int, int, int]]:
    """Each key's nearest opponents ``L`` below and ``R`` above, and its
    share of the cell, in units of ``1/split``.

    ``opponents`` is a sorted draw between sentinels. A key is a position,
    or for a one-sided limit a key no opponent can equal, such as an odd
    key among even positions. Opponents equal to the key share the cell,
    so the share is ``split`` over the head count, which divides it.
    """
    bounds = []
    for key in keys:
        lo = bisect_left(opponents, key)
        hi = bisect_right(opponents, key, lo)
        bounds.append((opponents[lo - 1], opponents[hi], split // (1 + hi - lo)))
    return bounds


def _chain_pay(keys: Sequence[int], halves: Sequence[_Halves], opponents: Sequence[int], split: int) -> int:
    """The cell formula: what a chain's halves earn against one draw.

    A facility at ``x`` between own neighbours ``prev`` and ``next`` has
    the doubled cell ``min(next, R) - max(prev, L)``, the ``x`` of both
    midpoints cancelling, with ``L``, ``R`` and its share from ``_nearest``
    of its key.
    """
    paid = 0
    for (left, right), (low, high, share) in zip(halves, _nearest(keys, opponents, split)):
        cell = 0
        for b, w in right:
            cell += w * (b if b < high else high)
        for a, w in left:
            cell -= w * (a if a > low else low)
        paid += cell * share
    return paid


def mixed_payoff(game: Game, profile: MixedProfile) -> tuple[Fraction, ...]:
    """Exact expected payoffs from each player's own chain and opponent draws.

    The players' tables go onto one scale, the lcm of theirs. A facility's
    cell depends only on its owner's neighbours and on the nearest
    opponents, so a player's payoff sums ``_chain_pay`` of its
    ``_chain_halves`` over the joint draws of its opponents alone, never
    over its own support. The cells partition [0, 1] in every draw, so one
    player is paid the remainder instead: the first of those facing most
    opponent draws, whose chain is never folded. The sums become Fractions
    once, at the end.
    """
    require_profile(game, profile)
    tables = [mixed._table for mixed in profile.strategies]
    scale = math.lcm(*(own for own, _, _, _ in tables))
    split = math.lcm(*range(1, game.num_players + 1))
    den = 2 * scale * split * math.prod(probs for _, _, probs, _ in tables)
    supports = _scaled_supports(profile.strategies, scale)
    joint = math.prod(len(support) for support in supports)
    draws = [joint // len(support) for support in supports]
    # the remainder goes to the first player facing most opponent draws, so
    # the others face at most the second-most: the cap refuses before any work
    remainder, *direct = sorted(range(game.num_players), key=draws.__getitem__, reverse=True)
    _refuse_too_many_draws(max((draws[i] for i in direct), default=0))
    totals = [0] * game.num_players
    for i in direct:
        keys, halves = _chain_halves(supports[i], scale)
        for weight, opponents in _sorted_draws(supports[:i] + supports[i + 1 :], scale):
            totals[i] += weight * _chain_pay(keys, halves, opponents, split)
    totals[remainder] = den - sum(totals)
    return tuple(Fraction(t, den) for t in totals)


@dataclass(frozen=True)
class MeasureQuery:
    """A point or an interval of [0,1] with open/closed endpoint flags."""

    lower: Fraction
    upper: Fraction
    lower_closed: bool = True
    upper_closed: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", as_fraction(self.lower))
        object.__setattr__(self, "upper", as_fraction(self.upper))
        if not (ZERO <= self.lower <= self.upper <= ONE):
            raise InvalidInput(
                f"query [{self.lower}, {self.upper}] must satisfy 0 <= lower <= upper <= 1"
            )

    @classmethod
    def point(cls, x: RationalLike) -> "MeasureQuery":
        x = as_fraction(x)
        return cls(x, x, True, True)

    @classmethod
    def interval(
        cls,
        lower: RationalLike,
        upper: RationalLike,
        lower_closed: bool = True,
        upper_closed: bool = True,
    ) -> "MeasureQuery":
        return cls(as_fraction(lower), as_fraction(upper), lower_closed, upper_closed)

    def contains(self, x: Fraction) -> bool:
        if self.lower == self.upper:  # {x : a < x <= a} and friends are empty
            return x == self.lower and self.lower_closed and self.upper_closed
        if self.lower < x < self.upper:
            return True
        if x == self.lower and self.lower_closed:
            return True
        if x == self.upper and self.upper_closed:
            return True
        return False

    def is_empty(self) -> bool:
        return self.lower == self.upper and not (self.lower_closed and self.upper_closed)


def _expected_counts(x: MixedStrategy) -> dict[Fraction, Fraction]:
    """Expected number of the strategy's facilities at each location it may use.

    The weights are summed on the strategy's integer table, with one
    Fraction per location at the end. Integers hash far faster than
    Fractions.
    """
    scale, ints, den, weights = x._table
    size = x.num_facilities
    counts: dict[int, int] = {}
    for j in range(size):
        for loc, weight in zip(ints[j::size], weights):
            counts[loc] = counts.get(loc, 0) + weight
    return {Fraction(loc, scale): Fraction(w, den) for loc, w in counts.items()}


def mu(x: MixedStrategy, query: MeasureQuery) -> Fraction:
    """Expected number of the strategy's facilities inside the query set."""
    return sum((c for loc, c in _expected_counts(x).items() if query.contains(loc)), ZERO)


def optimal_locations(k: int) -> tuple[Fraction, ...]:
    """The k locations minimizing social cost: (2i-1)/(2k) for i in 1..k."""
    if k < 1:
        raise InvalidInput(f"need at least one location, got k={k}")
    return tuple(Fraction(2 * i - 1, 2 * k) for i in range(1, k + 1))


@dataclass(frozen=True)
class SoiResult:
    """Outcome of a socially-optimal-imitation check."""

    ok: bool
    witness: Fraction | None = None  # first optimal point with the wrong measure

    def __bool__(self) -> bool:
        return self.ok


def is_soi(x: MixedStrategy, l: int, k: int) -> SoiResult:
    """Whether the strategy places expected mass l/k on every one of the k
    socially optimal points.

    The expected counts of all locations sum to l, so when the k optimal
    points carry l/k each, no support entry uses any other location.
    """
    if not 1 <= l <= k:
        raise InvalidInput(f"need 1 <= l <= k, got l={l}, k={k}")
    if x.num_facilities != l:
        raise InvalidInput(
            f"strategy places {x.num_facilities} facilities, expected l={l}"
        )
    expected = _expected_counts(x)
    target = Fraction(l, k)
    for point in optimal_locations(k):
        if expected.get(point, ZERO) != target:
            return SoiResult(False, point)
    return SoiResult(True)


def make_olk(l: int, k: int) -> MixedStrategy:
    """Uniform mixture over all size-l subsets of the k optimal locations."""
    if not 1 <= l <= k:
        raise InvalidInput(f"need 1 <= l <= k, got l={l}, k={k}")
    return _uniform_subsets(range(1, 2 * k, 2), 2 * k, l)
