"""Finite-support mixed strategies, exact expectations and facility measures.

Mixed strategies here always have finite support: every equilibrium object
this library constructs or certifies mixes over finitely many pure
strategies, so expectations are exact rational sums over product supports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, TypeVar

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
from .payoff import _catchments

DEFAULT_SUPPORT_CAP = 10**6

_Item = TypeVar("_Item")
_Prob = TypeVar("_Prob", int, Fraction)


@dataclass(frozen=True)
class MixedStrategy:
    """A finite probability distribution over pure strategies.

    Probabilities are positive rationals summing to exactly 1; support
    entries are pairwise distinct and all place the same number of
    facilities.
    """

    support: tuple[tuple[PureStrategy, Fraction], ...]

    def __post_init__(self) -> None:
        entries = []
        for strategy, prob in self.support:
            if not isinstance(strategy, PureStrategy):
                strategy = PureStrategy(tuple(strategy))
            entries.append((strategy, as_fraction(prob)))
        object.__setattr__(self, "support", tuple(entries))
        if not entries:
            raise InvalidStrategy("mixed strategy needs a non-empty support")
        den = math.lcm(*(p.denominator for _, p in entries))
        total = 0  # probabilities summed as integers over den
        seen: set[PureStrategy] = set()
        size = len(entries[0][0])
        for count, (strategy, prob) in enumerate(entries, 1):
            if prob <= 0:
                raise InvalidStrategy(f"probability {prob} is not positive")
            seen.add(strategy)  # hashed once: a duplicate leaves the set short of count
            if len(seen) != count:
                raise InvalidStrategy(f"duplicate support entry {strategy.locations}")
            if len(strategy) != size:
                raise InvalidStrategy("support entries must place the same number of facilities")
            total += prob.numerator * (den // prob.denominator)
        if total != den:
            raise InvalidStrategy(f"probabilities sum to {Fraction(total, den)}, expected 1")

    @classmethod
    def point(cls, strategy: PureStrategy | Sequence[RationalLike]) -> "MixedStrategy":
        if not isinstance(strategy, PureStrategy):
            strategy = PureStrategy.of(*strategy)
        return cls(((strategy, ONE),))

    @classmethod
    def uniform(cls, strategies: Iterable[PureStrategy]) -> "MixedStrategy":
        strats = tuple(strategies)
        if not strats:
            raise InvalidStrategy("uniform mixture over an empty family")
        p = Fraction(1, len(strats))
        return cls(tuple((s, p) for s in strats))

    @property
    def num_facilities(self) -> int:
        return len(self.support[0][0])

    def is_point(self) -> bool:
        return len(self.support) == 1

    def as_pure(self) -> PureStrategy:
        if not self.is_point():
            raise InvalidStrategy("not a point mass")
        return self.support[0][0]


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
        return math.prod(len(x.support) for x in self.strategies)


def _draws(supports: Sequence[Sequence[tuple[_Item, _Prob]]]) -> Iterator[tuple[_Prob, tuple[_Item, ...]]]:
    """Every joint draw of independent players with its probability.

    ``supports`` holds one sequence of ``(item, prob)`` entries per player,
    such as a ``MixedStrategy.support``; a draw's probability is the product
    of its entries' probabilities. Raises ``SupportTooLarge`` before the
    first draw when there are more than ``DEFAULT_SUPPORT_CAP`` of them.
    """
    size = math.prod(len(x) for x in supports)
    if size > DEFAULT_SUPPORT_CAP:
        raise SupportTooLarge(f"product support has {size} combinations (cap {DEFAULT_SUPPORT_CAP})")
    for combo in itertools.product(*supports):
        yield math.prod(p for _, p in combo), tuple(s for s, _ in combo)


def mixed_payoff(game: Game, profile: MixedProfile) -> tuple[Fraction, ...]:
    """Exact expected payoffs, enumerating the product of supports.

    Every position is scaled once to an integer on [0, scale] and every
    player's probabilities to integers over one denominator, so each draw
    is an integer sweep over doubled cell boundaries. Each cell is paid in
    units of ``1/split``, which every head count divides, so co-located
    players split it exactly. The sums become Fractions once, at the end.
    """
    require_profile(game, profile)
    scale = math.lcm(
        *(x.denominator for mixed in profile.strategies for s, _ in mixed.support for x in s)
    )
    split = math.lcm(*range(1, game.num_players + 1))
    supports = []
    den = 2 * scale * split
    for mixed in profile.strategies:
        probs = math.lcm(*(p.denominator for _, p in mixed.support))
        den *= probs
        supports.append(
            [
                (
                    tuple(x.numerator * (scale // x.denominator) for x in s),
                    p.numerator * (probs // p.denominator),
                )
                for s, p in mixed.support
            ]
        )
    totals = [0] * game.num_players
    for weight, drawn in _draws(supports):
        occupied = sorted((x, i) for i, s in enumerate(drawn) for x in s)
        positions: list[int] = []
        owners: list[list[int]] = []
        for x, i in occupied:
            if positions and positions[-1] == x:
                owners[-1].append(i)
            else:
                positions.append(x)
                owners.append([i])
        bounds = _catchments(positions, scale)
        for j, players in enumerate(owners):
            share = weight * (bounds[j + 1] - bounds[j]) * split // len(players)
            for i in players:
                totals[i] += share
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

    Probabilities are summed as integer weights over the lcm of their
    denominators, with one Fraction per location at the end. Locations are
    keyed by their integer ratio, which hashes far faster than a Fraction.
    """
    den = math.lcm(*(p.denominator for _, p in x.support))
    weights: dict[tuple[int, int], int] = {}
    for strategy, prob in x.support:
        weight = prob.numerator * (den // prob.denominator)
        for loc in strategy:
            key = loc.as_integer_ratio()
            weights[key] = weights.get(key, 0) + weight
    return {Fraction(*key): Fraction(w, den) for key, w in weights.items()}


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
    points = optimal_locations(k)
    subsets = [PureStrategy(combo) for combo in itertools.combinations(points, l)]
    return MixedStrategy.uniform(subsets)
