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
from typing import Iterable, Iterator, Sequence

from .core import (
    ONE,
    ZERO,
    Game,
    PureProfile,
    PureStrategy,
    RationalLike,
    as_fraction,
)
from .errors import InvalidInput, InvalidStrategy, SupportTooLarge
from .payoff import masses

DEFAULT_SUPPORT_CAP = 10**6


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
        total = ZERO
        seen: set[PureStrategy] = set()
        size = len(entries[0][0])
        for strategy, prob in entries:
            if prob <= 0:
                raise InvalidStrategy(f"probability {prob} is not positive")
            if strategy in seen:
                raise InvalidStrategy(f"duplicate support entry {strategy.locations}")
            if len(strategy) != size:
                raise InvalidStrategy("support entries must place the same number of facilities")
            seen.add(strategy)
            total += prob
        if total != 1:
            raise InvalidStrategy(f"probabilities sum to {total}, expected 1")

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


def _require_mixed(game: Game, profile: MixedProfile) -> None:
    if not profile.matches(game):
        raise InvalidStrategy(
            f"mixed profile shape does not match game counts {game.counts}"
        )


def _draws(
    strategies: Sequence[MixedStrategy],
) -> Iterator[tuple[Fraction, tuple[PureStrategy, ...]]]:
    """Every joint draw of independent players with its probability."""
    for combo in itertools.product(*(x.support for x in strategies)):
        yield math.prod((p for _, p in combo), start=ONE), tuple(s for s, _ in combo)


def mixed_payoff(game: Game, profile: MixedProfile) -> tuple[Fraction, ...]:
    """Exact expected payoffs, enumerating the product of supports."""
    _require_mixed(game, profile)
    if profile.support_size() > DEFAULT_SUPPORT_CAP:
        raise SupportTooLarge(
            f"product support has {profile.support_size()} combinations (cap {DEFAULT_SUPPORT_CAP})"
        )
    totals = [ZERO] * game.num_players
    for weight, drawn in _draws(profile.strategies):
        outcome = masses(PureProfile(drawn)).payoffs
        for i, u in enumerate(outcome):
            totals[i] += weight * u
    return tuple(totals)


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


def mu(x: MixedStrategy, query: MeasureQuery) -> Fraction:
    """Expected number of the strategy's facilities inside the query set."""
    total = ZERO
    for strategy, prob in x.support:
        count = sum(1 for loc in strategy if query.contains(loc))
        if count:
            total += prob * count
    return total


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

    When that holds, every support entry is forced to live inside the
    optimal set (total expected mass there already exhausts all l
    facilities); this is asserted as an internal consistency check.
    """
    if not 1 <= l <= k:
        raise InvalidInput(f"need 1 <= l <= k, got l={l}, k={k}")
    if x.num_facilities != l:
        raise InvalidInput(
            f"strategy places {x.num_facilities} facilities, expected l={l}"
        )
    target = Fraction(l, k)
    for point in optimal_locations(k):
        if mu(x, MeasureQuery.point(point)) != target:
            return SoiResult(False, point)
    optimal = set(optimal_locations(k))
    for strategy, _ in x.support:
        stray = [loc for loc in strategy if loc not in optimal]
        assert not stray, f"measure check passed but support leaks outside the optimal set: {stray}"
    return SoiResult(True)


def make_olk(l: int, k: int) -> MixedStrategy:
    """Uniform mixture over all size-l subsets of the k optimal locations."""
    if not 1 <= l <= k:
        raise InvalidInput(f"need 1 <= l <= k, got l={l}, k={k}")
    points = optimal_locations(k)
    subsets = [PureStrategy(combo) for combo in itertools.combinations(points, l)]
    return MixedStrategy.uniform(subsets)


def combined_strategy(strategies: Sequence[MixedStrategy]) -> MixedStrategy:
    """Merge independent players into one strategy over their joint locations.

    Every joint draw must produce pairwise distinct locations, otherwise the
    union is not a valid single-player strategy.
    """
    if not strategies:
        raise InvalidStrategy("nothing to combine")
    size = math.prod(len(x.support) for x in strategies)
    if size > DEFAULT_SUPPORT_CAP:
        raise SupportTooLarge(f"joint support has {size} combinations (cap {DEFAULT_SUPPORT_CAP})")
    merged: dict[PureStrategy, Fraction] = {}
    for weight, drawn in _draws(strategies):
        locations = sorted(loc for s in drawn for loc in s)
        joint = PureStrategy(tuple(locations))  # raises if two players collide
        merged[joint] = merged.get(joint, ZERO) + weight
    return MixedStrategy(tuple(merged.items()))
