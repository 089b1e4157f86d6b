"""Games, strategies, profiles and structural facility classification.

All locations are exact rationals (`fractions.Fraction`); nothing in this
package touches floating point. Player and slot indices are 0-based
throughout the API and the JSON interchange format.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .errors import InvalidGame, InvalidStrategy

if TYPE_CHECKING:
    from .mixed import MixedProfile

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def _parse_rational(text: str) -> Fraction:
    """``Fraction(text)`` for an integer, "p/q" or plain decimal string.

    Exponents are refused with a ValueError: ``Fraction("1e-1000000000")``
    would build a billion-digit integer before anything could reject it.
    """
    if "e" in text or "E" in text:
        raise ValueError("exponents are not accepted")
    return Fraction(text)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, a "p/q" string or a Fraction to an exact Fraction.

    Floats are rejected on purpose: every quantity in this library is exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return _parse_rational(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidStrategy(f"invalid rational {value!r}: {exc}") from exc
    raise InvalidStrategy(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class Game:
    """A game is fully described by how many facilities each player owns."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        if not self.counts:
            raise InvalidGame("a game needs at least one player")
        for i, c in enumerate(self.counts):
            if not isinstance(c, int) or isinstance(c, bool) or c < 1:
                raise InvalidGame(f"facility count of player {i} must be a positive integer, got {c!r}")

    @property
    def num_players(self) -> int:
        return len(self.counts)

    @property
    def n(self) -> int:
        """Total number of facilities."""
        return sum(self.counts)

    def ascending_order(self) -> tuple[int, ...]:
        """Player indices sorted by (count, index); a stable ascending view."""
        return tuple(sorted(range(self.num_players), key=lambda i: (self.counts[i], i)))


def make_game(counts: Iterable[int]) -> Game:
    """Build a game from per-player facility counts. Raises InvalidGame."""
    return Game(tuple(counts))


@dataclass(frozen=True)
class PureStrategy:
    """A strictly increasing vector of locations in [0,1].

    Strict increase means a player never stacks two of her own facilities;
    stacked own facilities are dominated and rejected at construction.
    """

    locations: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        locs = tuple(x if type(x) is Fraction else as_fraction(x) for x in self.locations)
        object.__setattr__(self, "locations", locs)
        # increasing from a first location >= 0 to a last <= 1 is valid; the
        # loops below only run to name what is wrong
        if locs and ZERO <= locs[0] and locs[-1] <= ONE and all(map(operator.lt, locs, locs[1:])):
            return
        if not locs:
            raise InvalidStrategy("a strategy must place at least one facility")
        for x in locs:
            if not (ZERO <= x <= ONE):
                raise InvalidStrategy(f"location {x} outside [0,1]")
        for a, b in zip(locs, locs[1:]):
            if not a < b:
                raise InvalidStrategy(f"locations must strictly increase, got {a} then {b}")

    @classmethod
    def of(cls, *values: RationalLike) -> "PureStrategy":
        return cls(tuple(as_fraction(v) for v in values))

    def __len__(self) -> int:
        return len(self.locations)

    def __iter__(self):
        return iter(self.locations)

    def __getitem__(self, idx: int) -> Fraction:
        return self.locations[idx]


@dataclass(frozen=True)
class PureProfile:
    """One pure strategy per player."""

    strategies: tuple[PureStrategy, ...]

    def __post_init__(self) -> None:
        strats = tuple(
            s if isinstance(s, PureStrategy) else PureStrategy(tuple(s))
            for s in self.strategies
        )
        if not strats:
            raise InvalidStrategy("a profile needs at least one strategy")
        object.__setattr__(self, "strategies", strats)

    @classmethod
    def of(cls, *strategies: Sequence[RationalLike]) -> "PureProfile":
        return cls(tuple(PureStrategy.of(*s) for s in strategies))

    @property
    def num_players(self) -> int:
        return len(self.strategies)

    def refs(self) -> list["FacilityRef"]:
        return [
            FacilityRef(player=i, slot=j, position=x)
            for i, s in enumerate(self.strategies)
            for j, x in enumerate(s)
        ]

    def matches(self, game: Game) -> bool:
        return self.num_players == game.num_players and all(
            len(s) == c for s, c in zip(self.strategies, game.counts)
        )


def require_profile(game: Game, profile: PureProfile | MixedProfile) -> None:
    """Raise InvalidStrategy unless the pure or mixed profile's shape matches the game."""
    if not profile.matches(game):
        raise InvalidStrategy(f"profile shape does not match game counts {game.counts}")


@dataclass(frozen=True)
class FacilityRef:
    """One facility: owner, slot within the owner's strategy, and position."""

    player: int
    slot: int
    position: Fraction


@dataclass(frozen=True)
class FacilityClass:
    """Structural classification of a facility within a profile.

    A position hosting exactly one facility is lone, exactly two is paired.
    Peripheral means the position is the leftmost or rightmost occupied one.
    A neighbor is the nearest distinct occupied position on its side, None
    at either end; co-located facilities are never neighbors of each other.
    """

    is_lone: bool
    is_paired: bool
    is_peripheral: bool
    left_neighbor: Fraction | None
    right_neighbor: Fraction | None
    co_located_players: frozenset[int]


def _co_located(profile: PureProfile) -> list[list[FacilityRef]]:
    """The profile's facilities grouped by shared position.

    Groups come in ascending position order, and each lists its facilities
    in ``refs()`` (player, slot) order. A player never stacks her own
    facilities, so a group's size is also its number of players.
    """
    groups: dict[Fraction, list[FacilityRef]] = {}
    for ref in profile.refs():
        groups.setdefault(ref.position, []).append(ref)
    return [groups[p] for p in sorted(groups)]


def classify(profile: PureProfile) -> dict[FacilityRef, FacilityClass]:
    """Classify every facility of a valid profile, in ``refs()`` order."""
    groups = _co_located(profile)
    last = len(groups) - 1
    found: dict[FacilityRef, FacilityClass] = {}
    for k, refs in enumerate(groups):
        shared = FacilityClass(
            is_lone=len(refs) == 1,
            is_paired=len(refs) == 2,
            is_peripheral=k in (0, last),
            left_neighbor=groups[k - 1][0].position if k > 0 else None,
            right_neighbor=groups[k + 1][0].position if k < last else None,
            co_located_players=frozenset(ref.player for ref in refs),
        )
        for ref in refs:
            found[ref] = shared
    return dict(sorted(found.items(), key=lambda item: (item[0].player, item[0].slot)))


def has_dominant_player(game: Game) -> int | None:
    """Index of the player owning strictly more than half of all facilities.

    At most one such player can exist; returns None when nobody dominates.
    """
    n = game.n
    for i, c in enumerate(game.counts):
        if 2 * c > n:
            return i
    return None
