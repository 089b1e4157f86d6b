"""Games, strategies, profiles and structural facility classification.

All locations are exact rationals (`fractions.Fraction`); nothing in this
package touches floating point. Player and slot indices are 0-based
throughout the API and the JSON interchange format.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import InvalidGame, InvalidStrategy

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


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
            return Fraction(value)
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

    @property
    def is_canonical(self) -> bool:
        """Whether counts already follow the ascending convention."""
        return all(a <= b for a, b in zip(self.counts, self.counts[1:]))

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
        locs = tuple(as_fraction(x) for x in self.locations)
        object.__setattr__(self, "locations", locs)
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

    def occupied(self) -> list[Fraction]:
        """Sorted distinct occupied positions."""
        return sorted({x for s in self.strategies for x in s})

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


def require_profile(game: Game, profile: PureProfile) -> None:
    """Raise InvalidStrategy unless the profile's shape matches the game."""
    if not profile.matches(game):
        raise InvalidStrategy(
            f"profile shape {tuple(len(s) for s in profile.strategies)} "
            f"does not match game counts {game.counts}"
        )


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


def classify(profile: PureProfile) -> dict[FacilityRef, FacilityClass]:
    """Classify every facility of a valid profile."""
    owners: dict[Fraction, set[int]] = {}
    for i, s in enumerate(profile.strategies):
        for x in s:
            owners.setdefault(x, set()).add(i)
    positions = sorted(owners)
    lo, hi = positions[0], positions[-1]
    index = {p: k for k, p in enumerate(positions)}

    out: dict[FacilityRef, FacilityClass] = {}
    for ref in profile.refs():
        k = index[ref.position]
        hosts = owners[ref.position]
        out[ref] = FacilityClass(
            is_lone=len(hosts) == 1,
            is_paired=len(hosts) == 2,
            is_peripheral=ref.position in (lo, hi),
            left_neighbor=positions[k - 1] if k > 0 else None,
            right_neighbor=positions[k + 1] if k + 1 < len(positions) else None,
            co_located_players=frozenset(hosts),
        )
    return out


def has_dominant_player(game: Game) -> int | None:
    """Index of the player owning strictly more than half of all facilities.

    At most one such player can exist; returns None when nobody dominates.
    """
    n = game.n
    for i, c in enumerate(game.counts):
        if 2 * c > n:
            return i
    return None


@dataclass(frozen=True)
class FlattenedPair:
    """A profile re-expressed in the single-unit game where every facility
    gets its own player, together with the bijection back to (player, slot).
    """

    game: Game
    profile: PureProfile
    back_map: tuple[tuple[int, int], ...]


def flatten(game: Game, profile: PureProfile) -> FlattenedPair:
    """Flatten a multi-unit profile into its canonical single-unit twin.

    Flattenings are unique up to renaming the single-unit players; the
    canonical representative orders facilities by (player, slot).
    """
    require_profile(game, profile)
    back: list[tuple[int, int]] = []
    flats: list[PureStrategy] = []
    for i, s in enumerate(profile.strategies):
        for j, x in enumerate(s):
            back.append((i, j))
            flats.append(PureStrategy((x,)))
    return FlattenedPair(
        game=Game(tuple(1 for _ in flats)),
        profile=PureProfile(tuple(flats)),
        back_map=tuple(back),
    )
