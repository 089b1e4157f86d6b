"""Closed-form customer masses, payoffs, social cost and one-sided limits.

Customers are uniform on [0,1] and walk to the nearest facility, so every
catchment boundary is the midpoint of two adjacent occupied positions and
every mass is a difference of midpoints. That makes all payoffs exact
rationals, and equalities (the currency of equilibrium conditions) decidable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, TypeVar

from .core import ONE, ZERO, FacilityRef, PureProfile, RationalLike, _co_located, as_fraction
from .errors import InvalidDeviation, InvalidInput

Side = str  # "below" | "exact" | "above"

_Num = TypeVar("_Num", int, Fraction)

_SIDE_EPS = {"below": Fraction(-1), "exact": Fraction(0), "above": Fraction(1)}


@functools.total_ordering
@dataclass(frozen=True)
class OffsetLocation:
    """A position annotated with a one-sided limit tag.

    (x, below) stands for x - eps and (x, above) for x + eps, evaluated in
    the limit eps -> 0+. Ordering is (x, below) < (x, exact) < (x, above),
    nested strictly between any smaller and larger positions.
    """

    position: Fraction
    side: Side = "exact"

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", as_fraction(self.position))
        if self.side not in _SIDE_EPS:
            raise InvalidInput(f"unknown side {self.side!r}")
        if not (ZERO <= self.position <= ONE):
            raise InvalidInput(f"offset position {self.position} outside [0,1]")
        if self.position == ZERO and self.side == "below":
            raise InvalidInput("side=below is meaningless at position 0")
        if self.position == ONE and self.side == "above":
            raise InvalidInput("side=above is meaningless at position 1")

    def __lt__(self, other: "OffsetLocation") -> bool:
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> tuple[Fraction, Fraction]:
        return (self.position, _SIDE_EPS[self.side])


def exactly(x: RationalLike) -> OffsetLocation:
    return OffsetLocation(as_fraction(x), "exact")


def just_above(x: RationalLike) -> OffsetLocation:
    return OffsetLocation(as_fraction(x), "above")


def just_below(x: RationalLike) -> OffsetLocation:
    return OffsetLocation(as_fraction(x), "below")


@dataclass(frozen=True)
class MassReport:
    """Per-facility masses and one-sided masses, plus per-player payoffs.

    ``left_masses[f]`` / ``right_masses[f]`` are the customer quantities
    arriving at f's position from its left / right catchment side; they are
    shared by co-located facilities, while ``facility_masses[f]`` is the
    equal split of their sum among the players at that position. Payoffs
    always partition the customers: sum(payoffs) == 1. The three mappings
    list facilities by ascending position, and co-located ones in
    (player, slot) order.
    """

    payoffs: tuple[Fraction, ...]
    facility_masses: Mapping[FacilityRef, Fraction]
    left_masses: Mapping[FacilityRef, Fraction]
    right_masses: Mapping[FacilityRef, Fraction]


def _catchments(positions: Sequence[_Num], right: _Num) -> list[_Num]:
    """Doubled catchment boundaries [0, a+b..., 2*right] of sorted positions.

    Cell j, the customers nearest to positions[j], spans b[j]/2..b[j+1]/2
    of the line [0, right]. Positions may repeat, as one-sided limits beside
    an occupied point do; the boundary between two copies of a point is the
    point itself. Nothing is divided, so integer positions give integer
    boundaries; the zero takes the type of ``right``, so halving a Fraction
    boundary never yields a float.
    """
    bounds = [0 * right]
    bounds.extend(a + b for a, b in zip(positions, positions[1:]))
    bounds.append(2 * right)
    return bounds


def _mass_report(num_players: int, points: Sequence[list[FacilityRef]]) -> MassReport:
    """Split the cell of every occupied point among the facilities there.

    ``points`` lists the facilities at each occupied point, in ascending
    point order; the facilities of one point share its position.
    """
    bounds = _catchments([refs[0].position for refs in points], ONE)
    payoffs = [ZERO] * num_players
    fac: dict[FacilityRef, Fraction] = {}
    left: dict[FacilityRef, Fraction] = {}
    right: dict[FacilityRef, Fraction] = {}
    for j, refs in enumerate(points):
        p = refs[0].position
        c_l = p - bounds[j] / 2
        c_r = bounds[j + 1] / 2 - p
        share = (c_l + c_r) / len(refs)
        for ref in refs:
            fac[ref] = share
            left[ref] = c_l
            right[ref] = c_r
            payoffs[ref.player] += share
    return MassReport(tuple(payoffs), fac, left, right)


def masses(profile: PureProfile) -> MassReport:
    """Evaluate V, c_l, c_r and u for every facility of a pure profile."""
    return _mass_report(profile.num_players, _co_located(profile))


def limit_payoff(
    profile: PureProfile | Sequence[Sequence[OffsetLocation | RationalLike]],
    deviator: int,
) -> MassReport:
    """Masses of a profile whose deviating player uses one-sided limits.

    Evaluates lim eps->0+ of masses() with (x, above) read as x + eps and
    (x, below) as x - eps. Only the deviator may carry non-exact sides, the
    deviator's entries must be strictly increasing in offset order, and
    offset-distinct points never tie.
    """
    raw = profile.strategies if isinstance(profile, PureProfile) else profile
    strategies: list[list[OffsetLocation]] = [
        [e if isinstance(e, OffsetLocation) else exactly(e) for e in s] for s in raw
    ]
    if not 0 <= deviator < len(strategies):
        raise InvalidDeviation(f"deviator index {deviator} out of range")
    for i, strat in enumerate(strategies):
        if i == deviator:
            continue
        for loc in strat:
            if loc.side != "exact":
                raise InvalidDeviation(f"player {i} is not the deviator but carries side={loc.side}")
    dev = strategies[deviator]
    for a, b in zip(dev, dev[1:]):
        if not a < b:
            raise InvalidDeviation(
                f"deviator offsets must strictly increase, got {a} then {b}"
            )

    # eps coordinates only decide the ordering; every boundary's eps term
    # vanishes as eps -> 0+, so masses use constant coordinates alone
    groups: dict[tuple[Fraction, Fraction], list[FacilityRef]] = {}
    for i, strat in enumerate(strategies):
        for j, loc in enumerate(strat):
            key = (loc.position, _SIDE_EPS[loc.side])
            groups.setdefault(key, []).append(FacilityRef(i, j, loc.position))
    return _mass_report(len(strategies), [groups[key] for key in sorted(groups)])


def social_cost(locations: Iterable[RationalLike]) -> Fraction:
    """Total distance customers travel to their nearest facility.

    With sorted locations a_1 <= ... <= a_k and gaps b_1 = a_1,
    b_i = a_i - a_{i-1}, b_{k+1} = 1 - a_k, the uniform-density integral is
    b_1^2/2 + b_{k+1}^2/2 + sum of interior b_i^2/4. Zero-width boundary
    gaps (locations at 0 or 1) contribute nothing.
    """
    pts = sorted({as_fraction(x) for x in locations})
    if not pts:
        raise InvalidInput("social_cost needs at least one location")
    for x in pts:
        if not (ZERO <= x <= ONE):
            raise InvalidInput(f"location {x} outside [0,1]")
    gaps = [pts[0]] + [b - a for a, b in zip(pts, pts[1:])] + [ONE - pts[-1]]
    return gaps[0] ** 2 / 2 + gaps[-1] ** 2 / 2 + sum((g * g for g in gaps[1:-1]), ZERO) / 4
