"""JSON interchange: games, profiles, reports. Rationals travel as "p/q".

Every emitted document re-parses to an equal value; rationals are written
in lowest terms with a positive denominator. Decoding errors carry the
JSON path of the offending field.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .core import FacilityRef, Game, PureProfile, PureStrategy, _parse_rational
from .equilibrium import CONDITION_NAMES, PartitionPlan, VerificationReport
from .errors import InvalidInput
from .mixed import MixedProfile, MixedStrategy
from .oracle import DeviationResult
from .payoff import MassReport, OffsetLocation


def format_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(text: Any, path: str = "value") -> Fraction:
    if type(text) is int:  # JSON true/false are ints to Python, not rationals
        return Fraction(text)
    if not isinstance(text, str):
        raise InvalidInput(f"{path}: expected a rational string, got {type(text).__name__}")
    try:
        return _parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"{path}: invalid rational {text!r}") from exc


def _parse_new(known: dict[str, Fraction], text: Any, path: str) -> Fraction:
    """parse_fraction, remembering a parsed string in ``known``."""
    value = parse_fraction(text, path)
    if type(text) is str:  # only strings: True == 1 must not find 1's entry
        known[text] = value
    return value


def game_to_json(game: Game) -> dict:
    return {"counts": list(game.counts)}


def game_from_json(data: Any, path: str = "game") -> Game:
    if not isinstance(data, dict) or "counts" not in data:
        raise InvalidInput(f"{path}: expected an object with a 'counts' field")
    counts = data["counts"]
    if not isinstance(counts, list) or not all(type(c) is int for c in counts):
        raise InvalidInput(f"{path}.counts: expected a list of integers")
    return Game(tuple(counts))


def pure_profile_to_json(profile: PureProfile) -> dict:
    return {
        "strategies": [[format_fraction(x) for x in s] for s in profile.strategies]
    }


def pure_profile_from_json(data: Any, path: str = "profile") -> PureProfile:
    if not isinstance(data, dict) or "strategies" not in data:
        raise InvalidInput(f"{path}: expected an object with a 'strategies' field")
    strategies = data["strategies"]
    if not isinstance(strategies, list):
        raise InvalidInput(f"{path}.strategies: expected a list")
    parsed = []
    for i, entry in enumerate(strategies):
        if not isinstance(entry, list):
            raise InvalidInput(f"{path}.strategies[{i}]: expected a list of rationals")
        locs = tuple(
            parse_fraction(x, f"{path}.strategies[{i}][{j}]") for j, x in enumerate(entry)
        )
        parsed.append(PureStrategy(locs))
    return PureProfile(tuple(parsed))


def mixed_strategy_to_json(strategy: MixedStrategy) -> list:
    return [
        {"strategy": [format_fraction(x) for x in s], "prob": format_fraction(p)}
        for s, p in strategy.support
    ]


def mixed_strategy_from_json(data: Any, path: str = "mixed") -> MixedStrategy:
    if not isinstance(data, list) or not data:
        raise InvalidInput(f"{path}: expected a non-empty list of support entries")
    # each distinct rational string is parsed once, at its first occurrence,
    # so an invalid one is reported with that occurrence's path
    known: dict[str, Fraction] = {}
    support = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict) or "strategy" not in entry or "prob" not in entry:
            raise InvalidInput(f"{path}[{i}]: expected an object with 'strategy' and 'prob'")
        if not isinstance(entry["strategy"], list):
            raise InvalidInput(f"{path}[{i}].strategy: expected a list of rationals")
        locs = tuple(
            known[x] if type(x) is str and x in known
            else _parse_new(known, x, f"{path}[{i}].strategy[{j}]")
            for j, x in enumerate(entry["strategy"])
        )
        p = entry["prob"]
        prob = known[p] if type(p) is str and p in known else _parse_new(known, p, f"{path}[{i}].prob")
        support.append((PureStrategy(locs), prob))
    return MixedStrategy(tuple(support))


def mixed_profile_to_json(profile: MixedProfile) -> list:
    return [mixed_strategy_to_json(x) for x in profile.strategies]


def mixed_profile_from_json(data: Any, path: str = "mixed_strategies") -> MixedProfile:
    if not isinstance(data, list) or not data:
        raise InvalidInput(f"{path}: expected a non-empty list of mixed strategies")
    return MixedProfile(
        tuple(mixed_strategy_from_json(x, f"{path}[{i}]") for i, x in enumerate(data))
    )


def profile_document(game: Game, profile: PureProfile | MixedProfile) -> dict:
    """Self-contained document bundling a game with one of its profiles."""
    doc: dict = {"game": game_to_json(game)}
    if isinstance(profile, PureProfile):
        doc.update(pure_profile_to_json(profile))
    else:
        doc["mixed_strategies"] = mixed_profile_to_json(profile)
    return doc


def parse_profile_document(data: Any) -> tuple[Game, PureProfile | MixedProfile]:
    if not isinstance(data, dict):
        raise InvalidInput("document: expected a JSON object")
    game = game_from_json(data.get("game"), "game")
    if "strategies" in data:
        profile: PureProfile | MixedProfile = pure_profile_from_json(data, "profile")
    elif "mixed_strategies" in data:
        profile = mixed_profile_from_json(data["mixed_strategies"], "mixed_strategies")
    else:
        raise InvalidInput("document: needs either 'strategies' or 'mixed_strategies'")
    if not profile.matches(game):
        raise InvalidInput("document: profile shape does not match game counts")
    return game, profile


def offset_to_json(offset: OffsetLocation) -> dict:
    return {"position": format_fraction(offset.position), "side": offset.side}


def _jsonify_witness(witness: dict | None) -> dict | None:
    if witness is None:
        return None
    out = {}
    for key, value in witness.items():
        if isinstance(value, Fraction):
            out[key] = format_fraction(value)
        elif isinstance(value, tuple):
            out[key] = [format_fraction(v) if isinstance(v, Fraction) else v for v in value]
        else:
            out[key] = value
    return out


def report_to_json(report: VerificationReport) -> dict:
    return {
        "verdict": report.verdict,
        "conditions": [
            {
                "id": c.condition,
                "name": CONDITION_NAMES[c.condition],
                "passed": c.passed,
                "witness": _jsonify_witness(c.witness),
            }
            for c in report.conditions
        ],
    }


def mass_report_to_json(report: MassReport) -> dict:
    def row(ref: FacilityRef) -> dict:
        return {
            "player": ref.player,
            "slot": ref.slot,
            "position": format_fraction(ref.position),
            "mass": format_fraction(report.facility_masses[ref]),
            "left": format_fraction(report.left_masses[ref]),
            "right": format_fraction(report.right_masses[ref]),
        }

    refs = sorted(report.facility_masses, key=lambda r: (r.player, r.slot))
    return {
        "payoffs": [format_fraction(u) for u in report.payoffs],
        "facilities": [row(r) for r in refs],
    }


def deviation_to_json(result: DeviationResult) -> dict:
    return {
        "sup": format_fraction(result.supremum_payoff),
        "attained": result.attained,
        "witness": [offset_to_json(o) for o in result.witness],
        "gain": None if result.gain is None else format_fraction(result.gain),
        "exhaustive": True,  # every result is exact; kept so documents stay compatible
    }


def partition_to_json(plan: PartitionPlan) -> dict:
    return {
        "b": list(plan.b),
        "blocks": [[format_fraction(x) for x in block] for block in plan.blocks],
    }
