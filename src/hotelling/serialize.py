"""JSON interchange: games, profiles, reports. Rationals travel as "p/q".

Every emitted document re-parses to an equal value; rationals are written
in lowest terms with a positive denominator. Decoding errors carry the
JSON path of the offending field. ``document_text`` writes every document
the CLI prints, as ``json.dumps(document, indent=2)`` would.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterator

from .core import Game, PureProfile, PureStrategy, _parse_rational
from .equilibrium import CONDITION_NAMES, PartitionPlan, VerificationReport
from .errors import InvalidInput
from .mixed import MixedProfile, MixedStrategy, _over_lcm, _sound_table
from .oracle import DeviationResult
from .payoff import MassReport, OffsetLocation


# the keys of a mixed strategy's support entry, a mass report and one of
# its facility rows, in the order both the encoders and the writer use
_ENTRY_KEYS = ("strategy", "prob")
_REPORT_KEYS = ("payoffs", "facilities")
_FACILITY_KEYS = ("player", "slot", "position", "mass", "left", "right")


def format_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _quoted(value: Fraction) -> str:
    """``format_fraction`` as a JSON string, which needs no escapes."""
    return '"' + format_fraction(value) + '"'


def parse_fraction(text: Any, path: str = "value") -> Fraction:
    if type(text) is int:  # JSON true/false are ints to Python, not rationals
        return Fraction(text)
    if not isinstance(text, str):
        raise InvalidInput(f"{path}: expected a rational string, got {type(text).__name__}")
    try:
        return _parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"{path}: invalid rational {text!r}") from exc


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
        try:
            locs = tuple(map(parse_fraction, entry))
        except InvalidInput:  # parse again to name the first fault's path
            locs = tuple(
                parse_fraction(x, f"{path}.strategies[{i}][{j}]") for j, x in enumerate(entry)
            )
        parsed.append(PureStrategy(locs))
    return PureProfile(tuple(parsed))


def _support_texts(
    strategy: MixedStrategy, text: Callable[[Fraction], str]
) -> tuple[Iterator[str], Iterator[str]]:
    """Every location, entry after entry, and every probability of the
    strategy's table as ``text`` writes it: each distinct integer location
    and weight is formatted once."""
    scale, ints, den, weights = strategy._table
    locations = {i: text(Fraction(i, scale)) for i in set(ints)}
    probs = {w: text(Fraction(w, den)) for w in set(weights)}
    return map(locations.__getitem__, ints), map(probs.__getitem__, weights)


def mixed_strategy_to_json(strategy: MixedStrategy) -> list:
    locations, probs = _support_texts(strategy, format_fraction)
    rows = zip(*[locations] * strategy.num_facilities)
    strategy_key, prob_key = _ENTRY_KEYS
    return [{strategy_key: list(row), prob_key: prob} for row, prob in zip(rows, probs)]


def _table_from_json(data: list) -> MixedStrategy | None:
    """The strategy of a regular mixed document, read straight into its table.

    Regular means objects whose ``strategy`` lists are all of one size and
    whose rationals are all strings. Each distinct location string and
    each distinct probability string is parsed once, the locations and
    probabilities are scaled to integers as ``MixedStrategy`` scales them,
    and the table is checked by ``_sound_table``. Returns None for anything
    else, a bad string or a fault, which the entry-by-entry decoder then
    names.
    """
    if set(map(type, data)) != {dict}:
        return None
    try:
        texts = [entry["strategy"] for entry in data]
        probs = [entry["prob"] for entry in data]
    except KeyError:
        return None
    if set(map(type, texts)) != {list}:
        return None
    size = len(texts[0])
    flat = list(itertools.chain.from_iterable(texts))
    if not size or set(map(len, texts)) != {size} or set(map(type, flat)) | set(map(type, probs)) != {str}:
        return None
    try:
        table = (*_scaled_texts(flat), *_scaled_texts(probs))
    except (ValueError, ZeroDivisionError):
        return None
    return MixedStrategy._of_table(table) if _sound_table(table, size) else None


def _scaled_texts(texts: list[str]) -> tuple[int, list[int]]:
    """``mixed._scaled`` for rational strings, each distinct one parsed
    once: the lcm of their denominators, and each string as an integer over
    it. Raises what ``_parse_rational`` raises."""
    scale, ints = _over_lcm({text: _parse_rational(text).as_integer_ratio() for text in set(texts)})
    return scale, list(map(ints.__getitem__, texts))


def _entries_from_json(data: list, path: str) -> MixedStrategy:
    """Decode a mixed document entry by entry, raising its first fault in
    reading order; the support is then checked as a whole by
    ``MixedStrategy``."""
    support = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict) or "strategy" not in entry or "prob" not in entry:
            raise InvalidInput(f"{path}[{i}]: expected an object with 'strategy' and 'prob'")
        texts = entry["strategy"]
        if not isinstance(texts, list):
            raise InvalidInput(f"{path}[{i}].strategy: expected a list of rationals")
        locs = tuple(parse_fraction(x, f"{path}[{i}].strategy[{j}]") for j, x in enumerate(texts))
        prob = parse_fraction(entry["prob"], f"{path}[{i}].prob")
        support.append((PureStrategy(locs), prob))
    return MixedStrategy(tuple(support))


def mixed_strategy_from_json(data: Any, path: str = "mixed") -> MixedStrategy:
    if not isinstance(data, list) or not data:
        raise InvalidInput(f"{path}: expected a non-empty list of support entries")
    return _table_from_json(data) or _entries_from_json(data, path)


def mixed_profile_from_json(data: Any, path: str = "mixed_strategies") -> MixedProfile:
    if not isinstance(data, list) or not data:
        raise InvalidInput(f"{path}: expected a non-empty list of mixed strategies")
    return MixedProfile(
        tuple(mixed_strategy_from_json(x, f"{path}[{i}]") for i, x in enumerate(data))
    )


def _profile_tree(game: Game, profile: PureProfile | MixedProfile) -> dict:
    """``profile_document`` with each mixed strategy left for ``document_text``
    to write."""
    if isinstance(profile, PureProfile):
        return {"game": game_to_json(game), **pure_profile_to_json(profile)}
    return {"game": game_to_json(game), "mixed_strategies": list(profile.strategies)}


def profile_document(game: Game, profile: PureProfile | MixedProfile) -> dict:
    """Self-contained document bundling a game with one of its profiles."""
    doc = _profile_tree(game, profile)
    if "mixed_strategies" in doc:
        doc["mixed_strategies"] = [mixed_strategy_to_json(x) for x in profile.strategies]
    return doc


def parse_profile_document(data: Any) -> tuple[Game, PureProfile | MixedProfile]:
    if not isinstance(data, dict):
        raise InvalidInput("document: expected a JSON object")
    game = game_from_json(data.get("game"), "game")
    if "strategies" in data and "mixed_strategies" in data:
        raise InvalidInput("document: give either 'strategies' or 'mixed_strategies', not both")
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


def _report_texts(report: MassReport) -> tuple[list[str], list[tuple]]:
    """The formatted payoffs, and one row of values per facility in
    ``_FACILITY_KEYS`` order: two ints, then four formatted rationals, in
    (player, slot) order."""
    fac, left, right = report.facility_masses, report.left_masses, report.right_masses
    text = format_fraction
    rows = [
        (ref.player, ref.slot, text(ref.position), text(fac[ref]), text(left[ref]), text(right[ref]))
        for ref in sorted(fac, key=operator.attrgetter("player", "slot"))
    ]
    return list(map(text, report.payoffs)), rows


def mass_report_to_json(report: MassReport) -> dict:
    payoffs, rows = _report_texts(report)
    return dict(zip(_REPORT_KEYS, (payoffs, [dict(zip(_FACILITY_KEYS, row)) for row in rows])))


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


def document_text(document: Any) -> str:
    """``json.dumps(document, indent=2)``, without its pure-Python indenting
    encoder.

    ``document`` holds lists, str-keyed dicts, strings, ints, booleans,
    None, and two objects written as their encoders would write them: a
    ``MixedStrategy`` as ``mixed_strategy_to_json`` and a ``MassReport``
    as ``mass_report_to_json``. Those two are written straight from their
    values: each support entry and each facility row fills the fixed
    pieces of text that this writer gives a placeholder entry or row.
    """
    return _text(document, "\n")


def _text(value: Any, indent: str) -> str:
    """``value`` written after ``indent``, the newline and spaces that
    precede its closing bracket. Strings, the bulk of every document, are
    escaped in place by json's own C ASCII encoder rather than through a
    recursive call."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is list:
        if not value:
            return "[]"
        inner = indent + "  "
        items = [
            encode_basestring_ascii(item) if type(item) is str else _text(item, inner)
            for item in value
        ]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if type(value) is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        members = [
            encode_basestring_ascii(key) + ": "
            + (encode_basestring_ascii(item) if type(item) is str else _text(item, inner))
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(members) + indent + "}"
    if type(value) is MixedStrategy:
        return _mixed_text(value, indent)
    if type(value) is MassReport:
        return _report_text(value, indent)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# how _text writes the placeholder string "\0"
_SLOT = encode_basestring_ascii("\0")


def _pieces(skeleton: Any, indent: str) -> list[str]:
    """The text of ``skeleton`` cut at each placeholder string "\\0"."""
    return _text(skeleton, indent).split(_SLOT)


def _mixed_text(strategy: MixedStrategy, indent: str) -> str:
    # the fixed text around and between support entries, and inside each
    # entry around and between its locations and before its probability
    first, between, last = _pieces(["\0", "\0"], indent)
    head, comma, middle, tail = _pieces(dict(zip(_ENTRY_KEYS, (["\0", "\0"], "\0"))), indent + "  ")
    locations, probs = _support_texts(strategy, _quoted)
    rows = map(comma.join, zip(*[locations] * strategy.num_facilities))
    return first + between.join([head + row + middle + prob + tail for row, prob in zip(rows, probs)]) + last


def _report_text(report: MassReport, indent: str) -> str:
    payoffs, rows = _report_texts(report)
    first, between, last = _pieces(dict(zip(_REPORT_KEYS, (payoffs, ["\0", "\0"]))), indent)
    # one facility row: the two ints bare, the rationals as JSON strings
    slots = dict(zip(_FACILITY_KEYS, ("%d", "%d", "%s", "%s", "%s", "%s")))
    row = _text(slots, indent + "    ").replace('"%d"', "%d")
    return first + between.join(map(row.__mod__, rows)) + last
