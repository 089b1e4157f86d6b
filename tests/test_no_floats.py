"""The library computes over exact rationals only: no float literal or name in
its source, and every numeric result a Fraction."""

import ast
from fractions import Fraction
from pathlib import Path

import hotelling
from hotelling import (
    MeasureQuery,
    MixedProfile,
    MixedStrategy,
    PureProfile,
    PureStrategy,
    best_response,
    just_above,
    just_below,
    limit_payoff,
    make_game,
    make_olk,
    masses,
    mixed_payoff,
    mu,
    social_cost,
)
from hotelling.mixed import _expected_counts
from hotelling.serialize import parse_profile_document

# presentation only: pixel coordinates, no numeric result depends on them
EXEMPT = {"svg.py"}


def test_no_float_in_library_source():
    sources = sorted(Path(hotelling.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    offenders = []
    for path in sources:
        if path.name in EXEMPT:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                offenders.append(f"{path.name}:{node.lineno}: float literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                offenders.append(f"{path.name}:{node.lineno}: name 'float'")
    assert not offenders, "\n".join(offenders)


def test_results_are_exact_fractions():
    # the cell kernel is generic over int and Fraction positions: an int zero
    # bound halved in the first cell would turn c_l into a float
    profile = PureProfile.of(["0", "1/3"], ["1/3", "1"])  # first, shared and last cells
    report = masses(profile)
    values = [*report.payoffs]
    for field in (report.facility_masses, report.left_masses, report.right_masses):
        values.extend(field.values())
    limit = limit_payoff([[just_below("1/3"), just_above("1/3")], ["0", "1"]], deviator=0)
    values.extend(limit.payoffs)
    for field in (limit.facility_masses, limit.left_masses, limit.right_masses):
        values.extend(field.values())
    values.extend(mixed_payoff(make_game([2, 2]), MixedProfile.from_pure(profile)))
    olk = MixedProfile((make_olk(2, 4), MixedStrategy.point(PureStrategy.of("1/8", "3/8", "5/8", "7/8"))))
    values.extend(mixed_payoff(make_game([2, 4]), olk))
    values.extend(mixed_payoff(make_game([1]), MixedProfile.from_pure(PureProfile.of(["1/2"]))))
    for opponents in ([make_olk(1, 2)], [MixedStrategy.point(PureStrategy.of("0", "1"))], []):
        result = best_response(opponents, 2, current_payoff=Fraction(1, 2))
        values.extend([result.supremum_payoff, result.gain])
    values.extend([social_cost(["0", "1"]), social_cost(["1/2"])])
    # a mixed document read back: integers, repeated strings and coprime denominators
    document = {
        "game": {"counts": [2, 1]},
        "mixed_strategies": [
            [
                {"strategy": [0, "1/2"], "prob": "2/7"},
                {"strategy": ["1/2", 1], "prob": "1/5"},
                {"strategy": ["1/4", "1/2"], "prob": "18/35"},
            ],
            [{"strategy": ["1/3"], "prob": 1}],
        ],
    }
    _, read = parse_profile_document(document)
    for mixed in read.strategies:
        for strategy, prob in mixed.support:
            values.extend([*strategy, prob])
        values.extend(_expected_counts(mixed).values())
        for query in (MeasureQuery.point(0), MeasureQuery.point("1/2"), MeasureQuery.interval(0, 1),
                      MeasureQuery.interval("1/4", "1/4", lower_closed=False)):
            values.append(mu(mixed, query))
    values.extend(_expected_counts(make_olk(2, 4)).values())
    values.append(mu(make_olk(2, 4), MeasureQuery.interval("1/8", "5/8")))
    assert len(values) > 60
    assert [type(v) for v in values] == [Fraction] * len(values)
