"""The library computes over exact rationals only: no float literal or name in its source."""

import ast
from pathlib import Path

import hotelling

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
