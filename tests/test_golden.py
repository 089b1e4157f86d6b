"""The CLI's outputs match the recorded golden corpus.

The corpus (``tests/golden/corpus.json.gz``) holds the exit code, stdout and
stderr of every case ``tests/golden/make_golden.py`` lists. Regenerate it
with that script only when a change of output is intended.
"""

import importlib.util
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def load_maker():
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_golden_corpus():
    maker = load_maker()
    expected = maker.decode(maker.CORPUS.read_bytes())
    got = maker.corpus()
    differing = [key for key in expected if got.get(key) != expected[key]]
    assert not differing, f"{len(differing)} cases differ, first {differing[0]!r}: {got.get(differing[0])!r}"
    assert list(got) == list(expected), f"cases added: {sorted(set(got) - set(expected))}"
