"""The draw seam: ``FastDraws`` makes ``Draws``' word stream, ``Draws``
makes CPython's, and nothing else in the engine layers touches an RNG."""

import ast
import random
from pathlib import Path

import pytest

from repro.network.draws import Draws, FastDraws

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
SEEDS = (0, 1, 7, 2024)
SIZES = range(0, 301)


def _pair(seed):
    return Draws(random.Random(seed)), FastDraws(random.Random(seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_below_matches_word_for_word(seed):
    ref, fast = _pair(seed)
    for n in SIZES[1:]:
        assert fast.below(n) == ref.below(n)
        assert fast.rng.getstate() == ref.rng.getstate()


def test_below_one_still_consumes_words():
    for draws in _pair(3):
        before = draws.rng.getstate()
        assert draws.below(1) == 0
        assert draws.rng.getstate() != before


@pytest.mark.parametrize("seed", SEEDS)
def test_permute_matches_word_for_word(seed):
    ref, fast = _pair(seed)
    for n in SIZES:
        a, b = list(range(n)), list(range(n))
        ref.permute(a)
        fast.permute(b)
        assert a == b
        assert fast.rng.getstate() == ref.rng.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_permute_unread_makes_a_permutations_draws(seed):
    ref, fast = _pair(seed)
    reference_unread = Draws(random.Random(seed))
    for n in SIZES:
        ref.permute(list(range(n)))  # a throwaway list
        fast.permute_unread(n)
        reference_unread.permute_unread(n)
        assert fast.rng.getstate() == ref.rng.getstate()
        assert reference_unread.rng.getstate() == ref.rng.getstate()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", [0.05, 0.5, 1.0])
def test_bernoulli_hits_interleave_with_other_draws(seed, p):
    """Destination and length draws between two hits, the way
    ``MessageGenerator.tick`` makes them, on both sources and on the
    pre-seam CPython idioms."""
    ref, fast = _pair(seed)
    cpython = random.Random(seed)
    for _ in range(40):
        want = []
        for node in range(64):
            if cpython.random() < p:
                want.append((node, cpython.randrange(63), cpython.random() < 0.3))
        for draws in (ref, fast):
            got = [
                (node, draws.below(63), draws.categorical((0.3, 1.0)) == 0)
                for node in draws.bernoulli(p, 64)
            ]
            assert got == want
    assert fast.rng.getstate() == ref.rng.getstate() == cpython.getstate()


def test_categorical_falls_back_to_the_last_entry():
    draws = Draws(random.Random(0))
    assert {draws.categorical((0.5, 0.5)) for _ in range(200)} == {0, 1}


#: the RNG methods no engine layer may call outside ``draws.py``
RNG_METHODS = {
    "random", "randrange", "randint", "choice", "shuffle", "sample", "getrandbits"
}


def _called_name(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def test_every_draw_goes_through_the_seam():
    offenders = []
    for layer in ("core", "network", "routing", "traffic"):
        for path in sorted((SRC / layer).rglob("*.py")):
            if path.name == "draws.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and _called_name(node) in RNG_METHODS:
                    offenders.append(
                        f"{path.relative_to(SRC)}:{node.lineno} "
                        f"{_called_name(node)}()"
                    )
    assert offenders == []


def test_no_code_asks_which_rng_it_holds():
    """No ``type(...) is random.Random`` fork anywhere under ``src/``."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Call)
                and _called_name(node.left) == "type"
                and any(ast.unparse(c).endswith("Random") for c in node.comparators)
            ):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
