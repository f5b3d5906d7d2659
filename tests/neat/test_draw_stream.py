"""NEAT's draw stream against NumPy's ``Generator``, bit for bit.

:class:`repro.neat.draws.DrawStream` is a second implementation of the
``Generator`` draws the evolve phase makes.  Generated call programs run
on a stream and on a twin ``Generator`` from the same state; every
output must have the same bits (floats compared as ``float.hex``) and,
after :meth:`~repro.neat.draws.DrawStream.commit`, the generator's
``bit_generator.state`` must equal the twin's, ``uinteger`` included.
The start states cover a buffered half-word and a stale one, and
positioned words put each ziggurat slow path (the ``idx == 0`` tail and
an ``idx > 0`` wedge) on a chunk's last word, so it runs into the next
chunk.

Run as a script, the module replays one long fixed-seed program, so a
NumPy release that changes one of these algorithms fails in one place
that names the version::

    PYTHONPATH=src python tests/neat/test_draw_stream.py --draws 1000000
"""

from __future__ import annotations

import argparse
import copy
import math
import sys

import numpy as np
import pytest

import repro.neat.reproduction as reproduction
from repro.neat.config import NEATConfig
from repro.neat.draws import CHUNK, KI, WI, DrawStream
from repro.neat.population import Population

_MASK128 = (1 << 128) - 1
#: PCG64's LCG multiplier and its inverse mod 2**128
_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MULT_INV = pow(_MULT, -1, 1 << 128)

#: ``integers`` bounds: 1 draws nothing, then small bounds and the top
#: of the 32-bit range, where Lemire's rejection threshold is largest
BOUNDS = [1, 2, 3, 5, 7, 8, 13, 64, 100, 1000, 2**31 + 1, 2**32 - 1, 2**32]
#: ``choice`` options, as the activation/aggregation rules pass them
OPTIONS = [("tanh",), ("sum", "max"), ("tanh", "relu", "sigmoid", "gauss")]


# ------------------------------------------------------------- programs
def _program(seed: int, length: int) -> list[tuple]:
    """``length`` calls drawn by a driver generator of its own."""
    driver = np.random.default_rng(seed)
    kinds = ["random", "standard_normal", "normal", "integers", "shuffle",
             "choice"]
    weights = [0.4, 0.2, 0.1, 0.15, 0.1, 0.05]
    calls: list[tuple] = []
    for kind in driver.choice(kinds, size=length, p=weights):
        if kind == "normal":
            loc = float(driver.normal(0.0, 5.0))
            scale = float(driver.choice([0.0, 0.5, 1.0, 30.0, 1e300]))
            calls.append((kind, loc, scale))
        elif kind == "integers":
            calls.append((kind, int(driver.choice(BOUNDS))))
        elif kind == "shuffle":
            calls.append((kind, int(driver.integers(21))))
        elif kind == "choice":
            calls.append((kind, OPTIONS[int(driver.integers(len(OPTIONS)))]))
        else:
            calls.append((str(kind),))
    return calls


def _run(draws, calls: list[tuple]) -> list[str]:
    """Each call's output as text: floats in hex, shuffles as lists."""
    out = []
    for kind, *args in calls:
        if kind == "shuffle":
            items = list(range(args[0]))
            draws.shuffle(items)
            out.append(repr(items))
        elif kind == "integers":
            out.append(str(int(draws.integers(args[0]))))
        elif kind == "choice":
            out.append(str(draws.choice(args[0])))
        else:
            out.append(float(getattr(draws, kind)(*args)).hex())
    return out


def _twin_check(state: dict, calls: list[tuple]) -> None:
    """``calls`` on a stream and on a ``Generator``, both from ``state``."""
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    twin = np.random.default_rng(0)
    twin.bit_generator.state = state
    with DrawStream(rng) as draws:
        got = _run(draws, calls)
    want = _run(twin, calls)
    differ = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert not differ, [(calls[i], got[i], want[i]) for i in differ[:3]]
    assert rng.bit_generator.state == twin.bit_generator.state


def _state(seed: int, buffered: str = "none") -> dict:
    """A start state with no half-word buffered, a ``buffered`` one, or
    a ``stale`` one (used, so ``has_uint32`` is 0 and ``uinteger`` not)."""
    rng = np.random.default_rng(seed)
    for _ in range({"none": 0, "buffered": 1, "stale": 2}[buffered]):
        rng.integers(5)
    state = rng.bit_generator.state
    assert state["has_uint32"] == (buffered == "buffered")
    return state


def _emitting(word: int, at: int, state: dict) -> dict:
    """``state`` with its LCG moved so that raw word ``at`` is ``word``.

    PCG64 steps the LCG, then outputs XSL-RR of the new state, which is
    the low half when the high half is 0; stepping back from there
    ``at + 1`` times gives the start state.
    """
    inc = state["state"]["inc"]
    lcg = word
    for _ in range(at + 1):
        lcg = (lcg - inc) * _MULT_INV & _MASK128
    return {**state, "state": {"state": lcg, "inc": inc}}


def _word(idx: int, rabs: int, sign: int = 0) -> int:
    return idx | sign << 8 | rabs << 9


# ---------------------------------------------------------------- twins
@pytest.mark.parametrize("buffered", ["none", "buffered", "stale"])
@pytest.mark.parametrize("seed", range(40))
def test_generated_programs_match_a_twin_generator(seed, buffered):
    _twin_check(_state(seed, buffered), _program(seed, 400))


@pytest.mark.parametrize("seed", range(4))
def test_long_programs_cross_many_chunks(seed):
    """About four chunks' worth of words, so every kind of call meets a
    chunk boundary somewhere."""
    _twin_check(_state(1000 + seed, "buffered"), _program(1000 + seed, 3500))


@pytest.mark.parametrize("lead", ["random", "integers"])
@pytest.mark.parametrize(
    "idx,rabs",
    [
        (0, KI[0]),          # the tail: rabs at the bound takes it
        (0, 2**52 - 1),
        (1, 0),              # KI[1] == 0: layer 1 always takes the wedge
        (7, KI[7]),
        (200, 2**52 - 1),
        (255, KI[255] - 1),  # the fast path's last rabs
    ],
)
@pytest.mark.parametrize("sign", [0, 1])
def test_a_positioned_normal_on_the_chunk_s_last_word(idx, rabs, sign, lead):
    """The word ``CHUNK - 1`` decides a ``standard_normal``; a slow path
    runs on into the next chunk's words.  ``lead`` fills the chunk with
    doubles, or with integers that leave a half-word buffered."""
    state = _emitting(_word(idx, rabs, sign), CHUNK - 1, _state(idx))
    if lead == "random":
        lead_calls = [("random",)] * (CHUNK - 1)
    else:
        lead_calls = [("integers", 7)] * (2 * CHUNK - 3)
    calls = lead_calls + [("standard_normal",)] + _program(idx, 300)
    _twin_check(state, calls)


def test_slow_paths_come_up_in_a_program():
    """The generated programs reach both slow paths on their own: count
    the decided words of a long normal-only program."""
    rng = np.random.default_rng(5)
    words = rng.bit_generator.random_raw(20_000)
    idx = words & 0xFF
    rabs = (words >> 9) & (2**52 - 1)
    slow = rabs >= np.array(KI, dtype=np.uint64)[idx]
    assert slow[idx == 0].any() and slow[idx > 0].any()
    _twin_check(_state(5), [("standard_normal",)] * 20_000)


def test_a_shuffle_across_the_chunk_boundary():
    for lead in range(CHUNK - 12, CHUNK + 1):
        _twin_check(_state(lead), [("random",)] * lead + [("shuffle", 20)] * 3)


def test_integers_across_the_chunk_boundary():
    calls = [("random",)] * (CHUNK - 1) + [("integers", 2**32 - 1)] * 5
    _twin_check(_state(9, "buffered"), calls)
    _twin_check(_state(9, "stale"), calls)


def test_an_unused_stream_leaves_the_state_alone():
    for buffered in ("none", "buffered", "stale"):
        _twin_check(_state(3, buffered), [])
        _twin_check(_state(3, buffered), [("integers", 1), ("shuffle", 1)])


def test_the_stream_refuses_what_numpy_refuses():
    rng = np.random.default_rng(0)
    with DrawStream(rng) as draws:
        for bad in (0, -3):
            with pytest.raises(ValueError):
                rng.integers(bad)
            with pytest.raises(ValueError):
                draws.integers(bad)
        for scale in (-1.0, -0.0):
            with pytest.raises(ValueError):
                rng.normal(0.0, scale)
            with pytest.raises(ValueError):
                draws.normal(0.0, scale)
        with pytest.raises(ValueError):
            draws.integers(2**32 + 1)
        assert math.isnan(rng.normal(1.0, math.nan))
        assert math.isnan(draws.normal(1.0, math.nan))


def test_a_committed_stream_draws_nothing():
    rng = np.random.default_rng(0)
    draws = DrawStream(rng)
    draws.random()
    draws.commit()
    with pytest.raises(RuntimeError):
        draws.random()
    with pytest.raises(RuntimeError):
        draws.commit()


def test_only_pcg64_is_drawn():
    with pytest.raises(TypeError):
        DrawStream(np.random.Generator(np.random.MT19937(0)))


# --------------------------------------------------------------- tables
def derive_tables() -> tuple[list[int], list[float]]:
    """NumPy's ziggurat tables, read off ``standard_normal``.

    Each probe makes PCG64 emit two chosen words: the one that decides
    the normal, then 0, so that a wedge test draws ``u = 0`` and
    accepts.  ``WI[idx]`` is the normal at ``rabs = 1``; ``KI[idx]`` is
    the least ``rabs`` that takes the second word.
    """
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)

    def probe(word: int) -> tuple[float, bool]:
        # successor states word, then 0: pick inc, then step back once
        inc = -word * _MULT & _MASK128
        lcg = (word - inc) * _MULT_INV & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": lcg, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        value = rng.standard_normal()
        return value, bit_generator.state["state"]["state"] != word

    ki, wi = [], []
    for idx in range(256):
        wi.append(probe(_word(idx, 1))[0])
        lo, hi = 0, 2**52
        while lo < hi:
            mid = (lo + hi) // 2
            if probe(_word(idx, mid))[1]:
                hi = mid
            else:
                lo = mid + 1
        ki.append(lo)
    return ki, wi


def test_the_tables_are_numpy_s():
    ki, wi = derive_tables()
    assert ki == list(KI)
    assert [w.hex() for w in wi] == [w.hex() for w in WI]


# ------------------------------------------------------------ reproduce
class _GeneratorDraws:
    """Stands in for :class:`DrawStream`: draws straight from the
    ``Generator``, which is what the stream must repeat."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def __enter__(self) -> np.random.Generator:
        return self.rng

    def __exit__(self, *exc_info: object) -> None:
        pass


def _ready_population(seed: int) -> Population:
    config = NEATConfig(
        num_inputs=4,
        num_outputs=2,
        population_size=60,
        activation_options=("tanh", "relu", "sigmoid"),
        activation_mutate_rate=0.2,
    )
    population = Population(config, seed=seed)
    for generation in range(3):
        for genome in population.population:
            genome.fitness = float(int(genome.structural_hash()[:4], 16) % 50)
        if generation < 2:
            population._evolve()
    population.species_set.update_fitnesses(population.generation)
    return population


def _reproduce(population: Population) -> list:
    return population.reproduction.reproduce(
        population.species_set, population.generation, population.rng
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reproduce_draws_what_the_generator_draws(seed, monkeypatch):
    streamed = _ready_population(seed)
    oracle = copy.deepcopy(streamed)
    got = [g.to_dict() for g in _reproduce(streamed)]
    monkeypatch.setattr(reproduction, "DrawStream", _GeneratorDraws)
    want = [g.to_dict() for g in _reproduce(oracle)]
    assert got == want
    assert streamed.rng.bit_generator.state == oracle.rng.bit_generator.state


@pytest.mark.parametrize("fail_at", [1, 7])
def test_a_reproduce_that_raises_still_commits(fail_at, monkeypatch):
    """A crossover that raises partway through leaves the generator
    where the same draws on the ``Generator`` leave it."""
    real = reproduction.crossover
    calls = {"n": 0}

    def failing(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == fail_at:
            raise RuntimeError("crossover failed")
        return real(*args, **kwargs)

    streamed = _ready_population(4)
    oracle = copy.deepcopy(streamed)
    start = streamed.rng.bit_generator.state
    monkeypatch.setattr(reproduction, "crossover", failing)
    with pytest.raises(RuntimeError, match="crossover failed"):
        _reproduce(streamed)
    calls["n"] = 0
    monkeypatch.setattr(reproduction, "DrawStream", _GeneratorDraws)
    with pytest.raises(RuntimeError, match="crossover failed"):
        _reproduce(oracle)
    assert streamed.rng.bit_generator.state != start
    assert streamed.rng.bit_generator.state == oracle.rng.bit_generator.state


# ----------------------------------------------------------- tripwire
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--draws", type=int, default=1_000_000)
    args = parser.parse_args(argv)
    print(f"numpy {np.__version__}: {args.draws} stream draws against "
          "a twin Generator")
    chunk = 20_000
    for block in range(max(1, args.draws // chunk)):
        for buffered in ("none", "buffered", "stale"):
            calls = _program(block, chunk // 3)
            try:
                _twin_check(_state(block, buffered), calls)
            except AssertionError as error:
                print(f"DrawStream differs from numpy {np.__version__}'s "
                      f"Generator (block {block}, {buffered}): {error}")
                return 1
    print(f"DrawStream matches numpy {np.__version__}'s Generator")
    return 0


if __name__ == "__main__":
    sys.exit(main())
