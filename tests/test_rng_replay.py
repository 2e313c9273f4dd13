"""RawReplay against numpy's Generator: every replayed value is equal."""

import json
import random
from dataclasses import asdict

import numpy as np
import pytest

from repro import SimConfig
from repro.sim.engine import build_engine
from repro.sim.sweep import run_point
from repro.util import rng as rng_mod
from repro.util.rng import RawReplay, make_rng

N = 64


def _script(seed: int, length: int = 400):
    """A seeded interleaving of the draws the replay supports."""
    r = random.Random(seed)
    loads = (0.004, 0.014, 0.3, 0.9)
    ops = []
    for _ in range(length):
        kind = r.random()
        if kind < 0.25:
            ops.append(("random",))
        elif kind < 0.35:
            ops.append(("random_n", r.randint(0, 2 * N + 3)))
        elif kind < 0.75:
            m = r.choice((1, 2, N - 1, N, 3, 1000, 2**31 + 7, 2**32))
            ops.append(("integers", m))
        else:
            ops.append(("hits", r.choice((1, 2, N - 1, N)), r.choice(loads)))
    return ops


def _run_numpy(g: np.random.Generator, ops):
    out = []
    for op in ops:
        if op[0] == "random":
            out.append(g.random())
        elif op[0] == "random_n":
            out.append(g.random(op[1]).tolist())
        elif op[0] == "integers":
            out.append(int(g.integers(0, op[1])))
        else:
            out.append(np.flatnonzero(g.random(op[1]) < op[2]).tolist())
    return out


def _run_replay(r: RawReplay, ops):
    out = []
    for op in ops:
        if op[0] == "random":
            out.append(r.random())
        elif op[0] == "random_n":
            out.append(r.random(op[1]).tolist())
        elif op[0] == "integers":
            out.append(r.integers(0, op[1]))
        else:
            out.append(list(r.hits(op[1], op[2])))
    return out


@pytest.mark.parametrize("block", [1, 3, 64, rng_mod.BLOCK_WORDS])
@pytest.mark.parametrize("seed", range(12))
def test_interleaved_draws_match_numpy(seed, block, monkeypatch):
    monkeypatch.setattr(rng_mod, "BLOCK_WORDS", block)
    ops = _script(seed)
    expected = _run_numpy(make_rng(seed, "traffic"), ops)
    got = _run_replay(RawReplay(make_rng(seed, "traffic")), ops)
    assert got == expected
    assert all(type(a) is type(b) for a, b in zip(got, expected))


@pytest.mark.parametrize("seed", range(8))
def test_starts_from_a_buffered_half_word(seed):
    """A generator handed over mid-word keeps its pending upper half."""
    a, b = make_rng(seed, "x"), make_rng(seed, "x")
    for g in (a, b):
        g.integers(0, N)  # splits a word, buffers its upper half
        g.random()
    assert b.bit_generator.state["has_uint32"] == 1
    ops = _script(seed + 100, length=200)
    assert _run_replay(RawReplay(b), ops) == _run_numpy(a, ops)


def test_one_value_range_consumes_nothing():
    g, r = make_rng(5, "x"), RawReplay(make_rng(5, "x"))
    assert [int(g.integers(0, 1)) for _ in range(5)] == [r.integers(0, 1) for _ in range(5)]
    assert r.random() == g.random()


def test_hits_skip_words_taken_by_scalar_draws():
    """Hit positions computed ahead for a block stay valid after scalar
    draws consume words between two Bernoulli sweeps."""
    g, r = make_rng(9, "traffic"), RawReplay(make_rng(9, "traffic"))
    for cycle in range(3000):
        load = 0.5 if cycle % 500 < 250 else 0.05
        expected = np.flatnonzero(g.random(N) < load).tolist()
        assert list(r.hits(N, load)) == expected
        for _ in expected:
            assert r.integers(0, N - 1) == int(g.integers(0, N - 1))
            assert r.random() == g.random()


def test_rejects_what_it_cannot_replay():
    with pytest.raises(ValueError):
        RawReplay(np.random.Generator(np.random.MT19937(1)))
    r = RawReplay(make_rng(1, "x"))
    with pytest.raises(ValueError):
        r.integers(0, 0)
    with pytest.raises(ValueError):
        r.integers(0, 2**32 + 1)


def _fingerprint(config: SimConfig) -> str:
    result = json.dumps(asdict(run_point(config, 300, 900)), sort_keys=True, default=str)
    e = build_engine(config)
    e.run(300)
    drained = e.quiesce()  # load 0 while draining, then restored
    e.run(300)
    return result + repr((bool(drained), e.traffic.generated, e.fabric.flits_forwarded))


@pytest.mark.parametrize("backend", ["reference", "vector"])
def test_tiny_block_run_is_byte_identical(backend, monkeypatch):
    config = SimConfig(dims=(4, 4), scheme="PR", pattern="PAT451", load=0.02,
                       seed=13, backend=backend)
    default = _fingerprint(config)
    monkeypatch.setattr(rng_mod, "BLOCK_WORDS", 3)
    assert _fingerprint(config) == default
