import hashlib
import os
import random
import subprocess
import sys
import threading
from functools import reduce

import numpy as np
import pytest
from numpy.random import Generator, Philox

import pdws
from pdws import rng
from pdws.core import ParameterError
from pdws.rng import SamplerState


def draws(state, k=8):
    return state.random(k).tolist()


def key_of(seed, labels):
    """The Philox key of SamplerState(seed) forked by each label in turn, hashed from scratch."""
    payload = b"pdws-rng|" + seed.to_bytes(32, "big")
    payload += b"".join(lab.to_bytes(8, "big") for lab in labels)
    return int.from_bytes(hashlib.sha256(payload).digest()[:16], "big")


def test_same_seed_same_stream():
    assert draws(SamplerState(42)) == draws(SamplerState(42))


def test_fork_is_deterministic_and_label_sensitive():
    a = draws(SamplerState(1).fork(3).fork(4))
    b = draws(SamplerState(1).fork(3).fork(4))
    c = draws(SamplerState(1).fork(3).fork(5))
    d = draws(SamplerState(2).fork(3).fork(4))
    assert a == b
    assert a != c
    assert a != d


def test_nested_fork_equals_flat_labels():
    # Chained forks key the stream by the seed and the labels in order.
    flat = Generator(Philox(key=key_of(9, (1, 2)))).random(8).tolist()
    assert draws(SamplerState(9).fork(1).fork(2)) == flat


def test_fork_independent_of_parent_draws():
    parent = SamplerState(5)
    child_before = draws(parent.fork(0))
    parent.random(2)
    assert draws(parent.fork(0)) == child_before


@pytest.mark.parametrize(
    "seed, labels", [(0, ()), (7, (0,)), (42, (3, 1, 4)), (2**200, (1, 2**40))]
)
def test_random_n_is_a_prefix_of_the_stream(seed, labels):
    # One random(n) call gives the first n values of any longer call and of
    # n scalar draws on a fresh Philox keyed by the hash of the seed and
    # labels, so a span may draw all at once.
    def fresh():
        return reduce(SamplerState.fork, labels, SamplerState(seed))

    key = key_of(seed, labels)
    for n in (1, 2, 7, 40):
        drawn = fresh().random(n)
        assert drawn.dtype == np.float64 and drawn.shape == (n,)
        head = drawn.tolist()
        for m in (n, n + 1, 64):
            assert head == fresh().random(m)[:n].tolist()
        gen = Generator(Philox(key=key))
        assert head == [float(gen.random()) for _ in range(n)]
        assert all(0 <= u < 1 for u in head)


def test_rekeyed_stream_equals_a_fresh_philox():
    # The thread's generator, re-keyed, gives exactly what Philox(key=k) gives.
    pick = random.Random(17)
    edges = [0, 1, 2**64 - 1, 2**64, 2**128 - 1]
    keys = edges + [pick.getrandbits(pick.choice((64, 65, 127, 128))) for _ in range(2995)]
    for key in keys:
        n = pick.randint(0, 70)
        fresh = Generator(Philox(key=key))
        assert rng._rekey(key).random(n).tolist() == fresh.random(n).tolist(), (key, n)


def test_threads_drawing_at_once_keep_each_stream():
    # Each thread re-keys its own generator and state dict: between one
    # thread's re-key and its draw, the others re-key, and each draw still
    # gives its own key's stream.
    pick = random.Random(23)
    keys = [[pick.getrandbits(128) for _ in range(150)] for _ in range(3)]
    step = threading.Barrier(len(keys), timeout=30)
    drawn = {}

    def run(own):
        for key in own:
            gen = rng._rekey(key)
            step.wait()
            drawn[key] = gen.random(key % 40).tolist()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(own,)) for own in keys]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for key in sum(keys, []):
        assert drawn[key] == Generator(Philox(key=key)).random(key % 40).tolist(), key


@pytest.mark.parametrize("a, b", [(0, 5), (1, 1), (3, 4), (4, 4), (5, 11), (16, 1)])
def test_second_draw_repeats_the_stream(a, b):
    # A state is a value: a second random(n) starts the stream afresh.
    state = SamplerState(3).fork(8)
    first = draws(state, a)
    assert draws(state, b) == draws(SamplerState(3).fork(8), b)
    assert draws(state, a) == first


def test_interleaved_draws_keep_each_stream():
    a, b = SamplerState(1).fork(1), SamplerState(1).fork(2)
    first = draws(a, 3)
    other = draws(b, 6)
    assert first == draws(a, 3) == draws(SamplerState(1).fork(1))[:3]
    assert other == draws(b, 6) == draws(SamplerState(1).fork(2), 6)


def test_large_seed_accepted():
    draws(SamplerState(2**200).fork(1))


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        SamplerState(-1)


@pytest.mark.parametrize("seed", [1.5, 1.0, "3", True, None])
def test_non_int_seed_rejected(seed):
    # A bool is not read as 0 or 1, nor a float or string as a number.
    with pytest.raises(ParameterError, match="seed must be an integer"):
        SamplerState(seed)


def test_seed_beyond_256_bits_rejected():
    # Forks pack the seed into 32 bytes.
    draws(SamplerState(2**256 - 1).fork(1))
    with pytest.raises(ValueError):
        SamplerState(2**256)


def test_import_pdws_does_not_load_numpy():
    # Detection never samples, so numpy loads with the sampling half, at the
    # first access to it, and binds Generator and Philox where a profiler
    # wraps them.
    src = os.path.dirname(os.path.dirname(pdws.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, pdws; assert 'numpy' not in sys.modules, 'numpy loaded'; "
        "import pdws.rng; assert 'numpy' in sys.modules, 'numpy not loaded'; "
        "assert {'Generator', 'Philox'} <= set(vars(pdws.rng)); "
        "pdws.rng.SamplerState(1).random(1); assert 'numpy' in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_rekey_is_looked_up_on_the_module(monkeypatch):
    # A wrapper installed on rng._rekey (as a profiler does) sees every draw.
    original = rng._rekey
    keys = []

    def counting(key):
        keys.append(key)
        return original(key)

    monkeypatch.setattr(rng, "_rekey", counting)
    assert draws(SamplerState(4).fork(1)) == draws(SamplerState(4).fork(1))
    SamplerState(5).fork(2).fork(3).random(1)
    assert keys == [key_of(4, (1,))] * 2 + [key_of(5, (2, 3))]
