import os
import subprocess
import sys

import pytest

import pdws
from pdws import rng
from pdws.rng import SamplerState


def draws(state, k=8):
    return [state.random() for _ in range(k)]


def test_same_seed_same_stream():
    assert draws(SamplerState(42)) == draws(SamplerState(42))


def test_fork_is_deterministic_and_label_sensitive():
    a = draws(SamplerState(1).fork(3, 4))
    b = draws(SamplerState(1).fork(3, 4))
    c = draws(SamplerState(1).fork(3, 5))
    d = draws(SamplerState(2).fork(3, 4))
    assert a == b
    assert a != c
    assert a != d


def test_nested_fork_equals_flat_labels():
    assert draws(SamplerState(9).fork(1).fork(2)) == draws(SamplerState(9).fork(1, 2))


def test_fork_independent_of_parent_draws():
    parent = SamplerState(5)
    child_before = draws(parent.fork(0))
    parent.random()
    parent.random()
    assert draws(parent.fork(0)) == child_before


def test_large_seed_accepted():
    draws(SamplerState(2**200).fork(1))


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        SamplerState(-1)


def test_import_pdws_does_not_load_numpy():
    # Detection never samples, so only the first draw pays for numpy.
    src = os.path.dirname(os.path.dirname(pdws.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, pdws; assert 'numpy' not in sys.modules, 'numpy loaded'; "
        "pdws.rng.SamplerState(1).random(); assert 'numpy' in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_generator_looks_up_philox_on_the_module(monkeypatch):
    # A wrapper installed on rng.Philox (as a profiler does) sees every stream.
    original = rng.Philox
    keys = []

    def counting(key):
        keys.append(key)
        return original(key=key)

    monkeypatch.setattr(rng, "Philox", counting)
    assert draws(SamplerState(4).fork(1)) == draws(SamplerState(4).fork(1))
    assert len(keys) == 2 and keys[0] == keys[1]
