"""A stack of equal-length signals gets, row by row, the bytes of the
per-signal extraction kept in `extract_reference`.

`features.extract_channel` takes one 1-D signal or a (rows, samples)
stack, and every feature group works along the last axis. Rows whose
boolean selections differ from an ordinary row's, so that a group
reduces them in a group of their own (a constant row, a constant run
that leaves R/S blocks without spread, zero bins in a spectrum, an
alternating row whose even-lag Higuchi lengths are 0, exact zeros among
the signs), are mixed here with ordinary rows in one stack.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import extract_reference
from conftest import FS, golden_corpus
from eegsweep import features

GOLDEN = Path(__file__).with_name("feature_golden.json")
KINDS = ("noise", "rounded", "tied", "flat_run", "constant", "alternating",
         "tone")


def row(kind, n, scale, rng):
    if kind == "noise":
        x = rng.standard_normal(n)
    elif kind == "rounded":
        x = np.round(rng.standard_normal(n), 1)
    elif kind == "tied":
        x = rng.integers(-3, 4, n).astype(float)
    elif kind == "flat_run":  # constant R/S blocks in a varying row
        x = rng.standard_normal(n)
        x[n // 4:n // 2] = x[n // 4]
    elif kind == "constant":
        x = np.full(n, rng.standard_normal())
    elif kind == "alternating":
        x = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    else:  # a pure tone; 32 Hz at 128 Hz leaves exact zeros in the signal
        f = rng.choice([2.0, 10.0, 32.0, 7.3])
        x = np.sin(2 * np.pi * f * np.arange(n) / FS)
    return scale * x


@st.composite
def stacks(draw):
    n = draw(st.integers(256, 4000))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return np.array([
        row(kind, n, draw(st.sampled_from([1e-150, 1e-6, 1.0, 1e3])), rng)
        for kind in kinds])


@settings(max_examples=40, deadline=None)
@given(stacks())
def test_every_row_of_a_stack_equals_the_per_signal_vector(x):
    got = features.extract_channel(x, FS)
    assert got.shape == (len(x), features.N_FEATURES)
    for r, signal in enumerate(x):
        want = extract_reference.extract_channel(signal, FS)
        assert got[r].tobytes() == want.tobytes(), r


def test_a_cohort_sized_stack_equals_the_per_signal_vectors():
    # 41 subjects x 3 channels of 4 s, as a sweep stacks them across
    # subjects, with every kind of row and scale in one stack
    rng = np.random.default_rng(41)
    scales = (1e-150, 1e-6, 1.0, 1e3)
    x = np.array([row(KINDS[r % len(KINDS)], int(4 * FS), scales[r % 4], rng)
                  for r in range(123)])
    got = features.extract_channel(x, FS)
    for r, signal in enumerate(x):
        want = extract_reference.extract_channel(signal, FS)
        assert got[r].tobytes() == want.tobytes(), r


def test_golden_corpus_in_stacks_matches_its_golden_hashes():
    golden = json.loads(GOLDEN.read_text())["extract_channel"]
    by_length = {}
    for name, x in golden_corpus():
        by_length.setdefault(x.size, []).append((name, x))
    assert max(len(group) for group in by_length.values()) > 1
    for group in by_length.values():
        vectors = features.extract_channel(np.array([x for _, x in group]),
                                           FS)
        for (name, _), vec in zip(group, vectors):
            assert hashlib.sha256(vec.tobytes()).hexdigest() \
                == golden[name], name


def test_one_signal_is_a_one_row_stack():
    x = np.random.default_rng(3).standard_normal(int(6 * FS))
    one = features.extract_channel(x, FS)
    assert one.shape == (features.N_FEATURES,)
    assert one.tobytes() == features.extract_channel(x[None], FS)[0].tobytes()
