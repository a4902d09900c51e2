"""The stream table reproduces ``np.random.default_rng(row)`` bit for bit."""

import numpy as np
import pytest

from beamckm.streams import pcg64_state, seed_words

# one- to three-word seeds: the uint32 word edges and a seed above 2^64
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**40, 2**64 + 5)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("width", [1, 3])  # [seed, tag, t] and [seed, tag, t, si, k]
def test_table_equals_default_rng(seed, width):
    counters = np.random.default_rng(seed % 97 + width).integers(0, 2**32, size=(40, width))
    counters[0] = 0
    counters[1] = 2**32 - 1
    words = seed_words([seed, 202], counters)
    assert words.shape == (40, 4) and words.dtype == np.uint64
    for row, w in zip(counters.tolist(), words):
        entropy = [seed, 202, *row]
        np.testing.assert_array_equal(
            w, np.random.SeedSequence(entropy).generate_state(4, np.uint64)
        )
        assert pcg64_state(w) == np.random.default_rng(entropy).bit_generator.state


def test_loaded_generator_draws_what_a_fresh_one_draws():
    counters = np.arange(12).reshape(4, 3)
    reused = np.random.default_rng(0)
    for row, w in zip(counters.tolist(), seed_words([7919, 202], counters)):
        reused.standard_normal(5)  # a used generator leaves nothing behind
        reused.bit_generator.state = pcg64_state(w)
        fresh = np.random.default_rng([7919, 202, *row])
        for draw in ("standard_normal", "random", "integers"):
            args = (1000,) if draw == "integers" else ()
            np.testing.assert_array_equal(
                getattr(reused, draw)(*args, size=7), getattr(fresh, draw)(*args, size=7)
            )


def test_head_alone_and_empty_tables():
    for seed in SEEDS:
        (w,) = seed_words([seed], np.empty((1, 0), np.int64))
        assert pcg64_state(w) == np.random.default_rng([seed]).bit_generator.state
    assert seed_words([0, 202], np.empty((0, 3), np.int64)).shape == (0, 4)


@pytest.mark.parametrize("bad", [-1, 2**32])
def test_counter_outside_one_word_rejected(bad):
    with pytest.raises(ValueError, match="counters"):
        seed_words([0, 101], np.array([[0], [bad]]))
