"""The Monte Carlo replicate streams: the block-at-once port of numpy's
``SeedSequence`` hash in ``lrtest`` checked against numpy itself, so a
numpy whose hash differs fails here, under this file's name."""

import numpy as np
import pytest

import crashmle
from crashmle import lrtest
from crashmle.dataset import CONSTANT, ModelSpec, Term, build_design
from crashmle.simulate import CovariateRecipe, DgpConfig

pytestmark = pytest.mark.gate

#: one zero word, one word, the largest one-word seed, the smallest
#: two-word one, three words, five words (entropy longer than the pool of
#: four with any index), and a numpy integer
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**96 + 7, np.int64(5)]
#: the index takes a second word from 2**32 on, inside the second block
RANGES = [(0, 300), (2**32 - 2, 2**32 + 2)]


def numpy_states(seed, start, stop):
    return np.array([np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)
                     for i in range(start, stop)])


def numpy_generator(seed, i):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))


def nb_design():
    spec = ModelSpec("nb", (Term(CONSTANT), Term("z1")))
    table = crashmle.gen_nb(DgpConfig(spec, {"constant": 1.5, "z1": 0.4, "alpha": 0.8},
                                      {"z1": CovariateRecipe("normal")}, n=40, seed=0))
    return build_design(table, spec), np.array([1.5, 0.4, np.log(0.8)])


@pytest.mark.parametrize("start, stop", RANGES)
@pytest.mark.parametrize("seed", SEEDS, ids=repr)
def test_replicate_states_are_numpys_seed_sequence_states(seed, start, stop):
    states = lrtest._replicate_states(seed, start, stop)
    assert states.dtype == np.uint64 and states.shape == (stop - start, 4)
    np.testing.assert_array_equal(states, numpy_states(seed, start, stop))


@pytest.mark.parametrize("seed", [0, 2**32 + 1, 2**96 + 7], ids=repr)
def test_a_preset_state_seeds_numpys_generator(seed):
    start = 2**32 - 2
    for i, state in zip(range(start, start + 4),
                        lrtest._replicate_states(seed, start, start + 4)):
        ours = np.random.Generator(np.random.PCG64(lrtest._PresetState(state)))
        theirs = numpy_generator(seed, i)
        np.testing.assert_array_equal(ours.random(20), theirs.random(20))
        np.testing.assert_array_equal(ours.gamma(1.25, 0.8, 50), theirs.gamma(1.25, 0.8, 50))
        np.testing.assert_array_equal(ours.poisson(np.arange(50.0)),
                                      theirs.poisson(np.arange(50.0)))


def test_a_preset_state_refuses_any_other_request():
    preset = lrtest._PresetState(lrtest._replicate_states(1, 0, 1)[0])
    for n_words, dtype in ((4, np.uint32), (2, np.uint64), (8, np.uint64)):
        with pytest.raises(ValueError, match="4 uint64 words"):
            preset.generate_state(n_words, dtype)


def test_an_empty_range_gives_no_rows():
    design, theta = nb_design()
    for start in (0, 7, 2**32):
        assert lrtest._replicate_states(3, start, start).shape == (0, 4)
        assert lrtest.replicate_outcomes(design, theta, 3, start, start).shape == (0, 40)


@pytest.mark.parametrize("seed, start", [(-1, 0), (np.int64(-5), 0), (3, -1)])
def test_a_negative_seed_or_start_is_refused(seed, start):
    design, theta = nb_design()
    with pytest.raises(ValueError, match="non-negative"):
        lrtest.replicate_outcomes(design, theta, seed, start, start + 2)


def test_a_reversed_range_is_refused_by_name():
    design, theta = nb_design()
    with pytest.raises(ValueError, match=r"^replicate range 5\.\.3 ends before it starts$"):
        lrtest.replicate_outcomes(design, theta, 1, 5, 3)
