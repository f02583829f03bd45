"""rng.py against numpy itself: the same seeds give the same streams, float
for float, so the pure-Python streams keep every event log numpy wrote."""

import pytest
from hypothesis import example, given, settings, strategies as st

from parksim import rng

np = pytest.importorskip("numpy")

STREAMS = 6  # sim.RNG_STREAMS has six names


def _pairs(seed):
    ours = rng.SeedSequence(seed).spawn(STREAMS)
    theirs = np.random.SeedSequence(seed).spawn(STREAMS)
    return [(rng.PCG64(a), np.random.Generator(np.random.PCG64(b))) for a, b in zip(ours, theirs)]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**128 - 1),
    draws=st.lists(
        st.one_of(
            st.just(None),  # random()
            st.tuples(st.floats(-1e3, 1e3), st.floats(0.0, 1e3)),  # normal(loc, scale)
        ),
        min_size=1, max_size=300,
    ),
)
@example(seed=0, draws=[None, (0.0, 0.5), (29.5, 0.1)] * 100)
@example(seed=2**32 - 1, draws=[None, (0.0, 1.0)] * 50)
@example(seed=2**32, draws=[None, (0.0, 1.0)] * 50)
@example(seed=2**64 - 1, draws=[None, (0.0, 1.0)] * 50)
@example(seed=2**64, draws=[None, (0.0, 1.0)] * 50)
def test_every_spawned_stream_draws_numpys_floats(seed, draws):
    for ours, theirs in _pairs(seed):
        for draw in draws:
            if draw is None:
                assert ours.random() == theirs.random()
            else:
                assert ours.normal(*draw) == theirs.normal(*draw)


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**64 + 123, 10**30])
def test_seed_state_matches_numpy(seed):
    ours, theirs = rng.SeedSequence(seed), np.random.SeedSequence(seed)
    assert list(ours.pool) == theirs.pool.tolist()
    assert ours.generate_state(4) == theirs.generate_state(4, np.uint64).tolist()
    # a second spawn goes on from the first one's keys, as numpy's does
    ours.spawn(2)
    theirs.spawn(2)
    for a, b in zip(ours.spawn(3), theirs.spawn(3)):
        assert a.spawn_key == b.spawn_key
        assert list(a.pool) == b.pool.tolist()


class _CountingPCG64(rng.PCG64):
    """Counts the uniform draws `normal` makes beyond its first 64-bit word."""

    __slots__ = ("uniforms",)

    def __init__(self, seed_seq):
        super().__init__(seed_seq)
        self.uniforms = 0

    def random(self):
        self.uniforms += 1
        return super().random()


def test_a_million_normals_equal_numpys_through_the_tail_and_the_wedges():
    n = 1_000_000
    seed = 99
    ours = _CountingPCG64(rng.SeedSequence(seed))
    theirs = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))).standard_normal(n)
    tails = wedges = 0
    for expected in theirs.tolist():
        before = ours.uniforms
        z = ours.normal(0.0, 1.0)
        assert z == expected
        if abs(z) > rng._ZIGGURAT_R:
            tails += 1
        # the tail takes uniforms in pairs, a wedge test one at a time
        if (ours.uniforms - before) % 2:
            wedges += 1
    assert tails > 0
    assert wedges > 0


def test_negative_or_non_integer_seed_refused():
    with pytest.raises(ValueError):
        rng.SeedSequence(-1)
    with pytest.raises(TypeError):
        rng.SeedSequence(1.5)

