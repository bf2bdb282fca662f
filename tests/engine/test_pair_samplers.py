"""One class per pair law: the scheduler names are the engine samplers.

``repro.population.scheduler`` re-exports the engine's sampler classes,
so the scalar ``next_pair`` and the block draws are one implementation
per law.  These tests pin that identity and the input checks the merge
made uniform across every construction path; the bitstreams themselves
are pinned by ``tests/property/test_scheduler_golden.py``.
"""

import numpy as np
import pytest

from repro.engine import (
    GraphPairSampler,
    UniformPairSampler,
    WeightedPairSampler,
    ring_graph,
)
from repro.population.scheduler import (
    GraphScheduler,
    RandomScheduler,
    WeightedScheduler,
)
from repro.utils import InvalidParameterError


def test_scheduler_names_are_the_engine_samplers():
    assert RandomScheduler is UniformPairSampler
    assert WeightedScheduler is WeightedPairSampler
    assert GraphScheduler is GraphPairSampler


SAMPLERS = {
    "uniform": lambda seed: UniformPairSampler(6, seed),
    "weighted": lambda seed: WeightedPairSampler([1.0, 2.0, 3.0], seed),
    "graph": lambda seed: GraphPairSampler(ring_graph(8), seed),
}


@pytest.mark.parametrize("law", sorted(SAMPLERS))
def test_generator_is_adopted_and_seed_is_optional(law):
    rng = np.random.default_rng(4)
    assert SAMPLERS[law](rng).rng is rng
    assert isinstance(SAMPLERS[law](None).rng, np.random.Generator)


@pytest.mark.parametrize("law", sorted(SAMPLERS))
def test_next_pair_is_one_pair_block_draw(law):
    scalar, block = SAMPLERS[law](11), SAMPLERS[law](11)
    for _ in range(200):
        first, second = block.pair_block(1)
        pair = scalar.next_pair()
        assert pair == (int(first[0]), int(second[0]))
        assert all(type(agent) is int for agent in pair)
    assert (scalar.rng.bit_generator.state
            == block.rng.bit_generator.state)


@pytest.mark.parametrize("law", sorted(SAMPLERS))
@pytest.mark.parametrize("size", [0, -3])
def test_pair_block_rejects_empty_blocks(law, size):
    with pytest.raises(InvalidParameterError):
        SAMPLERS[law](0).pair_block(size)


def test_uniform_sampler_rejects_single_agent():
    with pytest.raises(InvalidParameterError):
        UniformPairSampler(1, np.random.default_rng(0))


def test_weighted_sampler_weights_are_a_copy():
    sampler = WeightedPairSampler([1.0, 3.0], np.random.default_rng(0))
    advertised = sampler.weights
    advertised[:] = [0.9, 0.1]
    np.testing.assert_allclose(sampler.weights, [0.25, 0.75])
    sampler.weights[0] = 0.5
    np.testing.assert_allclose(sampler.weights, [0.25, 0.75])


def test_graph_scheduler_refuses_conflicting_n():
    with pytest.raises(InvalidParameterError, match="n=10"):
        GraphScheduler(ring_graph(10), n=20, seed=0)


def test_graph_scheduler_accepts_matching_n():
    graph = ring_graph(10)
    scheduler = GraphScheduler(graph, n=10, seed=0)
    assert scheduler.topology is graph and scheduler.n == 10


def test_graph_sampler_accepts_specs_and_edge_arrays():
    assert GraphPairSampler("ring", 0, n=12).topology.n == 12
    edges = np.array([[0, 1], [1, 2], [2, 0]])
    assert GraphPairSampler(edges, 0, n=3).topology.n == 3
    with pytest.raises(InvalidParameterError, match="needs n="):
        GraphPairSampler("ring", 0)
