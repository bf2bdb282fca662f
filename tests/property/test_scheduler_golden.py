"""Golden bitstream digests of the pair-scheduler layer.

The law suites (``test_weighted_sampling.py``, ``test_topology.py``)
prove that each pair law samples the right *distribution*; they do not
notice a change that keeps the law but moves a single draw.  This file
pins the draws themselves, for each of the three pair laws (uniform,
activity-weighted, graph-restricted), by hashing the drawn arrays and
the final generator state of

* the scheduler surface: a ``next_pair`` stream, ``pair_block`` blocks
  and ``others_block`` blocks (the ``repro.population.scheduler`` names);
* the engine surface: the same blocks through the engine samplers
  constructed from a shared generator;
* :class:`~repro.engine.agent.AgentBackend` runs under each law, for a
  2-slot table model (sequential and kernel paths) and the 4-slot
  :class:`~repro.engine.ImitationModel` with an observation cadence;
* :meth:`PopulationGameSimulation.step` loops under each law, for the
  ``best_response`` and ``imitation`` rules;
* :meth:`IGTSimulation.step` loops in ``mode="action"`` with payoff
  tracking, under each law.

A refactor of the schedulers or samplers must leave every digest
unchanged; a deliberate bitstream change must bump ``CODE_EPOCH`` and
re-pin them.

NumPy's ``Generator`` methods may change their streams between feature
releases, so the digests are pinned for one NumPy minor version and the
test is skipped under any other.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.equilibrium import RDSetting
from repro.core.general_games import PopulationGameSimulation, hawk_dove_game
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.engine import (
    AgentBackend,
    GraphPairSampler,
    ImitationModel,
    UniformPairSampler,
    WeightedPairSampler,
    igt_model,
    powerlaw_graph,
    ring_graph,
    weights_from_spec,
)
from repro.population.scheduler import (
    GraphScheduler,
    RandomScheduler,
    WeightedScheduler,
)

#: NumPy minor version the digests below were recorded under.
PINNED_NUMPY = "2.4"

pytestmark = pytest.mark.skipif(
    ".".join(np.__version__.split(".")[:2]) != PINNED_NUMPY,
    reason=f"digests pinned under NumPy {PINNED_NUMPY}.x")

SEED = 20240617

#: Rock-paper-scissors-like payoffs for the 4-slot imitation rule.
RPS = np.array([[1.0, 0.0, 2.0], [2.0, 1.0, 0.0], [0.0, 2.0, 1.0]])

#: law name -> (scheduler factory, engine-sampler factory), each taking
#: a seed or generator.
LAWS = {
    "uniform-2": (lambda s: RandomScheduler(2, seed=s),
                  lambda r: UniformPairSampler(2, r)),
    "uniform-3": (lambda s: RandomScheduler(3, seed=s),
                  lambda r: UniformPairSampler(3, r)),
    "uniform-7": (lambda s: RandomScheduler(7, seed=s),
                  lambda r: UniformPairSampler(7, r)),
    "uniform-1e3": (lambda s: RandomScheduler(1_000, seed=s),
                    lambda r: UniformPairSampler(1_000, r)),
    "uniform-1e7": (lambda s: RandomScheduler(10**7, seed=s),
                    lambda r: UniformPairSampler(10**7, r)),
    "weighted-2": (lambda s: WeightedScheduler([1.0, 3.0], seed=s),
                   lambda r: WeightedPairSampler([1.0, 3.0], r)),
    "weighted-4": (lambda s: WeightedScheduler([1.0, 2.0, 3.0, 4.0], seed=s),
                   lambda r: WeightedPairSampler([1.0, 2.0, 3.0, 4.0], r)),
    "weighted-powerlaw": (
        lambda s: WeightedScheduler(weights_from_spec("powerlaw", 50),
                                    seed=s),
        lambda r: WeightedPairSampler(weights_from_spec("powerlaw", 50), r)),
    "graph-ring": (lambda s: GraphScheduler(ring_graph(12), seed=s),
                   lambda r: GraphPairSampler(ring_graph(12), r)),
    "graph-powerlaw": (lambda s: GraphScheduler(powerlaw_graph(60), seed=s),
                       lambda r: GraphPairSampler(powerlaw_graph(60), r)),
}

#: Agent-level populations for the engine and facade runs.
N_AGENTS = 60


def agent_scheduler(law: str, seed):
    """A scheduler over ``N_AGENTS`` agents for the given law."""
    if law == "uniform":
        return RandomScheduler(N_AGENTS, seed=seed)
    if law == "weighted":
        return WeightedScheduler(weights_from_spec("twoclass:3", N_AGENTS),
                                 seed=seed)
    return GraphScheduler(ring_graph(N_AGENTS), seed=seed)


#: law -> the facade keywords selecting it.
FACADE_LAWS = {
    "uniform": {},
    "weighted": {"weights": "twoclass:3"},
    "graph": {"topology": "ring"},
}

GOLDEN = {
    "scheduler-uniform-2":
        "7116f2adcffc2c82904c5d75ffe8e9a185cad3b26ec74f3bb1bf403c078d90ce",
    "scheduler-uniform-3":
        "ae3d954bacbbfbc4c837311db5864532e8192419c3544371ffd38f910af2308b",
    "scheduler-uniform-7":
        "cd84cde9361e61025e024689d1654528e6fe0b402604b58ae25f8360a63a7ee7",
    "scheduler-uniform-1e3":
        "4704989b29e3a0a83fb4f766de1fd20428f174b7d0cf0a06a033e893cfd6caef",
    "scheduler-uniform-1e7":
        "19e9d69e91d9d8a058596437728131ab05dd47e3b792a443e5db035b35addfae",
    "scheduler-weighted-2":
        "7691c81037893cce7619d456f2641c70f9ba1c6f7d990612743883627831f50f",
    "scheduler-weighted-4":
        "685d86704e0f0d4fa12fe5335a390047ae6f61fc02e035c8d703d4c3c49bc58b",
    "scheduler-weighted-powerlaw":
        "0ef336445606a5e5e654bb3bac7cdba379154894f18a489c60ec077e93b57b6f",
    "scheduler-graph-ring":
        "2baa529151233798f09a1d3cc3c327b7340b887c1677bedd359ea97b2eb080b3",
    "scheduler-graph-powerlaw":
        "c79ee08b9da37f2c2c9594671289597197be78587f679d453475938543c4e2d4",
    "sampler-uniform-2":
        "b6a9b5230f1c706f7eecf055189934de564b2bbabdf4b244713f6ff428d67874",
    "sampler-uniform-3":
        "e426d4cbc5434870b425dd8701844546786b429bd5c6ec74f62ac42d6d3c7049",
    "sampler-uniform-7":
        "8f29a3943d27e62fa814a2ca21caa067751ae3fc481bd9dabadff5bdec5b525f",
    "sampler-uniform-1e3":
        "590a4fd3f68e77ec3b18914c2d5f2f4f453b62f6bdbf3c50193f34a22e8a68f1",
    "sampler-uniform-1e7":
        "12b75a78778bca1d68c1ef7a7a9dfaf0ec956c65603897c7faa538f0bd037de6",
    "sampler-weighted-2":
        "311b4a28ce451726742b0c3b3ee68138222e71ff413df4636c8b333b0731fe19",
    "sampler-weighted-4":
        "4afec96dfa1295fcea078327ecf048674eb8b77b8248332cfbf46844d7582aff",
    "sampler-weighted-powerlaw":
        "ea4adf114032463233f8e8b528f3ba8dfea3817ab15725e849270bc412d289d8",
    "sampler-graph-ring":
        "b22eaf85e9547596cdc48d744dfc05d1d350af61ea51015f33a148825fab25a9",
    "sampler-graph-powerlaw":
        "f3f88091eb71ac8070c82c09b9b87ec76fa531943deae28264dc5d3c5c742341",
    "agent-seed-table":
        "48b26084436a5833b0bd618cf037f3d3602a8dc9811b8d30d4df39bbcd1c1d85",
    "agent-uniform-table":
        "48b26084436a5833b0bd618cf037f3d3602a8dc9811b8d30d4df39bbcd1c1d85",
    "agent-uniform-table-kernel":
        "48b26084436a5833b0bd618cf037f3d3602a8dc9811b8d30d4df39bbcd1c1d85",
    "agent-uniform-imitation":
        "4056ceb228f03287d9b2cbb73b7be49e10389615a09140b8c621713d7dd732bc",
    "agent-weighted-table":
        "b4b5ac2537f833ed59ff50046337d399b906ed283c2e63c16adfe7567921a308",
    "agent-weighted-table-kernel":
        "b4b5ac2537f833ed59ff50046337d399b906ed283c2e63c16adfe7567921a308",
    "agent-weighted-imitation":
        "186e3ed96e618079becc9eea525eaa09ef5d65c03b4f3037eb8fab567cc76b00",
    "agent-graph-table":
        "4dac8c7bb0a922ab20d2686a8ef2e0dcb23842bcaad165285fb4f952321af3d7",
    "agent-graph-table-kernel":
        "4dac8c7bb0a922ab20d2686a8ef2e0dcb23842bcaad165285fb4f952321af3d7",
    "agent-graph-imitation":
        "486d0c6766e26d5eaecccf12967a92f5ed30d07765e8a3319bd7c330b80f69b1",
    "game-uniform-best_response":
        "9936c560da3cb5cace4718b825b60b732cabebdc9bffd74ee2cdee45b326ef60",
    "game-uniform-imitation":
        "45ddc07e3708ae41976e0f6cd9dec3475fe2a178e126f638ef04ac6f4d2eb6c0",
    "game-weighted-best_response":
        "3e00e5d7921b00fac9815dd5768fb15b83acfcfa8b368fcc2dd2571886722fc1",
    "game-weighted-imitation":
        "6c299b6baff508d5515ec0860ce000fe568232e3260c3a00fa3d91cc8d7dd2d7",
    "game-graph-best_response":
        "41ea3cf4dee46d016fd1a26ec719ae254738d62e78936ec2a7d9482589e9cc44",
    "game-graph-imitation":
        "37e8909e42e3eeed852edcf82b69f124b45053ede33dcea7925eb194f6298314",
    "igt-action-uniform":
        "54ce60904f73c19e3ea5f50f2913590c592532d598b1947c021143c1c7a134fb",
    "igt-action-weighted":
        "52f56e3e7e3d39e266f5fd6882d6f22bf8d7f5a3a4ede3f1385cd9821e1e4317",
    "igt-action-graph":
        "879811a834962d11320ea552aa875b8eed1307f7482eb4d49f5cdf7a2ff93579",
}


def absorb_array(digest, array) -> None:
    digest.update(np.asarray(array, dtype=np.int64).tobytes())


def absorb_state(digest, rng) -> None:
    digest.update(json.dumps(rng.bit_generator.state,
                             sort_keys=True).encode())


def block_stream(digest, sampler) -> None:
    """``pair_block`` and ``others_block`` draws over assorted sizes."""
    n = sampler.n
    for size in (1, 5, 257, 1):
        first, second = sampler.pair_block(size)
        absorb_array(digest, first)
        absorb_array(digest, second)
    for first in ([0], [n - 1], np.arange(min(n, 40)),
                  np.arange(300) % n):
        absorb_array(digest, sampler.others_block(first))


def scheduler_digest(law: str) -> str:
    digest = hashlib.sha256()
    scheduler = LAWS[law][0](SEED)
    for _ in range(500):
        absorb_array(digest, scheduler.next_pair())
    block_stream(digest, scheduler)
    for _ in range(100):
        absorb_array(digest, scheduler.next_pair())
    absorb_state(digest, scheduler.rng)
    return digest.hexdigest()


def sampler_digest(law: str) -> str:
    digest = hashlib.sha256()
    rng = np.random.default_rng(SEED)
    sampler = LAWS[law][1](rng)
    assert sampler.rng is rng
    block_stream(digest, sampler)
    absorb_state(digest, rng)
    return digest.hexdigest()


def absorb_result(digest, engine, result) -> None:
    for step, counts in result.observations:
        digest.update(str(int(step)).encode())
        absorb_array(digest, counts)
    digest.update(f"{result.steps}:{result.converged}".encode())
    absorb_array(digest, result.counts)
    absorb_array(digest, engine.states)
    absorb_state(digest, engine.scheduler.rng)


def agent_digest(law: str, model_name: str, vectorized) -> str:
    digest = hashlib.sha256()
    if model_name == "table":
        model = igt_model(4)
    else:
        model = ImitationModel(RPS)
    states = np.arange(N_AGENTS) % model.n_states
    if law == "seed":
        engine = AgentBackend(model, states, seed=SEED,
                              vectorized=vectorized)
    else:
        engine = AgentBackend(model, states,
                              scheduler=agent_scheduler(law, SEED),
                              vectorized=vectorized)
    absorb_result(digest, engine, engine.run(3_000, observe_every=97))
    absorb_result(digest, engine, engine.run(2_000, observe_every=50))
    return digest.hexdigest()


def game_digest(law: str, rule: str) -> str:
    digest = hashlib.sha256()
    sim = PopulationGameSimulation(hawk_dove_game(2.0, 4.0), N_AGENTS,
                                   rule=rule, seed=SEED,
                                   **FACADE_LAWS[law])
    for step in range(1, 1_501):
        sim.step()
        if step % 100 == 0:
            absorb_array(digest, sim.counts)
    absorb_array(digest, sim.strategies)
    absorb_state(digest, sim._rng)
    return digest.hexdigest()


def igt_digest(law: str) -> str:
    digest = hashlib.sha256()
    sim = IGTSimulation(
        n=N_AGENTS, shares=PopulationShares(alpha=0.3, beta=0.2, gamma=0.5),
        grid=GenerosityGrid(k=3, g_max=0.6), seed=SEED, mode="action",
        setting=RDSetting(b=4.0, c=1.0, delta=0.7, s1=0.5),
        track_payoffs=True, **FACADE_LAWS[law])
    for step in range(1, 401):
        sim.step()
        if step % 50 == 0:
            absorb_array(digest, sim.counts)
    absorb_array(digest, sim.indices)
    absorb_array(digest, sim.interactions_played)
    digest.update(np.asarray(sim.total_payoffs, dtype=float).tobytes())
    absorb_state(digest, sim._rng)
    return digest.hexdigest()


@pytest.mark.parametrize("law", sorted(LAWS))
def test_scheduler_bitstream_is_pinned(law):
    assert scheduler_digest(law) == GOLDEN[f"scheduler-{law}"]


@pytest.mark.parametrize("law", sorted(LAWS))
def test_sampler_bitstream_is_pinned(law):
    assert sampler_digest(law) == GOLDEN[f"sampler-{law}"]


AGENT_CASES = [("seed", "table", None)] + [
    (law, model_name, vectorized)
    for law in ("uniform", "weighted", "graph")
    for model_name, vectorized in (("table", False), ("table", True),
                                   ("imitation", None))]


def agent_case_id(case) -> str:
    law, model_name, vectorized = case
    return f"{law}-{model_name}" + ("-kernel" if vectorized else "")


@pytest.mark.parametrize("case", AGENT_CASES, ids=agent_case_id)
def test_agent_backend_bitstream_is_pinned(case):
    assert agent_digest(*case) == GOLDEN[f"agent-{agent_case_id(case)}"]


@pytest.mark.parametrize("rule", ["best_response", "imitation"])
@pytest.mark.parametrize("law", sorted(FACADE_LAWS))
def test_game_step_bitstream_is_pinned(law, rule):
    assert game_digest(law, rule) == GOLDEN[f"game-{law}-{rule}"]


@pytest.mark.parametrize("law", sorted(FACADE_LAWS))
def test_igt_action_step_bitstream_is_pinned(law):
    assert igt_digest(law) == GOLDEN[f"igt-action-{law}"]
