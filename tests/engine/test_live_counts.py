"""Stop predicates see the live counts on every engine path.

Facade predicates such as ``lambda _: sim.average_generosity() > x`` read
the engine's :attr:`counts_live` (through the facade) instead of their
argument, so at every stop check the live array must already hold the
counts the predicate is evaluated on — never counts from later in the
batch.  And when no stop fires, materializing the checkpoints must leave
the end-of-run counts exactly where an unchecked run leaves them.
"""

import numpy as np
import pytest

from repro.engine import (
    AgentBackend,
    CountBackend,
    WeightedCountBackend,
    igt_model,
)

N = 20_000
STEPS = 30_000


def build(path: str, seed: int):
    model = igt_model(4)
    counts = np.full(model.n_states, N // model.n_states, dtype=np.int64)
    counts[0] += N - counts.sum()
    if path == "agent":
        return AgentBackend(model, np.repeat(np.arange(model.n_states),
                                             counts), seed=seed)
    proxy = path.endswith("proxy")
    if path.startswith("count"):
        return CountBackend(model, counts, seed=seed, vectorized=proxy)
    halves = np.stack([counts // 2, counts - counts // 2])
    return WeightedCountBackend(model, halves, [1.0, 2.0], seed=seed,
                                vectorized=proxy)


PATHS = ["agent", "count-proxy", "count-birthday", "weighted-proxy",
         "weighted-birthday"]


@pytest.mark.parametrize("path", PATHS)
def test_predicate_argument_is_the_live_count_vector(path):
    engine = build(path, seed=11)
    checks = []

    def stop_when(counts) -> bool:
        checks.append(np.array_equal(engine.counts_live, counts))
        return False

    result = engine.run(STEPS, stop_when=stop_when, check_stop_every=7)
    assert len(checks) == STEPS // 7 + 1
    assert all(checks)
    # No stop fired: the run ends exactly where an unchecked run ends.
    unchecked = build(path, seed=11).run(STEPS)
    np.testing.assert_array_equal(result.counts, unchecked.counts)
    np.testing.assert_array_equal(engine.counts_live, unchecked.counts)

