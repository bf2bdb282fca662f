"""Golden bitstream digests of the count-level chains.

The law suites (``test_weighted_birthday.py``, the exact-chain property
tests) prove that every count-level execution path samples the right
*distribution*; they do not notice a change that keeps the law but
moves a single draw.  This file pins the draws themselves: for each
path of :class:`~repro.engine.count.CountBackend` and
:class:`~repro.engine.weighted.WeightedCountBackend` — array proxy and
birthday batching — it hashes

* every observation ``(step, counts)`` and every stop-predicate argument,
* the final counts (and class-state counts on the weighted lift),
* the executed pair counts,
* the final generator state,

over a fixed schedule that exercises the batch driver's whole surface:
an observation cadence, a stop cadence whose early stop fires inside a
batch (and rewinds the pair counts), and a ``snapshot()`` → fresh engine
→ ``restore()`` handover mid-run.  A refactor of the engines must leave
every digest unchanged; a deliberate bitstream change must bump
``CODE_EPOCH`` and re-pin them.

NumPy's ``Generator`` methods may change their streams between feature
releases, so the digests are pinned for one NumPy minor version and the
test is skipped under any other.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.engine import (
    CountBackend,
    ImitationModel,
    WeightedCountBackend,
    igt_model,
)

#: NumPy minor version the digests below were recorded under.
PINNED_NUMPY = "2.4"

pytestmark = pytest.mark.skipif(
    ".".join(np.__version__.split(".")[:2]) != PINNED_NUMPY,
    reason=f"digests pinned under NumPy {PINNED_NUMPY}.x")

#: Rock-paper-scissors-like payoffs for the 4-slot imitation rule.
RPS = np.array([[1.0, 0.0, 2.0], [2.0, 1.0, 0.0], [0.0, 2.0, 1.0]])

MODELS = {
    "table": lambda: igt_model(4),
    "mixture": lambda: igt_model(4, observation_noise=0.05),
    "imitation": lambda: ImitationModel(RPS),
}

#: (law, proxy) -> population size.  Proxy runs stay small; birthday
#: runs use a population whose batches span many stop checks.
PATHS = {
    ("count", True): 2_000,
    ("count", False): 20_000,
    ("weighted", True): 2_000,
    ("weighted", False): 20_000,
}

GOLDEN = {
    "count-proxy-table":
        "3b090e6789a72859de8f15397c97d7c983230b883fc50b0cec4fed92ef05cd03",
    "count-proxy-mixture":
        "bafc3891c9add755a45f236cc74357fb5eb928fcf42ee138f8a19940a63ce36b",
    "count-birthday-table":
        "63beff5842bba838bc6e5b351f592e79bcec51b142ec0c8c030de8fecf914b02",
    "count-birthday-mixture":
        "5e6121780c5334974f3cc9ee4d4598a644d2b3a20b4d78c9b76ee1dbd75040d1",
    "count-birthday-imitation":
        "329d051d9ba258692b6f2c612dd988b37752cf23dad99a7991836f431d5187bd",
    "weighted-proxy-table":
        "4a54e0a82ba009ee7ae71c21fc056cca6a5493f95288f5647a8d3380e61b5d3b",
    "weighted-proxy-mixture":
        "880104d9dd4060f7cf88f7839489107f11c80f4155382e62788c8c51f99a4427",
    "weighted-proxy-imitation":
        "c8b9af91809b17e6943ce70d4bcd86713e38547b95d0f7fb1157b83f0b376812",
    "weighted-birthday-table":
        "e731916e0cfad06e62eaaf64d355271f5582d563e3d77dc53954b1cbfe4343ff",
    "weighted-birthday-mixture":
        "2ef5021eb0810e9add6681374ea14bb130cb9dcf15b3e25946e8985b7ea42e0d",
    "weighted-birthday-imitation":
        "69e5eb877198d6f748c8bdaecce22f6ea6668cf7f6cd4c4b2c881401761fc752",
}


def spread(n: int, s: int) -> np.ndarray:
    counts = np.full(s, n // s, dtype=np.int64)
    counts[0] += n - counts.sum()
    return counts


def build(law: str, proxy: bool, model_name: str, seed: int):
    model = MODELS[model_name]()
    n = PATHS[law, proxy]
    s = model.n_states
    if law == "count":
        return CountBackend(model, spread(n, s), seed=seed,
                            track_pair_counts=True, vectorized=proxy)
    class_counts = np.stack([spread(n // 4, s), spread(n - n // 4, s)])
    return WeightedCountBackend(model, class_counts, [1.0, 3.0], seed=seed,
                                track_pair_counts=True, vectorized=proxy)


def stop_after(checks: int, digest):
    """A predicate that records its argument and fires on call ``checks``."""
    calls = [0]

    def stop_when(counts) -> bool:
        calls[0] += 1
        digest.update(np.asarray(counts, dtype=np.int64).tobytes())
        return calls[0] >= checks

    return stop_when


def absorb(digest, engine, result) -> None:
    for step, counts in result.observations:
        digest.update(str(int(step)).encode())
        digest.update(np.asarray(counts, dtype=np.int64).tobytes())
    digest.update(f"{result.steps}:{result.converged}".encode())
    digest.update(np.asarray(result.counts, dtype=np.int64).tobytes())
    digest.update(np.asarray(engine.pair_counts, dtype=np.int64).tobytes())
    if isinstance(engine, WeightedCountBackend):
        digest.update(engine.class_state_counts.astype(np.int64).tobytes())
    digest.update(json.dumps(engine.rng.bit_generator.state,
                             sort_keys=True).encode())


def chain_digest(law: str, proxy: bool, model_name: str) -> str:
    digest = hashlib.sha256()
    engine = build(law, proxy, model_name, seed=20240617)
    first = engine.run(30_000, stop_when=stop_after(40, digest),
                       observe_every=97, check_stop_every=7)
    assert first.converged and first.steps % 7 == 0
    absorb(digest, engine, first)
    resumed = build(law, proxy, model_name, seed=1)
    resumed.restore(engine.snapshot())
    second = resumed.run(40_000, stop_when=stop_after(10**9, digest),
                         observe_every=1_001, check_stop_every=13)
    assert not second.converged
    absorb(digest, resumed, second)
    third = resumed.run(25_000, stop_when=stop_after(60, digest),
                        observe_every=500, check_stop_every=3)
    assert third.converged
    absorb(digest, resumed, third)
    absorb(digest, resumed, resumed.run(10_000))
    return digest.hexdigest()


CASES = [(law, proxy, model_name)
         for (law, proxy) in PATHS for model_name in MODELS
         # The uniform proxy kernel runs 2-slot models only.
         if not (law == "count" and proxy and model_name == "imitation")]


def case_id(case) -> str:
    law, proxy, model_name = case
    return f"{law}-{'proxy' if proxy else 'birthday'}-{model_name}"


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_count_chain_bitstream_is_pinned(case):
    assert chain_digest(*case) == GOLDEN[case_id(case)]

