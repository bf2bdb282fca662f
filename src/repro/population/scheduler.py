"""Pairwise interaction schedulers.

At every time step an *ordered* pair of distinct agents (initiator,
responder) is sampled — uniformly at random from the ``n(n−1)``
possibilities by :class:`RandomScheduler` (the standard probabilistic
scheduler of the population-protocol literature and the source of all
randomness in the paper's dynamics), proportionally to per-agent
activity weights by :class:`WeightedScheduler` (the heterogeneous-contact
robustness extension), or uniformly over the directed edges of an
interaction graph by :class:`GraphScheduler` (the graph-restricted
family).

Each name is the engine's one class for its law —
:class:`~repro.engine.sampling.UniformPairSampler`,
:class:`~repro.engine.sampling.WeightedPairSampler` and
:class:`~repro.engine.topology.GraphPairSampler` — so the scalar
``next_pair`` and the engines' block draws are one implementation.
The capability attributes the engine surfaces read (``weights``,
``others_block``, ``topology``) are documented in
:mod:`repro.engine.sampling`.
"""

from __future__ import annotations

from repro.engine.sampling import (
    UniformPairSampler,
    WeightedPairSampler,
    ordered_pair_block,
)
from repro.engine.topology import GraphPairSampler

RandomScheduler = UniformPairSampler
WeightedScheduler = WeightedPairSampler
GraphScheduler = GraphPairSampler

__all__ = [
    "ordered_pair_block",
    "RandomScheduler",
    "WeightedScheduler",
    "GraphScheduler",
]
