"""E6 — Proposition 2.8: the average stationary generosity.

Compares three values of ``ẽg`` across a ``(k, β)`` sweep including the
``β = 1/2`` special case: the literal closed form, the direct expectation
``Σ_j g_j p_j``, and the ergodic average of the agent-level simulation's
average generosity after burn-in.

The ``weights`` parameter adds a **heterogeneous-activity variant**
(``--set weights=powerlaw`` / ``twoclass:4``): pairs are scheduled
weight-proportionally (:class:`~repro.engine.sampling
.WeightedPairSampler`), and the theory column generalizes — each GTFT
agent ``i`` performs a lazy ±1 walk whose bias is the *weight share* of
AD among the other agents, ``λ_i = (W − w_i − W_AD)/W_AD``, so the
stationary average generosity is the GTFT-population mean of the
Proposition 2.8 value at ``β_i = W_AD/(W − w_i)``.  Uniform weights
recover the paper's formula exactly; the check that simulation matches
this weighted theory is precisely the scheduler-robustness claim of the
heterogeneous extension.

The ``topology`` parameter adds the **graph-restricted variant**
(``--set topology=ring`` / ``grid`` / ``smallworld:0.1``): pairs are
drawn uniformly from the directed edges of an interaction graph
(:class:`~repro.engine.topology.GraphPairSampler`), and the theory
column becomes the exact *quenched per-vertex* generalization — GTFT
agent ``i``'s walk moves down exactly when its sampled neighbor is AD,
so its bias is ``β_i = (#AD neighbors of i) / deg(i)`` and the
stationary average generosity is the GTFT mean of the Proposition 2.8
value at ``β_i`` (with ``β_i = 0`` pinning the agent at ``ĝ`` and
``β_i = 1`` at ``0``).  The per-agent walks are independent because
types are static and a GTFT partner reads as "not AD" regardless of its
index, so this theory is exact, not mean-field — the gap between it and
the complete-graph value *is* the topology sensitivity measured here.
On the complete graph every ``β_i = n_AD/(n−1)`` and the paper's
formula returns exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.generosity import (
    average_stationary_generosity,
    generosity_closed_form,
)
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.core.theory import igt_mixing_upper_bound
from repro.engine import topology_from_spec, weights_from_spec
from repro.experiments.base import ExperimentReport, register
from repro.params import Param, ParamSpace
from repro.utils import as_generator

#: The (n, beta, k) case grids of the sweep.
_CASE_GRIDS = {
    "small": [(200, 0.2, 3), (200, 0.5, 4), (200, 0.7, 3)],
    "large": [(400, 0.1, 4), (400, 0.2, 6), (400, 0.35, 8), (400, 0.5, 4),
              (400, 0.65, 6), (400, 0.8, 4)],
}

PARAMS = ParamSpace(
    Param("cases", "str", "small", choices=("small", "large"),
          help="(n, beta, k) case grid to validate"),
    Param("samples", "int", 150, minimum=10,
          help="ergodic-average samples per case after burn-in"),
    Param("g_max", "float", 0.5, minimum=1e-9, maximum=1.0,
          help="maximum generosity value"),
    Param("tol", "float", 0.03, minimum=1e-6, maximum=1.0,
          help="tolerance for |simulated - theory|"),
    Param("weights", "str", "uniform",
          help="activity-weight spec: uniform, powerlaw[:alpha], or "
               "twoclass[:ratio] — heterogeneous contact processes"),
    Param("topology", "str", "complete",
          help="interaction-graph spec: complete, ring[:w], grid[:rows], "
               "smallworld[:p], or powerlaw[:alpha] — graph-restricted "
               "scheduling (mutually exclusive with weights != uniform)"),
    profiles={"full": {"cases": "large", "samples": 400, "tol": 0.02}},
)


def _weighted_theory(weights: np.ndarray, shares: PopulationShares,
                     n: int, k: int, g_max: float) -> float:
    """Stationary average generosity under activity weights.

    Each GTFT agent's walk bias depends on the AD *weight share* among
    the other agents (see the module docstring); the population value is
    the mean of the per-agent Proposition 2.8 expectations.
    """
    n_ac, n_ad, _ = shares.agent_counts(n)
    total_weight = float(weights.sum())
    ad_weight = float(weights[n_ac:n_ac + n_ad].sum())
    gtft_weights = weights[n_ac + n_ad:]
    betas = ad_weight / (total_weight - gtft_weights)
    return float(np.mean([average_stationary_generosity(k, beta, g_max)
                          for beta in betas]))


def per_vertex_quenched_values(graph, shares: PopulationShares, n: int,
                               k: int, g_max: float) -> np.ndarray:
    """Exact stationary generosity of each GTFT vertex on a graph.

    GTFT agent ``i``'s walk bias is ``β_i = #AD neighbors / deg(i)``
    (agents are laid out in vertex order ``[AC, AD, GTFT]``, so the AD
    vertices are ``n_ac .. n_ac + n_ad − 1``); returns the per-agent
    Proposition 2.8 expectation for the GTFT vertices
    ``n_ac + n_ad .. n − 1``, in vertex order, with the degenerate
    biases resolved exactly: ``β_i = 0`` pins the walk at the top of
    the grid (value ``ĝ``), ``β_i = 1`` at the bottom (value 0).

    This per-vertex law is what the
    :class:`~repro.engine.observe.DegreeProfileReducer` validation
    aggregates by degree class — the quenched theory predicts not just
    the population mean but the whole degree-resolved profile.
    """
    n_ac, n_ad, _ = shares.agent_counts(n)
    values = []
    for vertex in range(n_ac + n_ad, n):
        neighbors = graph.neighbors(vertex)
        ad_neighbors = int(np.count_nonzero(
            (neighbors >= n_ac) & (neighbors < n_ac + n_ad)))
        beta_i = ad_neighbors / neighbors.size
        if beta_i == 0.0:
            values.append(g_max)
        elif beta_i == 1.0:
            values.append(0.0)
        else:
            values.append(average_stationary_generosity(k, beta_i, g_max))
    return np.asarray(values, dtype=np.float64)


def _graph_theory(graph, shares: PopulationShares, n: int, k: int,
                  g_max: float) -> float:
    """Exact quenched stationary average generosity on a graph: the
    GTFT mean of :func:`per_vertex_quenched_values`."""
    return float(per_vertex_quenched_values(graph, shares, n, k,
                                            g_max).mean())


def _simulated_generosity(n, beta, k, g_max, seed, budget_multiplier=2.0,
                          samples=200, backend="auto",
                          weights=None, topology=None) -> float:
    """Time-averaged average generosity after a mixing-bound burn-in.

    ``backend`` may be ``"auto"``: the generosity observable is count
    level, so either engine serves it; the dispatcher picks by ``n``.
    With ``weights``, the burn-in budget is stretched by the activity
    ratio of the least-active agents (they update that much more
    rarely).  With ``topology``, the agent backend is pinned: the theory
    column is the *quenched* per-vertex law, which only the per-agent
    engine simulates (a count run on a vertex-transitive graph would be
    the annealed chain — a different stationary value, and exactly the
    gap this variant exists to expose).
    """
    alpha = (1.0 - beta) / 2.0
    shares = PopulationShares(alpha=alpha, beta=beta,
                              gamma=1.0 - alpha - beta)
    grid = GenerosityGrid(k=k, g_max=g_max)
    if weights is not None:
        # Slowest agents initiate at rate w_min/W instead of 1/n.
        budget_multiplier *= float(weights.sum()
                                   / (n * weights.min()))
    if topology is not None:
        backend = "agent"
    sim = IGTSimulation(n=n, shares=shares, grid=grid, seed=seed,
                        backend=backend, weights=weights,
                        topology=topology)
    burn_in = int(budget_multiplier * igt_mixing_upper_bound(k, shares, n))
    sim.run(burn_in)
    thin = max(n // 2, 1)
    values = np.empty(samples)
    for i in range(samples):
        sim.run(thin)
        values[i] = sim.average_generosity()
    return float(values.mean())


@register("E6", "Proposition 2.8 — average stationary generosity",
          params=PARAMS)
def run(params=None, seed=12345, backend: str = "auto") -> ExperimentReport:
    """Closed form vs direct expectation vs engine-level simulation."""
    params = PARAMS.resolve() if params is None else params
    rng = as_generator(seed)
    g_max = params["g_max"]
    cases = _CASE_GRIDS[params["cases"]]
    samples = params["samples"]
    weights_spec = params.get("weights", "uniform")
    topology_spec = params.get("topology", "complete")

    rows = []
    worst_formula_gap = 0.0
    worst_sim_gap = 0.0
    for n, beta, k in cases:
        closed = generosity_closed_form(k, beta, g_max)
        direct = average_stationary_generosity(k, beta, g_max)
        weights = weights_from_spec(weights_spec, n)
        graph = topology_from_spec(topology_spec, n)
        alpha = (1.0 - beta) / 2.0
        shares = PopulationShares(alpha=alpha, beta=beta,
                                  gamma=1.0 - alpha - beta)
        if graph is not None:
            # Quenched per-vertex theory (exact, not mean-field); the
            # weights/topology mutual exclusion is enforced by the
            # facade, so weights is None on this branch.
            theory = _graph_theory(graph, shares, n, k, g_max)
        elif weights is None:
            theory = direct
        else:
            theory = _weighted_theory(weights, shares, n, k, g_max)
        simulated = _simulated_generosity(n, beta, k, g_max, seed=rng,
                                          samples=samples, backend=backend,
                                          weights=weights, topology=graph)
        # The finite-n scheduler shifts lambda slightly; compare against the
        # exact-embedding direct value too.
        worst_formula_gap = max(worst_formula_gap, abs(closed - direct))
        worst_sim_gap = max(worst_sim_gap, abs(simulated - theory))
        rows.append([n, beta, k, weights_spec, topology_spec,
                     f"{closed:.5f}", f"{theory:.5f}", f"{simulated:.5f}",
                     f"{abs(simulated - theory):.5f}"])

    tol = params["tol"]
    checks = {
        "closed form equals direct expectation (<1e-10)":
            worst_formula_gap < 1e-10,
        f"simulated generosity within {tol} of theory "
        f"(weights={weights_spec}, topology={topology_spec})":
            worst_sim_gap < tol,
        "beta = 1/2 gives g_max/2":
            abs(generosity_closed_form(4, 0.5, g_max) - g_max / 2) < 1e-12,
    }
    return ExperimentReport(
        experiment_id="E6",
        title="Proposition 2.8 — average stationary generosity",
        claim=("The stationary average generosity equals the closed form "
               "g_max*(lambda^k/(lambda^k-1) - (1/(k-1))(lambda/(lambda-1))"
               "((lambda^{k-1}-1)/(lambda^k-1))), with g_max/2 at beta=1/2 "
               "— and, under heterogeneous activity weights or a "
               "graph-restricted scheduler, its per-agent "
               "generalizations (weight-share and AD-neighbor-share "
               "biases respectively)."),
        headers=["n", "beta", "k", "weights", "topology", "closed form",
                 "theory", "simulated", "|sim - theory|"],
        rows=rows,
        checks=checks,
        notes=["simulated value is an ergodic (time) average after a "
               "2x-mixing-bound burn-in; finite-n lambda bias is within the "
               "stated tolerance for these n",
               "weights != uniform compares against the weighted theory: "
               "the per-GTFT-agent walk bias is the AD weight share among "
               "the other agents (module docstring)",
               "topology != complete compares against the exact quenched "
               "theory: GTFT agent i's walk bias is its AD-neighbor "
               "fraction beta_i = #AD-neighbors/deg(i), simulated on the "
               "agent backend (the quenched process)"],
    )
