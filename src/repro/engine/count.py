"""Exact count-level simulation backend.

Under the uniform scheduler the state-count vector is itself a Markov chain
(the paper's Section 2.2.1 embedding: transition probabilities depend on
the sampled agents only through their states), so the dynamics can be
simulated on counts alone — with *exactly* the same law as the per-agent
chain — in vectorized batches.  That removes the per-agent memory and the
Python-per-interaction cost and makes populations of ``n = 10^7`` and
beyond practical.

The batching scheme ("birthday runs")
-------------------------------------

Sampling agents uniformly, the first ``j`` interactions of a batch involve
``slots_per_step·j`` *distinct* agents with probability given by a
birthday-problem product that depends only on ``n`` — not on the counts.
The backend therefore repeats:

1. Draw the number ``T`` of leading interactions whose participants are all
   distinct — one uniform plus a ``searchsorted`` into a precomputed
   collision-time CDF (cached per ``(n, slots_per_step)``).
2. Process those ``T`` interactions *in one vectorized shot*: the
   participants are distinct, hence their states are a without-replacement
   sample from the count vector (``multivariate_hypergeometric`` + one
   shuffle), the model outcome is applied per type-pair, and the count
   vector is updated by four ``bincount`` deltas.  Because the agents are
   distinct, the interactions commute and the resulting counts equal those
   of sequential execution.
3. Resolve the single *collision* interaction that ends the run exactly:
   its repeated participants' current states are read off the run's
   recorded outcomes, fresh participants are drawn from the untouched
   remainder, with the repeat/fresh pattern sampled from its exact
   conditional law.  Then all bookkeeping is merged and a new run starts.

Every draw above is from the true process law — no approximation is made —
so trajectories are distribution-identical to the agent backend (property
tests check this against the exact chains in :mod:`repro.markov`).  The
expected run length is ``Θ(√n)`` interactions, which is also the speedup
scale over per-interaction simulation.

Observation / stop-check boundaries do **not** split batches: a clean run
records every participant's pre- and post-interaction state, so the exact
count vector at any interior step is a prefix sum over those slots.
Snapshots for ``observe_every`` and predicate evaluations for
``check_stop_every`` are materialized from those prefix sums mid-batch,
and an early stop rewinds the counts to the firing checkpoint and discards
the batch remainder (exact: the next batch re-samples the discarded future
from the process law, which is Markov in the counts).  Observed or
stop-checked runs therefore keep near-unobserved throughput even at
``check_stop_every=1``, which previously forced one-interaction batches.

The proxy fast path (small and medium ``n``)
--------------------------------------------

Birthday runs are ``Θ(√n)`` interactions, so their fixed per-run cost
dominates at small ``n`` — the regime where the count backend used to
*lose* to the agent backend.  For ``n`` up to :data:`PROXY_MAX_N` (and
pairwise models the vectorized kernel accepts) the backend therefore
expands the count vector into an arbitrary fixed per-agent state array
and runs the :mod:`repro.engine.vectorized` kernel on it: by
exchangeability, uniform pair sampling over *any* fixed assignment of
states to agents projects to exactly the count-level chain, so the law
is untouched while throughput matches the vectorized agent backend
(tens of millions of interactions/s instead of ~0.5M at ``n = 10^3``).
The per-agent array stays internal — :attr:`CountBackend.states` is
still ``None`` — and the ``O(n)`` memory is only paid where it is
trivially affordable; beyond :data:`PROXY_MAX_N` the ``O(k)``-memory
birthday path wins anyway.

Per-type-pair accounting (count-level ``mode="action"``)
--------------------------------------------------------

With ``track_pair_counts=True`` both paths accumulate the ``(S, S)``
matrix of executed interactions per ordered state pair (rewound exactly
on early stops).  Facades turn that matrix into payoff observables —
``IGTSimulation`` multiplies it against the exact expected-payoff table,
which is how payoff and tournament experiments run count-level at large
``n`` without per-agent arrays.

One driver, two window laws
---------------------------

Only step 1 (how a window is drawn) and step 3 (how its collision is
resolved) depend on *how* agents are sampled.  Everything else — ``run``,
the checkpoint prefix sums and early-stop rewind, the clean run, the
snapshots and the pair-count accounting — exists once, on the private
``_CountChain`` base, over chain counts indexed by ``class·S + state``.
:class:`CountBackend` is the uniform window law (one class; the cached
CDF above), :class:`~repro.engine.weighted.WeightedCountBackend` the
heterogeneous one (weight classes; an alias-drawn class sequence and a
survival cumprod per window).
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.base import BLOCK_SIZE, EngineResult, SimulationEngine
from repro.engine.model import InteractionModel
from repro.engine.observe import ObserverSink
from repro.engine.sampling import ordered_pair_block
from repro.engine.vectorized import ConflictFreeKernel, run_kernel
from repro.utils import as_generator
from repro.utils.errors import InvalidParameterError

#: Largest population the array-proxy fast path is used for (beyond it
#: the birthday path is faster *and* O(k) memory starts to matter).
PROXY_MAX_N = 1_000_000

#: Collision-time CDFs keyed by ``(n, slots_per_step)``.
_CDF_CACHE: dict[tuple[int, int], np.ndarray] = {}

#: Truncate the collision-time table once the survival probability of a
#: longer all-distinct run drops below this (the remainder is handled
#: exactly by capping runs at the table length).
_SURVIVAL_FLOOR = 1e-15

#: numpy's ``multivariate_hypergeometric`` (default ``method=
#: "marginals"``) raises for totals at or above this, and its
#: ``method="count"`` costs O(total) time and memory — populations past
#: the ceiling use the exact distinct-index fallback instead.
_MARGINALS_MAX_TOTAL = 10**9


def sample_without_replacement(rng, counts, n_slots: int) -> np.ndarray:
    """Exact multivariate-hypergeometric draw at any population size.

    Below numpy's ``method="marginals"`` ceiling this *is* numpy's
    sampler, bitstream-identical to calling it directly.  At or above
    :data:`_MARGINALS_MAX_TOTAL` — where numpy refuses — the draw is
    performed as ``n_slots`` *distinct* uniform indices in
    ``[0, total)`` (iid draws with duplicate rejection, which is
    exactly the uniform-subset law) mapped to states through the count
    prefix sums.  Totals are handled as Python ints and ``int64``
    indices throughout, so the arithmetic is exact up to ``2^63 - 1``
    agents; expected rejection overhead is ``O(n_slots^2 / total)``
    redraws — negligible in the birthday regime ``n_slots = O(√n)``.
    """
    total = int(counts.sum())
    if total < _MARGINALS_MAX_TOTAL:
        return rng.multivariate_hypergeometric(counts, n_slots)
    if n_slots > total:
        raise InvalidParameterError(
            f"cannot draw {n_slots} distinct agents from {total}")
    bounds = np.cumsum(counts)
    chosen = np.empty(0, dtype=np.int64)
    need = int(n_slots)
    while need:
        draw = rng.integers(0, total, size=need, dtype=np.int64)
        chosen = np.unique(np.concatenate((chosen, draw)))
        need = int(n_slots) - chosen.size
    return np.bincount(bounds.searchsorted(chosen, side="right"),
                       minlength=len(counts))


def _collision_cdf(n: int, slots_per_step: int) -> np.ndarray:
    """CDF of the first-collision interaction index for population ``n``.

    Entry ``t`` is the probability that the first ``t`` interactions do
    *not* all involve distinct agents; ``1 − cdf[t]`` is the birthday
    survival product.  Depends only on ``(n, slots_per_step)`` and is
    cached.
    """
    key = (n, slots_per_step)
    cached = _CDF_CACHE.get(key)
    if cached is not None:
        return cached
    horizon = int(8.5 * math.sqrt(n) / slots_per_step) + 16
    horizon = min(horizon, n // slots_per_step + 1)
    t = np.arange(horizon, dtype=float)
    d = slots_per_step * t  # distinct agents before interaction t
    if slots_per_step == 2:
        factors = (n - d) * (n - d - 1) / (n * (n - 1.0))
    else:
        factors = ((n - d) * (n - d - 1) * (n - d - 2) * (n - d - 3)
                   / (n * (n - 1.0) ** 3))
    np.clip(factors, 0.0, 1.0, out=factors)
    survival = np.empty(horizon + 1)
    survival[0] = 1.0
    np.cumprod(factors, out=survival[1:])
    keep = np.nonzero(survival >= _SURVIVAL_FLOOR)[0]
    last = int(keep[-1]) + 1 if keep.size else 1
    cdf = 1.0 - survival[:last + 1]
    _CDF_CACHE[key] = cdf
    return cdf


def _cadence_offsets(done, every, limit) -> range:
    """Offsets ``j`` in ``[1, limit]`` with ``(done + j) % every == 0``.

    ``done`` counts interactions already executed by the enclosing ``run``
    call, so the returned offsets are the points inside the next ``limit``
    interactions that land on the run-relative cadence grid.
    """
    if every is None:
        return range(0)
    first = every - done % every
    return range(first, limit + 1, every)


class _ProjectingSink(ObserverSink):
    """Project chain ``(class x state)`` counts to inner counts on the
    way into the user's sink, preserving stream order.

    The proxy kernel observes chain counts; users observe inner state
    counts.  Projecting per emit (instead of post-hoc) keeps streaming
    and reducing sinks constant-memory on the weighted proxy path.
    """

    def __init__(self, inner: ObserverSink, project) -> None:
        self._inner = inner
        self._project = project

    def emit(self, step, counts, states=None) -> None:
        self._inner.emit(step, self._project(counts))


class _CountChain(SimulationEngine):
    """The count chain's one execution driver, shared by its window laws.

    The chain's state is :attr:`_chain`, counts over chain ids
    ``class·S + state``: one class for the uniform law (where it *is*
    the live :attr:`counts` array), ``C`` weight classes for the
    weighted lift (whose live counts are the projection onto the inner
    states).  The driver owns ``run`` — array-proxy kernel or birthday
    windows — batching across observation/stop checkpoints with the
    exact early-stop rewind, the per-class clean-run execution,
    snapshots, pair-count accounting, and the shared validation.  A law
    supplies how a window is drawn (:meth:`_draw_window`), how its
    collision interaction is resolved (:meth:`_run_collision`), its
    proxy kernel and pair source (``_pair_block`` / ``_others_block``),
    and its snapshot identity (``_KIND`` / :meth:`_shape`).
    """

    #: Snapshot ``kind`` of the law.
    _KIND: str
    _others_block = None

    def _init_chain(self, model: InteractionModel, counts,
                    track_pair_counts: bool) -> None:
        """Validate the population and set the state every law shares."""
        self.model = model
        if counts.min() < 0:
            raise InvalidParameterError("counts must be non-negative")
        self.n = int(counts.sum())
        if self.n < 2:
            raise InvalidParameterError(
                f"population must have at least 2 agents, got n={self.n}")
        self._spp = model.slots_per_step
        if self._spp not in (2, 4):
            raise InvalidParameterError(
                f"slots_per_step must be 2 or 4, got {self._spp}")
        if self._spp == 4 and self.n < 4:
            raise InvalidParameterError(
                "models observing extra agents need n >= 4 for an "
                "all-distinct interaction to exist")
        self._track_pairs = bool(track_pair_counts)
        # The birthday path's accumulator; the proxy kernel keeps its own.
        self._pair_counts = (np.zeros(model.n_states ** 2, dtype=np.int64)
                             if self._track_pairs else None)
        self._kernel = None
        self._state_ids = np.arange(model.n_states)
        self.steps_run = 0

    def _use_proxy(self, vectorized, proxy_ok: bool, max_n: int) -> bool:
        """Resolve the ``vectorized=`` knob against the law's kernel."""
        if vectorized is True and not proxy_ok:
            raise InvalidParameterError(
                "the proxy fast path needs a model the vectorized kernel "
                "accepts (component tables or a one-way law; the uniform "
                "chain's kernel is pairwise only)")
        if vectorized is None:
            return proxy_ok and self.n <= max_n
        return bool(vectorized)

    @property
    def rng(self) -> np.random.Generator:
        """The backend's generator."""
        return self._rng

    @property
    def pair_counts(self) -> np.ndarray:
        """Executed interactions per ordered inner-state pair, ``(S, S)``.

        Entry ``[u, v]`` counts interactions whose initiator was in state
        ``u`` and responder in state ``v`` *at execution time*.  The proxy
        kernel's chain-pair accumulator is contracted over both class
        axes.  Requires ``track_pair_counts=True``.
        """
        if not self._track_pairs:
            raise InvalidParameterError(
                "pair counts were not tracked; construct the backend with "
                "track_pair_counts=True")
        s = self.model.n_states
        if self._kernel is not None:
            c = self._chain.size // s
            product = self._kernel.pair_count_matrix().reshape(c, s, c, s)
            return product.sum(axis=(0, 2))
        return self._pair_counts.reshape(s, s).copy()

    def _project(self, chain) -> np.ndarray:
        """Inner-state counts of a chain count vector."""
        return chain.reshape(-1, self.model.n_states).sum(axis=0)

    def _live(self) -> np.ndarray:
        """The live inner counts, refreshed from the chain counts."""
        if self._chain is not self._counts:
            self._counts[:] = self._project(self._chain)
        return self._counts

    # ------------------------------------------------------------------
    # Snapshot / restore (the crash-safety contract; see engine.snapshot)
    # ------------------------------------------------------------------
    def _shape(self) -> dict:
        """Structural invariants a snapshot must match to restore here."""
        return {"n": int(self.n), "n_states": int(self.model.n_states)}

    def snapshot(self) -> "SnapshotState":
        """Exact mutable state between runs, for :meth:`restore`.

        The birthday path's mutable surface is the chain counts (plus the
        projected inner counts on the weighted lift), the step cursor,
        the generator position, and (when tracked) the pair-count
        accumulator — collision tables, class alias tables and window
        lengths are construction constants.  The proxy path additionally
        owns the internal per-agent state arrangement (identical index
        draws must hit identical states) and, for stochastic models, the
        kernel's peel stamps.
        """
        from repro.engine.snapshot import SnapshotState

        payload = self._shape()
        payload["proxy"] = self._kernel is not None
        payload["steps_run"] = int(self.steps_run)
        if self._chain is not self._counts:
            payload["product_counts"] = self._chain.copy()
        payload["counts"] = self._counts.copy()
        payload["rng"] = self._rng.bit_generator.state
        if self._kernel is not None:
            kernel = self._kernel
            payload["proxy_state"] = {
                "states": kernel.states.copy(),
                "pair_counts": (None if kernel.pair_counts is None
                                else kernel.pair_counts.copy()),
                "kernel": kernel.stamp_state(),
            }
        elif self._pair_counts is not None:
            payload["pair_counts"] = self._pair_counts.copy()
        return SnapshotState(kind=self._KIND, payload=payload)

    def restore(self, snapshot: "SnapshotState") -> None:
        """Adopt a snapshot taken by an identically constructed engine.

        All arrays are written *in place* — facades alias
        :attr:`counts_live` and the proxy kernel adopts both the chain
        count vector and its internal state array, so nothing may be
        reallocated.
        """
        from repro.engine.snapshot import check_snapshot, restore_rng

        payload = check_snapshot(snapshot, self._KIND, **self._shape(),
                                 proxy=self._kernel is not None)
        if self._chain is not self._counts:
            self._chain[:] = payload["product_counts"]
        self._counts[:] = payload["counts"]
        self.steps_run = int(payload["steps_run"])
        restore_rng(self._rng, payload["rng"])
        if self._kernel is not None:
            proxy = payload["proxy_state"]
            self._kernel.states[:] = proxy["states"]
            if self._kernel.pair_counts is not None:
                self._kernel.pair_counts[:] = proxy["pair_counts"]
            self._kernel.restore_stamps(proxy.get("kernel"))
        elif self._pair_counts is not None:
            self._pair_counts[:] = payload["pair_counts"]

    def run(self, max_steps: int, stop_when=None,
            observe_every: int | None = None,
            check_stop_every: int = 1, observe=None) -> EngineResult:
        (max_steps, observe_every, check_stop_every, sink,
         stopped) = self._prepare_run(max_steps, stop_when, observe_every,
                                      check_stop_every, observe)
        done = 0
        converged = stopped
        if not stopped and self._kernel is not None:
            kernel_stop, kernel_sink = stop_when, sink
            if self._chain is not self._counts:
                # The kernel runs on chain counts: project each
                # observation as it streams (constant-memory sinks never
                # see product series), and refresh the live inner counts
                # before the predicate runs, so predicates reading
                # backend state see current values.
                kernel_sink = _ProjectingSink(sink, self._project)
                if stop_when is not None:
                    def kernel_stop(chain):
                        return stop_when(self._live())
            done, converged = run_kernel(
                self._kernel, self._pair_block,
                self._kernel.model.sample_components, self._rng, max_steps,
                self.steps_run, kernel_stop, observe_every, check_stop_every,
                kernel_sink, BLOCK_SIZE, others_block=self._others_block)
        elif not stopped:
            while done < max_steps:
                executed, converged = self._advance(
                    max_steps - done, done, stop_when, observe_every,
                    check_stop_every, sink)
                done += executed
                if converged:
                    break
        self.steps_run += done
        self._live()
        sink.flush()
        return EngineResult(counts=self._counts.copy(), steps=self.steps_run,
                            converged=converged, observations=sink.records)

    # ------------------------------------------------------------------
    # Birthday-window batching
    # ------------------------------------------------------------------
    def _advance(self, budget: int, done: int, stop_when, observe_every,
                 check_stop_every, sink) -> tuple[int, bool]:
        """Execute one birthday-window batch of between 1 and ``budget`` steps.

        ``done`` is the number of interactions the enclosing ``run`` call
        already executed; observation snapshots and stop checks whose
        run-relative cadence points fall inside the batch are materialized
        from the batch's recorded per-slot states without splitting it.
        A window that draws no collision executes whole (exact: only the
        event {first collision beyond the window} was consumed, and the
        chain is Markov in its counts).  Returns ``(executed,
        converged)``; on an early stop the counts are rewound to the
        firing checkpoint and the sampled remainder of the batch is
        discarded.
        """
        t, collides, classes, window = self._draw_window(budget)
        executed = t + 1 if collides else t
        obs_at = _cadence_offsets(done, observe_every, executed)
        stop_at = (_cadence_offsets(done, check_stop_every, executed)
                   if stop_when is not None else range(0))
        if obs_at or stop_at:
            return self._run_with_checkpoints(t, collides, classes, window,
                                              done, stop_when, obs_at,
                                              stop_at, sink)
        if not collides:
            self._run_clean(t, classes, want_state=False)
            return executed, False
        slots, updated, pool = self._run_clean(t, classes, want_state=True)
        self._run_collision(t, window, slots, updated, pool)
        return executed, False

    def _run_with_checkpoints(self, t, collides, classes, window, done,
                              stop_when, obs_at, stop_at, sink):
        """Run one batch whose window contains observation/stop checkpoints.

        The clean run's per-slot pre/post chain ids (``slots``/``updated``)
        give the exact count vector at every interior step as a prefix sum,
        so the batch is *not* split at the checkpoints — the splitting is
        what made ``check_stop_every=1`` collapse to one-interaction
        batches before.  The live counts are walked from checkpoint to
        checkpoint, so observers and predicates (also those reading the
        backend instead of their argument) see each checkpoint's counts; a
        firing stop predicate leaves them at its checkpoint and discards
        the batch remainder (the chain is Markov in the counts, so
        re-sampling the future from the current state is exact).
        """
        spp = self._spp
        s = self.model.n_states
        chain = self._chain
        size = chain.size
        base = self.steps_run + done
        before = chain.copy()
        slots, updated, pool = self._run_clean(t, classes, want_state=True)
        after = chain.copy()
        chain[:] = before
        executed = t + 1 if collides else t
        prev = 0
        for offset in sorted(set(obs_at) | set(stop_at)):
            if offset > t:
                break
            chain += np.bincount(updated[prev * spp:offset * spp],
                                 minlength=size)
            chain -= np.bincount(slots[prev * spp:offset * spp],
                                 minlength=size)
            prev = offset
            live = self._live()
            if offset in obs_at:
                sink.emit(base + offset, live)
            if offset in stop_at and stop_when(live):
                if self._pair_counts is not None and offset < t:
                    # The batch remainder is discarded; rewind its
                    # already-accumulated (inner-state) pair counts too.
                    self._pair_counts -= np.bincount(
                        slots[offset * spp::spp] % s * s
                        + slots[offset * spp + 1::spp] % s,
                        minlength=s * s)
                return offset, True
        chain[:] = after
        if collides:
            self._run_collision(t, window, slots, updated, pool)
            if executed in obs_at:
                sink.emit(base + executed, self._live())
            if executed in stop_at and stop_when(self._live()):
                return executed, True
        return executed, False

    def _run_clean(self, t: int, classes, want_state: bool):
        """Execute ``t`` interactions among all-distinct agents, vectorized.

        ``classes`` gives each slot's weight class (``None``: the single
        class of the uniform law).  Within a class the agents are
        exchangeable, so the distinct slots of each class hold a
        without-replacement sample of that class's state counts
        (multivariate hypergeometric + one shuffle); with one class that
        is one draw over the whole count vector.  With ``want_state``
        true, returns ``(slots, updated, pool)``: the per-slot sampled
        chain ids, the per-slot post-interaction chain ids, and the chain
        counts of the untouched remainder — the inputs the collision
        resolution needs.
        """
        if t == 0:
            if want_state:
                empty = np.empty(0, dtype=np.int64)
                return empty, empty, self._chain.copy()
            return None
        spp = self._spp
        s = self.model.n_states
        rng = self._rng
        n_slots = t * spp
        if classes is None:
            sampled = sample_without_replacement(rng, self._chain, n_slots)
            slots = np.repeat(self._state_ids, sampled)
            rng.shuffle(slots)
        else:
            classes = classes[:n_slots]
            by_class = self._chain.reshape(-1, s)
            sampled = np.zeros_like(by_class)
            slots = np.empty(n_slots, dtype=np.int64)
            for c in np.flatnonzero(np.bincount(classes,
                                                minlength=len(by_class))):
                positions = np.flatnonzero(classes == c)
                sampled[c] = sample_without_replacement(rng, by_class[c],
                                                        positions.size)
                values = np.repeat(self._state_ids, sampled[c])
                rng.shuffle(values)
                slots[positions] = values
            sampled = sampled.ravel()
        initiators = slots[0::spp]
        responders = slots[1::spp]
        observed = None
        if spp == 4:
            observed = (slots[2::spp], slots[3::spp])
        new_u, new_v = self.model.apply(initiators, responders, rng,
                                        observed)
        if self._pair_counts is not None:
            self._pair_counts += np.bincount(initiators * s + responders,
                                             minlength=s * s)
        if classes is not None:
            # Inner states -> chain ids; the class component never moves.
            class_part = classes * s
            slots = slots + class_part
            new_u = new_u + class_part[0::spp]
            new_v = new_v + class_part[1::spp]
        # All sampled slots leave, all post-interaction states (updates for
        # the pair, unchanged states for observed agents) re-enter — one
        # fused bincount against the already-known sample composition.
        if spp == 4:
            entered = np.concatenate([new_u, new_v, slots[2::spp],
                                      slots[3::spp]])
        else:
            entered = np.concatenate([new_u, new_v])
        delta = np.bincount(entered, minlength=sampled.size) - sampled
        if want_state:
            pool = self._chain - sampled
            updated = slots.copy()
            updated[0::spp] = new_u
            updated[1::spp] = new_v
            self._chain += delta
            return slots, updated, pool
        self._chain += delta
        return None


class CountBackend(_CountChain):
    """Count-level engine for an :class:`InteractionModel`.

    The uniform window law of the count-chain driver: windows are drawn
    by one uniform inverted through the cached collision-time CDF, and
    the array proxy runs on uniform pair sampling.

    Parameters
    ----------
    model:
        The interaction law (its outcome may depend on the participants'
        states only — guaranteed by the model contract).
    initial_counts:
        Length-``n_states`` non-negative integer count vector summing to
        the population size ``n >= 2``.
    seed:
        Seed or generator.
    track_pair_counts:
        Accumulate the ``(S, S)`` matrix of executed interactions per
        ordered state pair into :attr:`pair_counts` (count-level payoff
        accounting; see the module docstring).
    vectorized:
        Proxy-path selection: ``None`` (default) uses the array-proxy
        kernel for supported models up to :data:`PROXY_MAX_N` agents,
        ``True`` forces it (still requires a supported model), ``False``
        forces the birthday path.  Both paths simulate the same law.
    scheduler:
        Optional pair scheduler to share a randomness stream with the
        caller.  The count chain *is* the uniform scheduler's law, so
        only uniform-law schedulers (``weights is None`` / absent) can
        be honored — their ``rng`` is adopted; the batched paths never
        call ``pair_block``, which is exactly distribution-preserving.
        A scheduler advertising non-uniform ``weights`` breaks the
        exchangeability this backend is built on and is rejected loudly
        (use :class:`~repro.engine.weighted.WeightedCountBackend`, the
        ``(weight class × state)`` lift, instead) — never silently
        downgraded to the uniform law.  A scheduler advertising a
        ``topology`` is accepted exactly when the graph is
        vertex-transitive: every agent is then equivalent, the graph's
        directed-edge law has uniform single-interaction marginals, and
        the count run simulates the graph's *degree-annealed* chain —
        which coincides with the quenched graph process for the complete
        graph and for partner-blind one-way models, and deliberately
        differs from it otherwise (pin the agent backend to study the
        quenched process).  Irregular graphs are rejected loudly with a
        pointer to the agent backend and to
        :meth:`~repro.engine.topology.InteractionGraph.degree_weights`.
    """

    _KIND = "count"

    def __init__(self, model: InteractionModel, initial_counts, seed=None,
                 track_pair_counts: bool = False,
                 vectorized: bool | None = None, scheduler=None):
        counts = np.asarray(initial_counts, dtype=np.int64).copy()
        if counts.ndim != 1 or counts.size != model.n_states:
            raise InvalidParameterError(
                f"initial_counts must be a 1-D vector of length "
                f"{model.n_states}, got shape {counts.shape}")
        self._init_chain(model, counts, track_pair_counts)
        if scheduler is not None:
            if getattr(scheduler, "weights", None) is not None:
                raise InvalidParameterError(
                    "CountBackend simulates the exchangeable count chain; "
                    "a weighted scheduler breaks exchangeability and "
                    "cannot be honored here — use WeightedCountBackend "
                    "(the weight-class × state lift) or the agent backend")
            topology = getattr(scheduler, "topology", None)
            if topology is not None and not topology.vertex_transitive:
                degrees = topology.degrees
                raise InvalidParameterError(
                    f"CountBackend tracks exchangeable state counts; the "
                    f"interaction graph '{topology.name}' (degrees "
                    f"{int(degrees.min())}..{int(degrees.max())}) is not "
                    f"vertex-transitive, so agents are distinguishable "
                    f"and the count chain is not defined — use the agent "
                    f"backend for the quenched graph process, or "
                    f"WeightedCountBackend with the graph's "
                    f"degree_weights() for its annealed mean-field chain")
            if scheduler.n != self.n:
                raise InvalidParameterError(
                    f"scheduler is over n={scheduler.n} agents, "
                    f"population has n={self.n}")
            seed = scheduler.rng
        self._rng = as_generator(seed)
        # One class: the chain counts are the live counts themselves.
        self._chain = self._counts = counts
        proxy_ok = self._spp == 2 and (model.component_tables is not None
                                       or model.one_way)
        if self._use_proxy(vectorized, proxy_ok, PROXY_MAX_N):
            # Fixed (arbitrary) state assignment; exchangeability makes
            # uniform pair sampling over it the exact count chain.  Inert
            # states are placed in a contiguous tail so the kernel's
            # inert filter is a single index comparison.
            state_ids = np.arange(model.n_states, dtype=np.int64)
            inert = model.inert_states
            bound = None
            if inert is not None and not self._track_pairs:
                inert = np.asarray(inert, dtype=bool)
                order = np.concatenate((state_ids[~inert],
                                        state_ids[inert]))
                bound = int(counts[~inert].sum())
            else:
                order = state_ids
            states = np.repeat(order, counts[order])
            self._kernel = ConflictFreeKernel(
                model, states, counts, allow_stochastic=True,
                track_pairs=self._track_pairs, inert_index_bound=bound)
        else:
            self._cdf = _collision_cdf(self.n, self._spp)

    def _pair_block(self, size: int):
        return ordered_pair_block(self._rng, self.n, size)

    def _draw_window(self, budget: int):
        """Draw the next window's clean-run length and collision flag.

        One uniform block covers the collision-time draw plus the
        collision interaction's repeat/fresh decisions (independent
        uniforms; the unused tail is simply discarded).  When the first
        collision lands beyond the window we may process, the leading
        ``min(budget, horizon)`` interactions run clean (the collision
        time beyond the window is re-sampled next call, which is exact:
        only the event ``{T >= clean_cap}``, of probability
        ``survival[clean_cap]``, was consumed).
        """
        cdf = self._cdf
        uniforms = self._rng.random(1 + self._spp)
        first_collision = int(cdf.searchsorted(uniforms[0], side="right")) - 1
        clean_cap = min(budget, len(cdf) - 1)
        collides = first_collision < clean_cap
        t = first_collision if collides else clean_cap
        return t, collides, None, uniforms

    def _rest_all_fresh(self, position: int, distinct: int) -> float:
        """P(slots ``position..spp-1`` all hit unseen agents | ``distinct``)."""
        probability = 1.0
        n = self.n
        for _ in range(position, self._spp):
            probability *= max(n - distinct, 0) / (n - 1.0)
            distinct += 1
        return probability

    def _run_collision(self, t: int, uniforms, slots, updated, pool) -> None:
        """Resolve the interaction that ends a clean run, exactly.

        ``slots``/``updated`` are the clean run's per-slot pre/post states
        (each slot is a distinct agent); ``pool`` counts the untouched
        agents; ``uniforms[1:]`` are pre-drawn repeat/fresh decision
        variables.  The interaction's slot pattern (which of its
        participants repeat an already-touched agent) is drawn from its
        exact conditional law given that at least one repeats; repeated
        participants read their recorded current state, fresh ones are
        drawn from ``pool``.
        """
        rng = self._rng
        n = self.n
        spp = self._spp
        prefix_slots = t * spp
        pool = pool.tolist()
        pool_total = n - prefix_slots
        # Tokens identify distinct agents: 0..prefix_slots-1 are the clean
        # run's slots; larger tokens are agents first seen in this very
        # interaction (their pre-interaction state in fresh_states).
        fresh_states: list[int] = []
        slot_states = [0] * spp
        slot_tokens = [0] * spp
        # Each slot's "distinct from" constraint: position of the slot
        # whose agent it may not equal (the shift-trick exclusions).
        exclusions = (None, 0, 0, 1) if spp == 4 else (None, 0)
        distinct = prefix_slots
        need_repeat = True
        for position in range(spp):
            denominator = n if position == 0 else n - 1
            p_fresh = (n - distinct) / denominator
            if need_repeat:
                rest = self._rest_all_fresh(position + 1, distinct + 1)
                p_any = 1.0 - p_fresh * rest
                is_repeat = (uniforms[position + 1] * max(p_any, 1e-300)
                             < 1.0 - p_fresh)
            else:
                is_repeat = uniforms[position + 1] < 1.0 - p_fresh
            if is_repeat:
                need_repeat = False
                excluded = exclusions[position]
                if excluded is not None:
                    barred = slot_tokens[excluded]
                    token = int(rng.integers(distinct - 1))
                    if token >= barred:
                        token += 1
                else:
                    token = int(rng.integers(distinct))
                slot_tokens[position] = token
                if token < prefix_slots:
                    slot_states[position] = int(updated[token])
                else:
                    slot_states[position] = fresh_states[token - prefix_slots]
            else:
                pick = int(rng.integers(pool_total))
                state = 0
                acc = pool[0]
                while acc <= pick:
                    state += 1
                    acc += pool[state]
                pool[state] -= 1
                pool_total -= 1
                slot_tokens[position] = distinct
                fresh_states.append(state)
                slot_states[position] = state
                distinct += 1
        u, v = slot_states[0], slot_states[1]
        observed = None
        if spp == 4:
            observed = (slot_states[2], slot_states[3])
        if self._pair_counts is not None:
            self._pair_counts[u * self.model.n_states + v] += 1
        new_u, new_v = self.model.apply_scalar(u, v, rng, observed)
        counts = self._chain
        counts[u] -= 1
        counts[v] -= 1
        counts[new_u] += 1
        counts[new_v] += 1
