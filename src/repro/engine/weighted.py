"""Heterogeneous-activity (weighted-scheduler) count-level simulation.

Under the uniform scheduler the state-count vector is a Markov chain
because agents are exchangeable.  Activity weights break that: two agents
in the same state but with different weights are *not* interchangeable,
so the plain count vector loses the Markov property.  Exchangeability
survives, however, *within* each set of equally weighted agents — so the
chain is recovered by lifting the type space to the product
``(weight class × state)``:

* agents are grouped into discrete **weight classes** (agents sharing an
  activity weight), fixed for the whole run;
* the **product model** runs the inner interaction law on the state
  component and carries the class component through unchanged
  (:class:`ProductStateModel`);
* the backend expands the ``(C, S)`` class-state counts into an
  arbitrary fixed per-agent assignment and drives the
  :mod:`repro.engine.vectorized` kernel with a
  :class:`~repro.engine.sampling.WeightedPairSampler` whose per-agent
  weights repeat each class weight — by within-class exchangeability the
  projection onto ``(class, state)`` counts is *exactly* the lifted
  chain, with no approximation (property-tested against exact chains in
  ``tests/engine/test_weighted_engine.py``).

Both of :class:`~repro.engine.count.CountBackend`'s execution
strategies extend to the product type space:

* the **array-proxy kernel** expands the counts into a fixed per-agent
  assignment (``O(n)`` internal memory) and is the default up to
  :data:`WEIGHTED_PROXY_MAX_N` agents — a *measured* crossover, higher
  than the uniform path's :data:`~repro.engine.count.PROXY_MAX_N`
  because weighted batches must sample a per-slot class sequence the
  uniform birthday path never needs, which shifts the proxy/birthday
  break-even point upward (see ``BENCH_engine.json``);
* **birthday-run batching** extends to the *heterogeneous* birthday
  problem: the first-collision law under weighted sampling depends on
  which weight classes the draws land in, so no count-only CDF can be
  precomputed — instead each batch samples the per-slot weight-class
  sequence first (classes are iid ``m_c·w_c/W`` categorical draws,
  partner-clash corrected by an exact per-class rejection), then the
  per-slot *freshness* factors ``(m_c − seen_c)/(m_c − δ)`` given that
  sequence, whose running product is the exact survival function of the
  first collision.  One uniform inverted through that product yields
  the collision slot; the all-distinct prefix executes in one
  vectorized shot per class (``multivariate_hypergeometric`` + shuffle,
  exactly as the uniform path), and the collision interaction is
  resolved agent-exactly at class granularity.  This restores
  ``O(√n_eff)``-batched, ``O(k)``-memory weighted runs beyond
  ``WEIGHTED_PROXY_MAX_N`` (``n_eff = W²/Σᵢwᵢ²`` is the
  heterogeneity-corrected collision scale), distribution-identical to
  the proxy kernel and the enumerated weighted chains
  (property-tested).

Facade-facing counts are the *inner* model's: :attr:`WeightedCountBackend
.counts` has length ``S`` (stop predicates and observations see the same
shape as every other engine), while :attr:`~WeightedCountBackend
.class_state_counts` exposes the full ``(C, S)`` product view.

:func:`weights_from_spec` parses the user-facing weight spellings
(``"uniform"``, ``"powerlaw[:alpha]"``, ``"twoclass[:ratio]"``) that the
experiment parameter spaces and the CLI accept.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.count import _CountChain
from repro.engine.model import InteractionModel
from repro.engine.sampling import (
    AliasTable,
    WeightedPairSampler,
    check_weights,
)
from repro.engine.vectorized import ConflictFreeKernel
from repro.utils import as_generator
from repro.utils.errors import InvalidParameterError

#: Hard cap on distinct weight classes: the product space is ``C × S``
#: and a continuum of weights would silently degrade the lift into a
#: per-agent state space.
MAX_WEIGHT_CLASSES = 64

#: Default proxy-kernel ceiling for the *weighted* lift.  Unlike the
#: uniform chain — whose birthday batches need no per-slot randomness
#: beyond one precomputed-CDF inversion, and which therefore overtakes
#: the proxy kernel at :data:`~repro.engine.count.PROXY_MAX_N` — a
#: heterogeneous batch must sample and rank a per-slot weight-class
#: sequence, so the alias-fed proxy kernel stays faster well past 10^7
#: agents (measured: ~3.8M vs ~1.3M interactions/s at n = 10^7; see
#: ``BENCH_engine.json``).  The proxy's O(n) memory matches the agent
#: backend's at equal ``n``; beyond this ceiling the O(C·S) birthday
#: path takes over.
WEIGHTED_PROXY_MAX_N = 10_000_000

#: Number of discrete activity levels the ``powerlaw`` spec generates.
POWERLAW_LEVELS = 8


def weights_from_spec(spec: str, n: int):
    """Per-agent activity weights named by a textual spec.

    * ``"uniform"`` — ``None`` (the uniform scheduler; no weighting).
    * ``"powerlaw"`` / ``"powerlaw:alpha"`` — :data:`POWERLAW_LEVELS`
      discrete activity levels with weight ``level^-alpha``
      (``alpha = 1`` by default), assigned round-robin so every
      population stratum mixes all levels.
    * ``"twoclass"`` / ``"twoclass:ratio"`` — the first half of the
      population at weight 1, the second half at ``ratio`` (default 4).

    Discrete levels keep the weight-class product space small (the
    count-level lift is ``C × S``); the assignment is deterministic so
    identical specs give identical populations under any seed.
    """
    name, _, argument = str(spec).partition(":")
    name = name.strip().lower()
    if name == "uniform":
        if argument:
            raise InvalidParameterError(
                f"weight spec 'uniform' takes no argument, got {spec!r}")
        return None
    if name == "powerlaw":
        alpha = 1.0
        if argument:
            try:
                alpha = float(argument)
            except ValueError as error:
                raise InvalidParameterError(
                    f"malformed powerlaw exponent in {spec!r}") from error
        if not np.isfinite(alpha) or alpha <= 0:
            raise InvalidParameterError(
                f"powerlaw exponent must be positive and finite, "
                f"got {alpha!r}")
        levels = np.arange(1, POWERLAW_LEVELS + 1, dtype=float) ** -alpha
        return levels[np.arange(int(n)) % POWERLAW_LEVELS]
    if name == "twoclass":
        ratio = 4.0
        if argument:
            try:
                ratio = float(argument)
            except ValueError as error:
                raise InvalidParameterError(
                    f"malformed twoclass ratio in {spec!r}") from error
        if not np.isfinite(ratio) or ratio <= 0:
            raise InvalidParameterError(
                f"twoclass ratio must be positive and finite, got {ratio!r}")
        weights = np.ones(int(n))
        weights[int(n) // 2:] = ratio
        return weights
    raise InvalidParameterError(
        f"unknown weight spec {spec!r}; expected 'uniform', "
        f"'powerlaw[:alpha]', or 'twoclass[:ratio]'")


def resolve_weights(weights, n: int):
    """The facades' one ``weights=`` parser: spec or array -> weights.

    ``None`` passes through (uniform); a string resolves via
    :func:`weights_from_spec`; anything else is validated as a
    length-``n`` positive 1-D array.  Every facade funnels its knob
    through here so the validation (and its messages) exist once.
    """
    if weights is None:
        return None
    if isinstance(weights, str):
        return weights_from_spec(weights, n)
    weights = check_weights(weights)
    if weights.size != n:
        raise InvalidParameterError(
            f"weights must have length n={n}, got {weights.size}")
    return weights


def weight_classes(weights) -> tuple[np.ndarray, np.ndarray]:
    """Discretize per-agent weights into ``(class_weights, class_of)``.

    ``class_weights`` holds the distinct weight values (ascending) and
    ``class_of[i]`` the class index of agent ``i``.  More than
    :data:`MAX_WEIGHT_CLASSES` distinct values is rejected — the
    count-level lift needs a small discrete class set.
    """
    w = check_weights(weights)
    class_weights, class_of = np.unique(w, return_inverse=True)
    if class_weights.size > MAX_WEIGHT_CLASSES:
        raise InvalidParameterError(
            f"{class_weights.size} distinct weight values exceed the "
            f"{MAX_WEIGHT_CLASSES}-class cap of the count-level lift; "
            f"discretize the weights (e.g. via weights_from_spec) or use "
            f"the agent backend")
    return class_weights, class_of


class ProductStateModel(InteractionModel):
    """An interaction law lifted to ``(weight class × state)`` products.

    Product state ``c·S + s`` encodes class ``c`` and inner state ``s``;
    the inner law acts on the state component and the class component is
    carried through untouched (weights are immutable agent attributes).
    Component tables, one-way structure, inert states, and the 4-slot
    observed-agent surface all lift — so whatever kernel path the inner
    model supports, the product does too (observed product states are
    projected to their inner component before the inner law reads them).
    """

    def __init__(self, inner: InteractionModel, n_classes: int):
        if inner.slots_per_step not in (2, 4):
            raise InvalidParameterError(
                f"slots_per_step must be 2 or 4, "
                f"got {inner.slots_per_step}")
        self._inner = inner
        self._classes = int(n_classes)
        if self._classes < 1:
            raise InvalidParameterError(
                f"n_classes must be positive, got {n_classes!r}")
        self._s = inner.n_states
        self.slots_per_step = inner.slots_per_step

    @property
    def inner(self) -> InteractionModel:
        """The lifted interaction law."""
        return self._inner

    @property
    def n_classes(self) -> int:
        """Number of weight classes ``C``."""
        return self._classes

    @property
    def n_states(self) -> int:
        return self._classes * self._s

    @property
    def one_way(self) -> bool:
        return self._inner.one_way

    @property
    def inert_states(self):
        inert = self._inner.inert_states
        # Class never changes, so a product state is inert exactly when
        # its inner state is.
        return None if inert is None else np.tile(inert, self._classes)

    @property
    def component_tables(self):
        tables = self._inner.component_tables
        if tables is None:
            return None
        return [self._lift_table(table) for table in tables]

    def _lift_table(self, table) -> np.ndarray:
        s, c = self._s, self._classes
        p = c * s
        ids = np.arange(p)
        class_part = (ids // s) * s
        inner_ids = ids % s
        lifted = np.empty((p, p, 2), dtype=np.int64)
        gathered = table[np.ix_(inner_ids, inner_ids)]
        lifted[:, :, 0] = class_part[:, None] + gathered[:, :, 0]
        lifted[:, :, 1] = class_part[None, :] + gathered[:, :, 1]
        return lifted

    def sample_components(self, rng, size: int):
        return self._inner.sample_components(rng, size)

    def apply(self, initiators, responders, rng, observed=None):
        s = self._s
        class_u = initiators - initiators % s
        class_v = responders - responders % s
        if observed is not None:
            # Observed agents are read-only: project their product
            # states to the inner component the inner law consumes.
            observed = (observed[0] % s, observed[1] % s)
        new_u, new_v = self._inner.apply(initiators % s, responders % s,
                                         rng, observed)
        return class_u + new_u, class_v + new_v

    def apply_scalar(self, u: int, v: int, rng, observed=None) -> tuple:
        s = self._s
        if observed is not None:
            observed = (observed[0] % s, observed[1] % s)
        new_u, new_v = self._inner.apply_scalar(u % s, v % s, rng, observed)
        return (u - u % s + new_u, v - v % s + new_v)


class WeightedCountBackend(_CountChain):
    """Count-level engine for activity-weighted populations.

    Tracks the exact ``(weight class × state)`` count chain of an
    :class:`~repro.engine.model.InteractionModel` under the
    :class:`~repro.population.scheduler.WeightedScheduler` law, via the
    product-space array-proxy kernel at small ``n`` and heterogeneous
    birthday-run batching beyond it (see the module docstring).  The
    engine-facing :attr:`counts` are the *inner* model's length-``S``
    state counts — stop predicates and observations see the familiar
    shape — with the full product view on :attr:`class_state_counts`.

    The weighted window law of the count-chain driver: windows are
    drawn as an alias-sampled class sequence plus the survival cumprod
    of the heterogeneous birthday problem, and the array proxy runs on
    :class:`~repro.engine.sampling.WeightedPairSampler` over
    class-expanded states.

    Parameters
    ----------
    model:
        The (inner) interaction law; 4-slot observed-agent models are
        supported on both paths.  The proxy kernel additionally needs
        the vectorized-kernel family (component tables or a one-way
        stochastic law); the birthday path accepts any model.
    initial_counts:
        ``(C, S)`` non-negative integers: agents per weight class and
        state, summing to the population size ``n >= 2``.
    class_weights:
        Length-``C`` positive activity weights, one per class.  With a
        single class (or equal weights) the chain coincides with
        :class:`~repro.engine.count.CountBackend`'s law.
    seed:
        Seed or generator.
    track_pair_counts:
        Accumulate executed interactions per ordered *inner*-state pair
        into :attr:`pair_counts` (count-level payoff accounting, the
        projection of the product-pair counts).
    vectorized:
        Proxy-path selection: ``None`` (default) uses the array-proxy
        kernel for supported models up to :data:`WEIGHTED_PROXY_MAX_N`
        agents (the measured weighted crossover), ``True`` forces it
        (still requires a supported model), ``False`` forces the
        birthday path.  Both paths simulate the same law.
    """

    _KIND = "weighted"

    def __init__(self, model: InteractionModel, initial_counts,
                 class_weights, seed=None,
                 track_pair_counts: bool = False,
                 vectorized: bool | None = None):
        weights = np.asarray(class_weights, dtype=float)
        if weights.ndim != 1 or weights.size < 1:
            raise InvalidParameterError(
                "class_weights must be a 1-D array of at least one class")
        if np.any(~np.isfinite(weights)) or np.any(weights <= 0):
            raise InvalidParameterError(
                "class weights must be positive and finite")
        counts = np.asarray(initial_counts, dtype=np.int64).copy()
        if counts.ndim != 2 or counts.shape != (weights.size,
                                                model.n_states):
            raise InvalidParameterError(
                f"initial_counts must have shape (C, S) = "
                f"({weights.size}, {model.n_states}), got {counts.shape}")
        self._init_chain(model, counts, track_pair_counts)
        self._rng = as_generator(seed)
        self._class_weights = weights
        self._classes = weights.size
        self._product = ProductStateModel(model, self._classes)
        self._chain = counts.ravel()
        self._counts = counts.sum(axis=0)
        if self._spp == 4:
            proxy_ok = model.one_way and model.component_tables is None
        else:
            proxy_ok = (model.component_tables is not None
                        or model.one_way)
        if self._use_proxy(vectorized, proxy_ok, WEIGHTED_PROXY_MAX_N):
            # Fixed per-agent expansion: within-class exchangeability
            # makes weighted pair sampling over any fixed assignment
            # project to exactly the (class × state) count chain.
            product_states = np.repeat(
                np.arange(self._chain.size, dtype=np.int64), self._chain)
            sampler = WeightedPairSampler(
                np.repeat(weights, counts.sum(axis=1)), self._rng)
            self._pair_block = sampler.pair_block
            self._others_block = sampler.others_block
            self._kernel = ConflictFreeKernel(
                self._product, product_states, self._chain,
                allow_stochastic=model.component_tables is None,
                track_pairs=self._track_pairs)
        else:
            # Birthday path: O(C·S) state only — no per-agent arrays.
            self._init_birthday(counts)

    def _init_birthday(self, counts) -> None:
        """Precompute the fixed per-run structures of the birthday path.

        Class membership never changes, so the per-class member counts
        ``m_c``, the class-draw alias table (classes weighted by their
        total activity ``m_c·w_c``), and the heterogeneity-corrected
        collision scale ``n_eff = W²/Σᵢwᵢ²`` are all run constants.
        """
        m = counts.sum(axis=1)
        self._members = m
        occupied = np.flatnonzero(m > 0)
        self._occupied = occupied
        mass = m[occupied] * self._class_weights[occupied]
        self._class_alias = AliasTable(mass)
        total = float(mass.sum())
        self._n_eff = total ** 2 / float(
            (m[occupied] * self._class_weights[occupied] ** 2).sum())
        # Window length (in interactions): collisions arrive on the
        # √n_eff slot scale, so a ~2.5·√n_eff-slot window collides
        # inside with probability ≈ 95%; the occasional fully-clean
        # window is executed whole (exact — only the event
        # {T ≥ window} was consumed), so nothing is wasted.
        slots = int(2.5 * math.sqrt(self._n_eff)) + 8 * self._spp
        self._window = max(1, slots // self._spp)
        # Partner slot offsets: responder ≠ initiator, observed_i ≠
        # initiator, observed_j ≠ responder (count.py's exclusions).
        self._partner_offset = ((None, 1, 2, 2) if self._spp == 4
                                else (None, 1))

    @classmethod
    def from_agent_states(cls, model: InteractionModel, states, weights,
                          **kwargs) -> "WeightedCountBackend":
        """Build the lift from per-agent states and per-agent weights.

        Discretizes ``weights`` into classes (:func:`weight_classes`),
        histograms ``states`` per class, and constructs the backend —
        the one implementation of the facades' agent-view-to-lift
        conversion.  ``kwargs`` pass through to the constructor.
        """
        states = np.asarray(states, dtype=np.int64)
        class_weights, class_of = weight_classes(weights)
        if class_of.size != states.size:
            raise InvalidParameterError(
                f"weights cover {class_of.size} agents, states "
                f"{states.size}")
        class_counts = np.zeros((class_weights.size, model.n_states),
                                dtype=np.int64)
        np.add.at(class_counts, (class_of, states), 1)
        return cls(model, class_counts, class_weights, **kwargs)

    @property
    def class_weights(self) -> np.ndarray:
        """Per-class activity weights (copy)."""
        return self._class_weights.copy()

    @property
    def class_state_counts(self) -> np.ndarray:
        """Current ``(C, S)`` weight-class × state counts (copy)."""
        return self._chain.reshape(self._classes, -1).copy()

    def _shape(self) -> dict:
        return {**super()._shape(), "n_classes": int(self._classes)}

    # ------------------------------------------------------------------
    # Heterogeneous birthday-run batching
    # ------------------------------------------------------------------
    def _draw_window(self, budget: int):
        """Sample one batch window's class sequence and collision slot.

        The window spans ``min(budget, window length)`` interactions.
        Returns ``(t, collides, cls, (cls, tau))``: the clean-run length,
        whether the window ends in a collision, the per-slot weight
        classes of the window, and ``tau``, the index of the first slot
        that repeats an already-touched agent (``tau == len(cls)`` means
        the whole window is collision-free).

        Classes are iid ``m_c·w_c/W`` categorical draws; slots with a
        distinctness partner reject a same-class draw with probability
        ``1/m_c`` and redraw, which leaves exactly the partner-excluded
        class law ``(m_c·w_c − δ·w_c)/(W − w_a)``.  Given the class
        sequence, slot ``t`` hits an untouched agent with probability
        ``(m_c − seen_c)/(m_c − δ)`` (``seen_c`` = prior class-``c``
        slots, ``δ`` = partner in the same class), so the running
        product of those factors is the survival function of the first
        collision — inverted with a single uniform.
        """
        rng = self._rng
        spp = self._spp
        interactions = min(budget, self._window)
        window = interactions * spp
        occupied = self._occupied
        members = self._members
        cls = occupied[self._class_alias.draw_block(rng, window)]
        for position in range(1, spp):
            offset = self._partner_offset[position]
            pending = np.arange(position, window, spp)
            while pending.size:
                clash = cls[pending] == cls[pending - offset]
                clashing = pending[clash]
                if not clashing.size:
                    break
                # Reject a same-class draw with probability 1/m_c.
                rejected = (rng.random(clashing.size)
                            * members[cls[clashing]] < 1.0)
                redraw = clashing[rejected]
                if not redraw.size:
                    break
                cls[redraw] = occupied[
                    self._class_alias.draw_block(rng, redraw.size)]
                pending = redraw
        # seen_c before each slot: the slot's rank among its class.
        # Class ids fit in a byte (MAX_WEIGHT_CLASSES = 64), and numpy's
        # stable sort on uint8 keys is a radix pass — ~10x cheaper per
        # window than the int64 merge sort.
        order = np.argsort(cls.astype(np.uint8), kind="stable")
        sorted_cls = cls[order]
        boundary = np.empty(window, dtype=bool)
        if window:
            boundary[0] = True
            np.not_equal(sorted_cls[1:], sorted_cls[:-1],
                         out=boundary[1:])
        starts = np.flatnonzero(boundary)
        sizes = np.diff(np.append(starts, window))
        rank = np.arange(window) - np.repeat(starts, sizes)
        seen = np.empty(window, dtype=np.int64)
        seen[order] = rank
        paired = np.zeros(window, dtype=np.int64)
        for position in range(1, spp):
            offset = self._partner_offset[position]
            idx = np.arange(position, window, spp)
            paired[idx] = cls[idx] == cls[idx - offset]
        m_at = members[cls]
        factors = (m_at - seen) / (m_at - paired)
        np.clip(factors, 0.0, 1.0, out=factors)
        survival = np.cumprod(factors)
        tau = int(np.count_nonzero(survival > rng.random()))
        collides = tau < window
        t = tau // spp if collides else interactions
        return t, collides, cls, (cls, tau)

    def _run_collision(self, t: int, window, pids, updated, pool) -> None:
        """Resolve the interaction that ends a clean run, exactly.

        Slot ``tau`` repeats an already-touched agent; its interaction's
        other slots are fresh (before ``tau``, by the survival
        conditioning) or drawn from their unconditioned touched/fresh
        law (after ``tau``).  A touched slot hits a uniformly chosen
        eligible touched member of its class (partner excluded when in
        the same class): clean-prefix members read their recorded
        post-state, same-interaction members their pre-state.  Fresh
        slots draw their state from the untouched remainder ``pool``.
        """
        cls, tau = window
        rng = self._rng
        spp = self._spp
        s = self.model.n_states
        prefix_slots = t * spp
        position_tau = tau - prefix_slots
        pool = pool.reshape(self._classes, s).copy()
        members = self._members
        # Touched class-c agents: their prefix slot indices, plus the
        # states of agents first seen in this very interaction.
        prefix_by_class: dict[int, list] = {}
        extra_by_class: dict[int, list] = {}

        def touched_tokens(c):
            if c not in prefix_by_class:
                prefix_by_class[c] = np.flatnonzero(
                    cls[:prefix_slots] == c).tolist()
            return prefix_by_class[c], extra_by_class.setdefault(c, [])

        def draw_fresh(c) -> int:
            row = pool[c]
            pick = int(rng.integers(int(row.sum())))
            state = 0
            acc = row[0]
            while acc <= pick:
                state += 1
                acc += row[state]
            row[state] -= 1
            return int(state)

        def pick_touched(c, barred):
            prefix_tokens, extras = touched_tokens(c)
            eligible = ([token for token in prefix_tokens
                         if token != barred]
                        if isinstance(barred, int) else prefix_tokens)
            extra_count = len(extras) - (1 if isinstance(barred, tuple)
                                         and barred[0] == c else 0)
            index = int(rng.integers(len(eligible) + extra_count))
            if index < len(eligible):
                token = eligible[index]
                return token, int(updated[token]) % s
            extra_index = index - len(eligible)
            if isinstance(barred, tuple) and barred[0] == c \
                    and extra_index >= barred[1]:
                extra_index += 1
            return (c, extra_index), extras[extra_index]

        slot_state = [0] * spp
        slot_token: list = [None] * spp
        slot_cls = [int(cls[prefix_slots + position])
                    for position in range(spp)]
        for position in range(spp):
            c = slot_cls[position]
            offset = self._partner_offset[position]
            partner = position - offset if offset is not None else None
            same_class = (partner is not None
                          and slot_cls[partner] == c)
            barred = slot_token[partner] if same_class else None
            prefix_tokens, extras = touched_tokens(c)
            seen = len(prefix_tokens) + len(extras)
            if position < position_tau:
                fresh = True
            elif position == position_tau:
                fresh = False
            else:
                delta = 1 if same_class else 0
                fresh = (int(rng.integers(members[c] - delta))
                         >= seen - delta)
            if fresh:
                state = draw_fresh(c)
                extras.append(state)
                slot_token[position] = (c, len(extras) - 1)
                slot_state[position] = state
            else:
                token, state = pick_touched(c, barred)
                slot_token[position] = token
                slot_state[position] = state
        u, v = slot_state[0], slot_state[1]
        observed = None
        if spp == 4:
            observed = (slot_state[2], slot_state[3])
        if self._pair_counts is not None:
            self._pair_counts[u * s + v] += 1
        new_u, new_v = self.model.apply_scalar(u, v, rng, observed)
        counts = self._chain
        counts[slot_cls[0] * s + u] -= 1
        counts[slot_cls[1] * s + v] -= 1
        counts[slot_cls[0] * s + new_u] += 1
        counts[slot_cls[1] * s + new_v] += 1
