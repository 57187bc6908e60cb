"""Distribution-free online rounding (Section 4.3, Algorithms 1 and 2).

The composed policies here run the deterministic fractional solver
(:mod:`repro.algorithms.fractional`), quantize its state to the Lemma 4.5
grid, and round online into an integral cache using only the current cache,
the previous and new fractional states, and fresh randomness — no
distribution over cache states is maintained, which is the paper's headline
"distribution-free" property.

**Algorithm 2** (multi-level): the cached copy of each page ``p != p_t``
walks down the level chain — a copy at level ``i`` moves to ``i + 1``
(eviction past ``l``) with probability
``(ubar(p,i,t) - ubar(p,i,t-1)) / (ubar(p,i-1,t) - ubar(p,i,t-1))`` where
``ubar = min(beta * u, 1)`` and ``ubar(p,0) = 1``; the probabilities
exactly simulate the threshold coupling of the paper's "almost product"
distribution ``D(t)``.  Then *type-i resets*: for weight classes
``P_i = {w in (2^(i-1), 2^i]}`` of copies, from heaviest to lightest,
while the cache holds more than ``ceil(k_{>=i}(t))`` copies of class
>= i, evict a copy of class exactly ``i``; here
``k_{>=i}(t) = sum_p (1 - u(p, j_p(i), t))`` over the per-page prefix
``j_p(i)`` of copies with weight ``> 2^(i-1)``.

**Algorithm 1** (weighted paging) is Algorithm 2 at ``l = 1``: the chain
walk is one step, evicting each cached page independently with
probability ``(y_p(t) - y_p(t-1)) / (1 - y_p(t-1))`` for
``y_p = min(beta * x_p, 1)``, and ``k_{>=i} = sum_{p in P_{>=i}} (1 - x_p)``.
:class:`RandomizedWeightedPagingPolicy` is therefore
:class:`RandomizedMultiLevelPolicy` restricted to single-level instances.

Cost convention: when a copy chains down several levels within one request
the cache performs a single replacement, so the charge is the eviction of
the *original* copy — at most what the paper's per-move accounting pays.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.base import Policy, register_policy
from repro.algorithms.quantize import default_delta, quantize_state
from repro.errors import InvalidInstanceError

__all__ = [
    "default_beta",
    "RandomizedWeightedPagingPolicy",
    "RandomizedMultiLevelPolicy",
]

_TOL = 1e-12
_CEIL_SLACK = 1e-9


def default_beta(cache_size: int) -> float:
    """The paper's aggressiveness factor ``beta = 4 log k`` (floored at 4)."""
    return 4.0 * max(1.0, math.log(cache_size))


def _ceil_count(x: float) -> int:
    """``ceil`` with a little slack against floating-point drizzle."""
    return int(math.ceil(x - _CEIL_SLACK))


@register_policy
class RandomizedMultiLevelPolicy(Policy):
    """Algorithm 2 composed with the fractional solver (any ``l``).

    The paper's O(log^2 k) randomized algorithm for weighted multi-level
    paging (and, through the Lemma 2.1 reduction, for writeback-aware
    caching); Theorem 1.2 / 1.5.

    ``source`` defaults to the paper's online fractional solver
    (:class:`~repro.algorithms.sources.SolverSource` with the given
    ``eta``); pass a :class:`~repro.algorithms.sources.TrajectorySource`
    to round any externally computed fractional solution — the rounding is
    source-agnostic (Section 4.3).
    """

    name = "randomized-multilevel"

    #: Reset victim rules: the paper allows an *arbitrary* class-i page;
    #: these are the obvious instantiations (E9 ablates them).
    VICTIM_RULES = ("max-u", "min-u", "random", "first")

    def __init__(
        self,
        *,
        beta: float | None = None,
        eta: float | None = None,
        delta: float | None = None,
        source=None,
        victim_rule: str = "max-u",
    ) -> None:
        super().__init__()
        if beta is not None and beta < 1.0:
            # The coupling needs the integral cache to evict at least as
            # aggressively as the fractional solution (ubar >= u); with
            # beta < 1 the class resets can no longer restore feasibility.
            raise ValueError(f"beta must be >= 1, got {beta}")
        if source is not None and eta is not None:
            raise ValueError("pass eta or a custom source, not both")
        if victim_rule not in self.VICTIM_RULES:
            raise ValueError(
                f"victim_rule must be one of {self.VICTIM_RULES}, got {victim_rule!r}"
            )
        self._beta_arg = beta
        self._eta_arg = eta
        self._delta_arg = delta
        self._source_arg = source
        self.victim_rule = victim_rule

    def _pick_victim(self, candidates: list, u_values: list[float]):
        """Choose among equally-legal reset victims per the configured rule."""
        if self.victim_rule == "first":
            return candidates[0]
        if self.victim_rule == "random":
            return candidates[int(self.rng.integers(0, len(candidates)))]
        paired = list(zip(u_values, candidates))
        if self.victim_rule == "max-u":
            return max(paired)[1]
        return min(paired)[1]

    def bind(self, instance, cache, rng) -> None:
        from repro.algorithms.sources import SolverSource

        super().bind(instance, cache, rng)
        self.beta = (
            self._beta_arg
            if self._beta_arg is not None
            else default_beta(instance.cache_size)
        )
        self.delta = (
            self._delta_arg if self._delta_arg is not None else default_delta(instance)
        )
        self.source = (
            self._source_arg
            if self._source_arg is not None
            else SolverSource(eta=self._eta_arg)
        )
        self.source.reset(instance)
        self._u_prev = self._snap(self.source.u)
        self._fractional_z = 0.0
        self._fractional_y = 0.0
        # Weight classes of every copy and the largest class present.
        classes = instance.weight_classes()  # (n, l)
        self._class_rows = classes.tolist()
        self._max_class = int(classes.max())
        # j_p(i): number of levels of page p with class >= i (a prefix,
        # since weights are non-increasing across levels).
        self._prefix_len = np.stack(
            [
                (classes >= i).sum(axis=1)
                for i in range(1, self._max_class + 1)
            ]
        )  # (max_class, n)
        # Flat (n * l) index of u(p, j_p(i)) for every page with j_p(i) > 0,
        # one array per class, in page order.
        l = instance.n_levels
        self._k_ge_index = [
            np.flatnonzero(jp) * l + jp[jp > 0] - 1 for jp in self._prefix_len
        ]

    def _snap(self, u: np.ndarray) -> np.ndarray:
        if self.delta == 0:
            return u
        return quantize_state(u, self.delta)

    def _advance_fraction(
        self, t: int, page: int, level: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance the fractional source; returns (u_prev, u_new) quantized."""
        z_cost, y_cost = self.source.step(t, page, level)
        self._fractional_z += z_cost
        self._fractional_y += y_cost
        u_prev = self._u_prev
        u_new = self._snap(self.source.u)
        self._u_prev = u_new
        return u_prev, u_new

    def _k_ge(self, u_new: np.ndarray) -> np.ndarray:
        """``k_{>=i}(t)`` for i = 1..max_class, from the quantized state.

        Entry ``i-1`` is the fractional in-cache mass of copies with weight
        class >= i: ``sum_p (1 - u(p, j_p(i)))`` over pages with a
        qualifying prefix.
        """
        flat = u_new.ravel()
        return np.array([(1.0 - flat[idx]).sum() for idx in self._k_ge_index])

    def _fix_overflow(self, page: int) -> None:
        """Safety pass: guarantee a free slot for the incoming page.

        The class-exact reset sweep can strand a violation when the only
        copy of the violated class belongs to ``p_t`` (in the multi-level
        setting the requested page contributes *different* amounts to
        adjacent ``k_{>=i}`` prefixes, so Lemma 4.10's cascade argument —
        which is stated for weighted paging — does not transfer
        verbatim).  In that rare case we evict the cheapest non-requested
        copy, charged under the distinct reason ``reset-fix``.  At the
        paper's ``beta = 4 log k`` this never fires on measured runs
        (resets themselves are already exp(-beta/4)-rare); it exists so
        feasibility is unconditional for any ``beta >= 1``.
        """
        cache = self.cache
        k = self.instance.cache_size
        while page not in cache and len(cache) >= k:
            victims = [(p, j) for p, j in cache.items() if p != page]
            victim = min(
                victims, key=lambda pj: self.instance.weight(pj[0], pj[1])
            )
            cache.evict(victim[0], reason="reset-fix")

    def extras(self) -> dict[str, float]:
        return {
            "fractional_z_cost": self._fractional_z,
            "fractional_y_cost": self._fractional_y,
            "beta": self.beta,
        }

    @staticmethod
    def chain_walk(
        ubar_prev_row: np.ndarray,
        ubar_new_row: np.ndarray,
        start_level: int,
        rng: np.random.Generator,
    ) -> int:
        """Walk one cached copy down the level chain (Algorithm 2 line 9-12).

        A copy at level ``i`` moves to ``i + 1`` with probability
        ``(ubar_new(i) - ubar_prev(i)) / (ubar_new(i-1) - ubar_prev(i))``
        (``ubar(0) = 1``); a return value of ``l + 1`` means evicted.
        These sequential conditional probabilities exactly simulate the
        threshold coupling with the paper's product distribution ``D(t)``
        (Lemma 4.14) — tested statistically in the test suite.
        """
        l = int(ubar_prev_row.size)
        i = start_level
        while i <= l:
            num = ubar_new_row[i - 1] - ubar_prev_row[i - 1]
            if num <= _TOL:
                break
            upper = 1.0 if i == 1 else ubar_new_row[i - 2]
            denom = upper - ubar_prev_row[i - 1]
            prob = 1.0 if denom <= _TOL else min(1.0, num / denom)
            if rng.random() < prob:
                i += 1
            else:
                break
        return i

    def serve(self, t: int, page: int, level: int) -> None:
        cache = self.cache
        l = self.instance.n_levels
        u_prev, u_new = self._advance_fraction(t, page, level)
        ubar_prev = np.minimum(self.beta * u_prev, 1.0)
        ubar_new = np.minimum(self.beta * u_new, 1.0)
        # A copy whose own ubar did not move stays put and draws nothing
        # (chain_walk's first test), so only the movers are walked.
        movers = set(np.flatnonzero(ubar_new - ubar_prev > _TOL).tolist())

        # Walk every cached copy (p != p_t) down the level chain.
        for p, i0 in list(cache.items()):
            if p == page or p * l + i0 - 1 not in movers:
                continue
            i = self.chain_walk(ubar_prev[p], ubar_new[p], i0, self.rng)
            if i > l:
                cache.evict(p, reason="local-rule")
            elif i != i0:
                # One physical replacement for the whole chain: the cache
                # evicts the original copy once and fetches the final one.
                cache.replace(p, i, reason="local-rule")

        # The requested page: evict a lower copy, remember the target level.
        current = cache.level_of(page)
        if current is not None and current > level:
            cache.evict(page, reason="upgrade")
            current = None
        target_level = current if current is not None else level

        self._resets(page, target_level, u_new)
        self._fix_overflow(page)

        if page not in cache:
            cache.fetch(page, target_level)

    def _resets(self, page: int, page_level: int, u_new: np.ndarray) -> None:
        """Type-i resets over copy weight classes (Algorithm 2 lines 14-18)."""
        cache = self.cache
        classes = self._class_rows
        k_ge = self._k_ge(u_new)
        counts = [0] * (self._max_class + 2)
        for p, j in cache.items():
            counts[classes[p][j - 1]] += 1
        if page not in cache:
            counts[classes[page][page_level - 1]] += 1
        cum_ge = 0
        for i in range(self._max_class, 0, -1):
            cum_ge += counts[i]
            cap = _ceil_count(float(k_ge[i - 1]))
            while cum_ge > cap:
                victims = [
                    (p, j)
                    for p, j in cache.items()
                    if p != page and classes[p][j - 1] == i
                ]
                if not victims:
                    break
                victim_page, _ = self._pick_victim(
                    victims, [u_new[p, j - 1] for p, j in victims]
                )
                cache.evict(victim_page, reason="reset")
                counts[i] -= 1
                cum_ge -= 1


@register_policy
class RandomizedWeightedPagingPolicy(RandomizedMultiLevelPolicy):
    """Algorithm 1 composed with the fractional solver (``l = 1`` only).

    The paper's simple O(log^2 k) randomized algorithm for weighted paging:
    an O(log k) fractional solver rounded online at an O(log k) loss.  It
    is Algorithm 2 at ``l = 1``; this class only rejects ``l > 1``.
    """

    name = "randomized-weighted"

    def bind(self, instance, cache, rng) -> None:
        if instance.n_levels != 1:
            raise InvalidInstanceError(
                "RandomizedWeightedPagingPolicy requires a single-level "
                f"instance; got l = {instance.n_levels} "
                "(use RandomizedMultiLevelPolicy)"
            )
        super().bind(instance, cache, rng)
