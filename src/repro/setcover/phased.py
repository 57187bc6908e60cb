"""The Theorem 3.6 phased lower-bound construction.

Theorem 3.6 amplifies the one-shot reduction of Section 3: the RW-paging
request stream consists of ``h = k`` *phases*; in each phase the adversary
draws one of the online set cover request sequences ``rho_1 .. rho_q``
uniformly at random and plays Steps 1-3 of the reduction for it.  Because
Lemma 3.2's solution starts and ends at the all-write-pages cache state,
the offline cost telescopes to ``O(h * c * w)`` while the online algorithm
pays the (expected) online cover size *every phase*.

:func:`phased_reduction` builds that stream from a
:class:`~repro.setcover.hardness.HardFamily`; :func:`phase_covers` splits
an eviction trace back into per-phase committed covers (the per-phase
Lemma 3.3 objects).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.instance import RWPagingInstance
from repro.core.ledger import EvictionRecord
from repro.core.requests import RequestSequence
from repro.setcover.hardness import HardFamily
from repro.setcover.reduction import SetCoverReduction, reduce_to_rw_paging
from repro.workloads.base import as_generator

__all__ = ["PhasedReduction", "phased_reduction", "phase_covers"]


@dataclass(frozen=True)
class PhasedReduction:
    """An h-phase RW-paging stream drawn from a hard family."""

    family: HardFamily
    instance: RWPagingInstance
    sequence: RequestSequence
    phase_elements: tuple[tuple[int, ...], ...]
    phase_boundaries: tuple[int, ...]  # request index where each phase starts
    w: float
    repetitions: int

    @property
    def n_phases(self) -> int:
        """Number of phases ``h``."""
        return len(self.phase_elements)


def phased_reduction(
    family: HardFamily,
    n_phases: int,
    *,
    w: float | None = None,
    repetitions: int = 4,
    rng=None,
) -> PhasedReduction:
    """Concatenate ``n_phases`` randomly-drawn one-shot reductions.

    Every phase replays Steps 1-3 of the Section 3 reduction for a
    uniformly drawn sequence of the family; the instance (pages, weights,
    cache size ``k = m``) is shared across phases, so the paging stream is
    one long run against a single cache.
    """
    if n_phases < 1:
        raise ValueError(f"n_phases must be >= 1, got {n_phases}")
    gen = as_generator(rng)
    system = family.system
    chosen = [
        family.sequences[int(gen.integers(0, len(family.sequences)))]
        for _ in range(n_phases)
    ]
    parts: list[SetCoverReduction] = [
        reduce_to_rw_paging(system, elems, w=w, repetitions=repetitions)
        for elems in chosen
    ]
    boundaries: list[int] = [0]
    seq = parts[0].sequence
    for part in parts[1:]:
        boundaries.append(len(seq))
        seq = seq + part.sequence
    return PhasedReduction(
        family=family,
        instance=parts[0].instance,
        sequence=seq,
        phase_elements=tuple(chosen),
        phase_boundaries=tuple(boundaries),
        w=parts[0].w,
        repetitions=repetitions,
    )


def phase_covers(
    phased: PhasedReduction, events: list[EvictionRecord]
) -> list[set[int]]:
    """Per-phase committed covers from an eviction trace.

    For each phase, the sets whose *write copy* was evicted during that
    phase's request window — Lemma 3.3 says each must cover the phase's
    elements in any run that avoided the repetition penalty.
    """
    m = phased.family.system.n_sets
    bounds = list(phased.phase_boundaries) + [len(phased.sequence)]
    covers: list[set[int]] = [set() for _ in range(phased.n_phases)]
    for ev in events:
        if ev.page >= m or ev.level != 1:
            continue
        for i in range(phased.n_phases):
            if bounds[i] <= ev.time < bounds[i + 1]:
                covers[i].add(ev.page)
                break
    return covers
