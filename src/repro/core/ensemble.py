"""Policy lockstep: one page-cross policy slot answered by several policies.

In the paper's design (Fig. 5) a page-cross policy only answers *issue* or
*discard* for the candidates the prefetcher proposes; the engine reaches it
only through :meth:`~repro.core.policies.PageCrossPolicy.decide` and the
training hooks, and no policy writes engine state.  So the runs of two
policies are the same machine until the first candidate they disagree on.

:class:`PolicyEnsemble` exploits that.  Installed as one engine's policy,
it asks every *live* member to decide each candidate and answers with the
leader's (first member's) decision.  A member whose ``Decision.issue``
differs from the leader's is dropped on the spot: from then on it would
have driven a different machine, so it hears no further hooks and its
config must be simulated again.  Every training hook goes to every live
member, each with its own :class:`~repro.core.update_buffers.TrainingRecord`.
A member still live when the drive ends agreed on every decision, so the
leader's result is exactly its solo result (only the ``policy`` name
differs).  :func:`repro.cpu.simulator.simulate_policies` builds the groups
and re-runs the dropped members.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.context import FeatureContext, PrefetchRequest
from repro.core.policies import Decision, PageCrossPolicy
from repro.core.system_state import EpochStats, SystemState
from repro.core.update_buffers import TrainingRecord

__all__ = ["PolicyEnsemble", "dispatch_of"]


def dispatch_of(policy: PageCrossPolicy) -> tuple[bool, bool]:
    """The policy attributes that change how the engine dispatches a candidate.

    Policies that share an engine must agree on them:
    ``(requires_translation_hit, filter_at_native_boundary)``.
    """
    return (policy.requires_translation_hit,
            getattr(policy, "filter_at_native_boundary", False))


class PolicyEnsemble(PageCrossPolicy):
    """Drive several page-cross policies in lockstep until they diverge.

    ``members[0]`` leads: its decisions are the engine's.  ``live`` holds the
    input positions of the members still in lockstep (the leader first) and
    ``dropped`` those that diverged, in the order they did.  Every member
    must agree on :func:`dispatch_of`, the two policy attributes that change
    the engine's dispatch.
    """

    def __init__(self, members: Sequence[PageCrossPolicy]):
        if not members:
            raise ValueError("a policy ensemble needs at least one member")
        leader = members[0]
        self.name = leader.name
        dispatch = dispatch_of(leader)
        self.requires_translation_hit, self.filter_at_native_boundary = dispatch
        for member in members[1:]:
            if dispatch_of(member) != dispatch:
                raise ValueError(
                    f"policy {member.name!r} cannot share an engine with "
                    f"{leader.name!r}: they dispatch page-cross candidates differently")
        self.members: list[PageCrossPolicy] = list(members)
        self.live: list[int] = list(range(len(members)))
        self.dropped: list[int] = []
        #: the live members' records from the last decide(), held until that
        #: candidate's on_issued/on_discarded (None: no decide is pending)
        self._pending: Optional[list[Optional[TrainingRecord]]] = None
        self._live_members = list(self.members)

    def _records(self) -> list[Optional[TrainingRecord]]:
        records = self._pending
        self._pending = None
        if records is None:  # the hook follows no decide (native-boundary arm)
            return [None] * len(self._live_members)
        return records

    def decide(self, req: PrefetchRequest, ctx: FeatureContext, state: SystemState) -> Decision:
        """The leader's decision; drops every member that decides otherwise."""
        decisions = [m.decide(req, ctx, state) for m in self._live_members]
        issue = decisions[0].issue
        if any(d.issue != issue for d in decisions):
            agrees = [d.issue == issue for d in decisions]
            self.dropped.extend(p for p, ok in zip(self.live, agrees) if not ok)
            self.live = [p for p, ok in zip(self.live, agrees) if ok]
            decisions = [d for d, ok in zip(decisions, agrees) if ok]
            self._live_members = [self.members[k] for k in self.live]
        self._pending = [d.record for d in decisions]
        return Decision(issue)

    # -- training hooks: fanned out to every live member ---------------------

    def on_discarded(self, virt_line: int, record: Optional[TrainingRecord]) -> None:
        """Each live member hears the discard with its own record."""
        for member, own in zip(self._live_members, self._records()):
            member.on_discarded(virt_line, own)

    def on_issued(self, phys_line: int, record: Optional[TrainingRecord]) -> None:
        """Each live member hears the issue with its own record."""
        for member, own in zip(self._live_members, self._records()):
            member.on_issued(phys_line, own)

    def on_demand_miss(self, virt_line: int) -> None:
        """Forward a demand L1D miss to every live member."""
        for member in self._live_members:
            member.on_demand_miss(virt_line)

    def on_pcb_hit(self, phys_line: int) -> None:
        """Forward a PCB block's first demand hit to every live member."""
        for member in self._live_members:
            member.on_pcb_hit(phys_line)

    def on_pcb_evict_unused(self, phys_line: int) -> None:
        """Forward an unused PCB eviction to every live member."""
        for member in self._live_members:
            member.on_pcb_evict_unused(phys_line)

    def on_epoch(self, epoch: EpochStats) -> None:
        """Forward the finished epoch to every live member."""
        for member in self._live_members:
            member.on_epoch(epoch)

    def storage_bits(self) -> int:
        """The leader's hardware budget (the ensemble itself is not hardware)."""
        return self.members[0].storage_bits()
