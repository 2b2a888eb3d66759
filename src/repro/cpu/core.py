"""Cycle-approximate out-of-order core engine.

The timing model is a ROB-timeline model: each trace record is dispatched no
earlier than (a) the front end delivered it and (b) the instruction ROB-many
slots older has retired; it completes after its (translation + memory)
latency; retirement is in-order at retire-width.  Independent misses whose
dispatch times overlap therefore overlap in flight (MLP), bounded by MSHRs,
while ROB-filling long-latency misses stall dispatch — the first-order
behaviour of the paper's 352-entry 6-wide core.

The engine owns the page-cross prefetch plumbing of Figure 5: classify each
L1D prefetch candidate (step A), consult the page-cross policy for crossers
(step B), translate via dTLB/sTLB (step C), trigger a speculative walk when
needed (step D), then fill with the PCB set and register the pUB/vUB
training state.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.context import FeatureContext
from repro.core.policies import PageCrossPolicy
from repro.core.system_state import EpochStats, SystemState
from repro.cpu.branch import HashedPerceptronBranchPredictor
from repro.mem.hierarchy import MemoryHierarchy
from repro.params import SystemParams
from repro.prefetch.base import L1dPrefetcher
from repro.prefetch.l2_adapters import L2Prefetcher
from repro.prefetch.next_line import NextLinePrefetcher
from repro.vm.address import LINE_SHIFT, PAGE_4K_SHIFT, VA_MASK, canonical
from repro.vm.page_table import PageTable, Translation
from repro.vm.tlb import Tlb
from repro.vm.walker import PageWalker
from repro.workloads.trace import BRANCH, DEPENDS, LOAD, MISPREDICT, STORE, TAKEN

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system_state import EpochStats as _EpochStats


class PgcStats:
    """Page-cross prefetching counters maintained by the engine."""

    __slots__ = (
        "candidates",
        "issued",
        "discarded",
        "discarded_no_translation",
        "same_translation",
        "_snap",
    )

    def __init__(self) -> None:
        self.candidates = 0
        self.issued = 0
        self.discarded = 0
        self.discarded_no_translation = 0
        #: crossed a 4KB boundary but stayed inside the trigger's (2MB) page
        self.same_translation = 0
        self._snap = (0, 0, 0, 0, 0)

    def snapshot(self) -> None:
        """Mark the warm-up boundary for the page-cross counters."""
        self._snap = (
            self.candidates,
            self.issued,
            self.discarded,
            self.discarded_no_translation,
            self.same_translation,
        )

    def measured(self) -> dict[str, int]:
        """Page-cross counters over the measured region."""
        s = self._snap
        return {
            "candidates": self.candidates - s[0],
            "issued": self.issued - s[1],
            "discarded": self.discarded - s[2],
            "discarded_no_translation": self.discarded_no_translation - s[3],
            "same_translation": self.same_translation - s[4],
        }


class _PolicyListener:
    """Routes L1D PCB block events (Figure 7) to the page-cross policy."""

    __slots__ = ("policy",)

    def __init__(self, policy: PageCrossPolicy):
        self.policy = policy

    def on_pcb_hit(self, phys_line: int) -> None:
        """Forward the pUB positive event."""
        self.policy.on_pcb_hit(phys_line)

    def on_pcb_evict_unused(self, phys_line: int) -> None:
        """Forward the pUB negative event."""
        self.policy.on_pcb_evict_unused(phys_line)


class CoreEngine:
    """One simulated core: front end, ROB timeline, memory, prefetch plumbing."""

    def __init__(
        self,
        params: SystemParams,
        hierarchy: MemoryHierarchy,
        page_table: PageTable,
        walker: PageWalker,
        dtlb: Tlb,
        itlb: Tlb,
        stlb: Tlb,
        l1d_prefetcher: L1dPrefetcher,
        policy: PageCrossPolicy,
        l2_prefetcher: Optional[L2Prefetcher] = None,
        epoch_instructions: int = 2048,
    ):
        self.params = params
        self.hierarchy = hierarchy
        self.page_table = page_table
        self.walker = walker
        self.dtlb = dtlb
        self.itlb = itlb
        self.stlb = stlb
        self.prefetcher = l1d_prefetcher
        self.policy = policy
        self.l2_prefetcher = l2_prefetcher
        self.l1i_prefetcher = NextLinePrefetcher()
        self.branch_predictor = HashedPerceptronBranchPredictor()
        hierarchy.l1d.listener = _PolicyListener(policy)

        self.fctx = FeatureContext()
        self.system_state = SystemState(in_flight=hierarchy.l1d.in_flight_misses)
        self.pgc = PgcStats()

        core = params.core
        self._fetch_cpi = 1.0 / core.issue_width
        self._retire_cpi = 1.0 / core.retire_width
        self._rob = core.rob_entries
        self._mispredict_penalty = core.branch_mispredict_penalty

        # timeline state
        self.instructions = 0
        self.fetch_t = 0.0
        self.retire_t = 0.0
        self._rob_head_retire = 0.0
        self._rob_q: deque[tuple[int, float]] = deque()
        self._last_load_complete = 0.0
        self._last_iline = -1
        self.rob_stall_cycles = 0.0
        self._rob_block_end = 0.0

        # epoch bookkeeping
        self.epoch_instructions = epoch_instructions
        self._next_epoch = epoch_instructions
        self._epoch_base: Optional[dict[str, float]] = None
        self._reset_epoch_base()

        # warm-up boundary
        self._measure_start_instr = 0
        self._measure_start_cycle = 0.0
        self.measuring = False

        # seams: the hot paths call through these cached bound references (no
        # attribute chain per call), which an outside tracer may wrap.
        # epoch_listener (if set) hears each finished epoch.
        self.epoch_listener: Optional[Callable[["CoreEngine", "_EpochStats"], None]] = None
        self._pf_on_access = l1d_prefetcher.on_access
        self._policy_decide = policy.decide
        self._walk = walker.walk
        self._mem_load = hierarchy.load
        self._mem_store = hierarchy.store
        self._mem_ifetch = hierarchy.ifetch

    # ------------------------------------------------------------------
    # translation paths

    # the data and instruction seams stay named methods: the stepper hoists
    # them and tracers wrap them by name; a stored partial would be an
    # engine -> engine cycle (DESIGN.md §16)
    def _translate_data(self, vaddr: int, t: float) -> tuple[float, Translation]:
        return self._translate(self.dtlb, vaddr, t)

    def _translate_instruction(self, vaddr: int, t: float) -> tuple[float, Translation]:
        return self._translate(self.itlb, vaddr, t)

    def _translate(self, l1_tlb: Tlb, vaddr: int, t: float) -> tuple[float, Translation]:
        """L1 TLB -> sTLB -> demand walk; returns (latency, translation)."""
        latency = float(l1_tlb.latency)
        tr = l1_tlb.lookup(vaddr)
        if tr is not None:
            return latency, tr
        tr = self.stlb.lookup(vaddr)
        latency += self.stlb.latency
        if tr is None:
            walk = self._walk(vaddr, t + latency)
            latency += walk.latency
            tr = walk.translation
            self.stlb.insert(tr)
        l1_tlb.insert(tr)
        return latency, tr

    # ------------------------------------------------------------------
    # prefetch plumbing (Figure 5)

    def _handle_prefetches(self, trigger_vaddr: int, trigger_tr: Translation, t: float, pc: int, hit: bool) -> None:
        requests = self._pf_on_access(pc, trigger_vaddr, hit, t)
        if not requests:
            return
        self._dispatch_prefetches(requests, trigger_vaddr, trigger_tr, t, pc)

    def _dispatch_prefetches(self, requests, trigger_vaddr: int, trigger_tr: Translation, t: float, pc: int) -> None:
        """Route prefetch candidates through steps A-D of Figure 5.

        The one page-cross decision path: the generator loop and the fused
        record kernel (:func:`repro.cpu.fastpath.core_stepper`) both call it,
        the kernel only when an access produced candidates.
        """
        trigger_page = trigger_vaddr >> PAGE_4K_SHIFT  # profile: prefetcher
        native_shift = trigger_tr.page_shift
        # hoisted loop invariants (this runs once per candidate-producing
        # access; inlined canonical() and Translation.physical())
        l1d = self.hierarchy.l1d
        l1d_sets, l1d_set_mask = l1d._sets, l1d._set_mask
        prefetch_l1d = self.hierarchy.prefetch_l1d
        policy = self.policy
        pgc = self.pgc
        tr_base = trigger_tr.pfn << native_shift
        tr_off_mask = trigger_tr.page_bytes - 1
        trigger_native_vpn = trigger_vaddr >> native_shift
        filter_native = getattr(policy, "filter_at_native_boundary", False)
        state = self.system_state
        for req in requests:
            target = req.vaddr & VA_MASK
            req.vaddr = target
            if (target >> PAGE_4K_SHIFT) == trigger_page:
                # in-page prefetch: same frame, no policy involvement (step A);
                # prefetch_l1d is a no-op on a resident line, so a residency
                # probe skips the call for the common already-cached target
                paddr = tr_base | (target & tr_off_mask)
                pline = paddr >> LINE_SHIFT
                if l1d_sets[pline & l1d_set_mask].get(pline) is None:
                    prefetch_l1d(paddr, t)
                continue
            pgc.candidates += 1  # profile: pgc-filter
            same_translation = (target >> native_shift) == trigger_native_vpn
            if same_translation:
                pgc.same_translation += 1
            filter_this = not (same_translation and filter_native)
            if filter_this:
                state.now = t
                decision = self._policy_decide(req, self.fctx, state)
                if not decision.issue:
                    pgc.discarded += 1
                    policy.on_discarded(target >> LINE_SHIFT, decision.record)
                    continue
                record = decision.record
            else:
                record = None
            if same_translation:  # profile: dtlb+walks
                # 4KB-cross within a 2MB page: translation already in hand
                paddr = tr_base | (target & tr_off_mask)
                trans_lat = 0.0
            else:
                tr = self.dtlb.lookup(target, speculative=True)
                trans_lat = float(self.dtlb.latency)
                if tr is None:
                    tr = self.stlb.lookup(target, speculative=True)
                    if tr is not None:
                        trans_lat += self.stlb.latency
                if tr is None:
                    if policy.requires_translation_hit:
                        pgc.discarded += 1  # profile: pgc-filter
                        pgc.discarded_no_translation += 1
                        policy.on_discarded(target >> LINE_SHIFT, record)
                        continue
                    walk = self._walk(target, t + trans_lat, speculative=True)  # profile: dtlb+walks
                    trans_lat += walk.latency
                    tr = walk.translation
                    self.stlb.insert(tr, from_prefetch=True)
                    self.dtlb.insert(tr, from_prefetch=True)
                paddr = tr.physical(target)
            pgc.issued += 1  # profile: prefetcher
            prefetch_l1d(paddr, t + trans_lat, True)  # pcb=True
            policy.on_issued(paddr >> LINE_SHIFT, record)  # profile: pgc-filter

    # ------------------------------------------------------------------
    # main per-record step

    def step(self, pc: int, vaddr: int, flags: int, gap: int) -> None:
        """Advance the core by one trace record."""
        self.instructions += 1 + gap
        n = self.instructions

        # front end: fetch bandwidth plus I-side miss penalties
        fetch_t = self.fetch_t + (1 + gap) * self._fetch_cpi
        iline = pc >> LINE_SHIFT
        if iline != self._last_iline:
            self._last_iline = iline
            ilat, itr = self._translate_instruction(pc, fetch_t)
            ibase = itr.physical(pc)
            flat = self._mem_ifetch(ibase, fetch_t + ilat)
            penalty = (ilat - self.itlb.latency) + (flat - self.hierarchy.l1i.latency)
            if penalty > 0:
                fetch_t += penalty
            for target_line in self.l1i_prefetcher.on_fetch(ibase >> LINE_SHIFT):
                self.hierarchy.prefetch_l1i(target_line << LINE_SHIFT, fetch_t)
            # long gaps span additional sequential code lines (4B/instr);
            # the run is clamped at the translated frame's edge — itr only
            # maps this page, so fetching past it would target a physical
            # address the translation never covered
            extra_lines = (gap * 4) >> LINE_SHIFT
            if extra_lines:
                page_mask = (1 << itr.page_shift) - 1
                frame_left = (page_mask - (ibase & page_mask)) >> LINE_SHIFT
                if extra_lines > frame_left:
                    extra_lines = frame_left
                for k in range(1, min(extra_lines, 8) + 1):
                    flat = self._mem_ifetch(ibase + (k << LINE_SHIFT), fetch_t)
                    if flat > self.hierarchy.l1i.latency:
                        fetch_t += flat - self.hierarchy.l1i.latency

        # dispatch: ROB occupancy constraint
        rob_q = self._rob_q
        limit = n - self._rob
        while rob_q and rob_q[0][0] <= limit:
            self._rob_head_retire = rob_q.popleft()[1]
        dispatch = fetch_t
        if self._rob_head_retire > dispatch:
            # count only newly-blocked wall-clock time, so the accumulated
            # stall is a true fraction of elapsed cycles
            blocked_from = max(dispatch, self._rob_block_end)
            if self._rob_head_retire > blocked_from:
                self.rob_stall_cycles += self._rob_head_retire - blocked_from
                self._rob_block_end = self._rob_head_retire
            dispatch = self._rob_head_retire
        if flags & DEPENDS and self._last_load_complete > dispatch:
            dispatch = self._last_load_complete

        # memory access
        if flags & (LOAD | STORE):
            trans_lat, tr = self._translate_data(vaddr, dispatch)
            paddr = tr.physical(vaddr)
            t_mem = dispatch + trans_lat
            if flags & LOAD:
                mlat, hit = self._mem_load(paddr, t_mem)
                complete = t_mem + mlat
                self._last_load_complete = complete
                if not hit:
                    self.policy.on_demand_miss(vaddr >> LINE_SHIFT)
                    self.prefetcher.on_fill(vaddr, mlat)
                    if self.l2_prefetcher is not None:
                        for line in self.l2_prefetcher.on_access(paddr >> LINE_SHIFT, t_mem):
                            self.hierarchy.prefetch_l2(line << LINE_SHIFT, t_mem)
            else:
                complete = t_mem + self._mem_store(paddr, t_mem)
                hit = True
            self.fctx.update(pc, vaddr)
            self._handle_prefetches(vaddr, tr, t_mem, pc, hit)
        else:
            complete = dispatch + 1.0

        # branch resolution: the trace either carries a conditional branch
        # for the perceptron predictor to call, or a legacy forced mispredict.
        # An ordinary branch resolves a few cycles after dispatch; only a
        # branch in a dependent (pointer-chasing) record waits for the load,
        # so stream misses are not artificially serialised by mispredicts.
        mispredicted = bool(flags & MISPREDICT)
        if flags & BRANCH:
            correct = self.branch_predictor.predict_and_train(pc + 0x3C, bool(flags & TAKEN))
            mispredicted = mispredicted or not correct
        if mispredicted:
            resolve_at = complete if flags & DEPENDS else dispatch + 8.0
            resolve = resolve_at + self._mispredict_penalty
            if resolve > fetch_t:
                fetch_t = resolve
        self.fetch_t = fetch_t

        # in-order retirement
        retire = self.retire_t + (1 + gap) * self._retire_cpi
        if complete > retire:
            retire = complete
        self.retire_t = retire
        rob_q.append((n, retire))

        if n >= self._next_epoch:
            self._end_epoch()

    # ------------------------------------------------------------------
    # epochs (Figure 8 statistics feed)

    def _epoch_counters(self) -> dict[str, float]:
        return {
            "instr": float(self.instructions),
            "cycles": self.retire_t,
            "l1d_misses": float(self.hierarchy.l1d.demand_stats.misses),
            "l1d_accesses": float(self.hierarchy.l1d.demand_stats.accesses),
            "l1i_misses": float(self.hierarchy.l1i.demand_stats.misses),
            "llc_misses": float(self.hierarchy.llc_core_stats.misses),
            "llc_accesses": float(self.hierarchy.llc_core_stats.accesses),
            "stlb_misses": float(self.stlb.stats.misses),
            "stlb_accesses": float(self.stlb.stats.accesses),
            "pgc_useful": float(self.hierarchy.l1d.pgc_useful),
            "pgc_useless": float(self.hierarchy.l1d.pgc_useless),
            "rob_stall": self.rob_stall_cycles,
        }

    def _reset_epoch_base(self) -> None:
        self._epoch_base = self._epoch_counters()

    def _end_epoch(self) -> None:
        self._next_epoch += self.epoch_instructions
        now = self._epoch_counters()
        base = self._epoch_base
        self._epoch_base = now
        instr = now["instr"] - base["instr"]
        cycles = now["cycles"] - base["cycles"]
        if instr <= 0:
            return
        per_ki = 1000.0 / instr

        def rate(m: str, a: str) -> float:
            accesses = now[a] - base[a]
            return (now[m] - base[m]) / accesses if accesses > 0 else 0.0

        epoch = EpochStats(
            instructions=int(instr),
            cycles=cycles,
            ipc=instr / cycles if cycles > 0 else 0.0,
            pgc_useful=int(now["pgc_useful"] - base["pgc_useful"]),
            pgc_useless=int(now["pgc_useless"] - base["pgc_useless"]),
            llc_miss_rate=rate("llc_misses", "llc_accesses"),
            llc_mpki=(now["llc_misses"] - base["llc_misses"]) * per_ki,
            l1i_mpki=(now["l1i_misses"] - base["l1i_misses"]) * per_ki,
            rob_stall_fraction=(now["rob_stall"] - base["rob_stall"]) / cycles if cycles > 0 else 0.0,
        )
        state = self.system_state
        state.l1d_mpki = (now["l1d_misses"] - base["l1d_misses"]) * per_ki
        state.l1d_miss_rate = rate("l1d_misses", "l1d_accesses")
        state.llc_mpki = epoch.llc_mpki
        state.llc_miss_rate = epoch.llc_miss_rate
        state.stlb_mpki = (now["stlb_misses"] - base["stlb_misses"]) * per_ki
        state.stlb_miss_rate = rate("stlb_misses", "stlb_accesses")
        state.l1i_mpki = epoch.l1i_mpki
        state.ipc = epoch.ipc
        state.rob_stall_fraction = epoch.rob_stall_fraction
        state.last_epoch = epoch
        self.policy.on_epoch(epoch)
        if self.epoch_listener is not None:
            self.epoch_listener(self, epoch)

    # ------------------------------------------------------------------
    # warm-up / measurement boundary

    def begin_measurement(self) -> None:
        """Snapshot all statistics: everything before this call was warm-up."""
        self._measure_start_instr = self.instructions
        self._measure_start_cycle = self.retire_t
        self.measuring = True
        self.hierarchy.snapshot()
        self.dtlb.snapshot()
        self.itlb.snapshot()
        self.stlb.snapshot()
        self.walker.snapshot()
        self.pgc.snapshot()
        self.branch_predictor.snapshot()

    @property
    def measured_instructions(self) -> int:
        """Instructions retired since begin_measurement()."""
        return self.instructions - self._measure_start_instr

    @property
    def measured_cycles(self) -> float:
        """Cycles elapsed since begin_measurement()."""
        return self.retire_t - self._measure_start_cycle
