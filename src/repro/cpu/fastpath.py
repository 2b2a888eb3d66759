"""The fused record kernel: the simulation hot path over packed traces.

:func:`core_stepper` is the one fused record body.  It replicates
:meth:`CoreEngine.step` statement for statement for the dominant record
case — same I-line, dTLB hit, L1 hit under LRU — with the engine's timeline
scalars hoisted into locals: the exact side effects of
:meth:`Tlb.lookup`, :meth:`Cache.lookup` and the hierarchy hit timing are
replayed in place (same statistics increments, same LRU ticks, same float
operation order), so a fused run is bit-identical to the generator loop.
Anything else falls back to the unmodified slow machinery:

* epoch rollovers stay on the fused loop: the record runs through the fused
  body, then the hoisted scalars are flushed and
  :meth:`CoreEngine._end_epoch` fires inline — exactly the tail of
  :meth:`CoreEngine.step` — so epoch statistics, the policy's ``on_epoch``
  feed, and any ``epoch_listener`` see exactly the state they would in a
  generator-driven run;
* TLB misses call the engine's ``_translate_data`` / ``_translate_instruction``
  (the fused probe is side-effect-free, so the full lookup inside them
  counts the miss exactly once);
* cache misses — and every access when a cache's replacement policy is not
  plain-LRU-on-hit — call the hierarchy's ``load``/``store``/``ifetch``;
* prefetch candidates dispatch through the engine's
  ``CoreEngine._dispatch_prefetches``, the one page-cross decision path,
  called only when an access produced candidates;
* a replayable prefetcher's candidates may come from the pack's recorded
  :class:`~repro.workloads.packed.PrefetchStream` instead of the live
  prefetcher (``stream=``, passed only by :func:`repro.cpu.simulator.simulate`
  for a fresh engine over the whole pack): in-page targets issue inline with
  no request object, and only a page-cross candidate is built into a
  :class:`~repro.core.context.PrefetchRequest` for the dispatch above.

The body runs inside a **generator coroutine**, so its ~50 hoisted locals
survive between calls: a mix core parks at a bare ``yield`` when the
scheduler switches cores, and resuming it costs one ``send()``.  The
stepper reports events; its callers decide what each one means::

    gen = core_stepper(engine, records, warm_limit, sim_limit, i)
    next(gen)                          # run the hoists, park before record 0
    event, x = gen.send((bound_t, bound_i))   # run until an event:
    #   ("bound", retire_t)  — (retire_t, i) reached the scheduling bound;
    #                          resume with the next bound
    #   ("finish", retire_t) — the measured region just completed; engine
    #                          scalars are flushed so the caller can collect
    #                          the result; resume with the records to replay
    #   ("end", measuring)   — the record source ran out (``measuring``: the
    #                          warm-up had completed); resume with the next
    #                          record source
    gen.close()                        # flush scalars back to the engine

The core may keep stepping while ``(retire_t, i) < (bound_t, bound_i)``,
which is exactly the condition under which re-pushing and popping the mix
scheduler's heap would return the same core again.  There are two callers:

* :func:`drive_packed` (single core, and every stitched segment of a
  phase-sampled run) sends the unbounded bound ``(inf, 0)`` once, so the
  run ends at ``finish`` — or at ``end``, which raises the generator loop's
  truncation errors;
* :func:`repro.cpu.multicore._drive_mix_packed` schedules the cores of a
  mix by their bounds, and answers ``finish`` and ``end`` alike with a
  fresh pass over the core's records (:func:`repro.cpu.fastpath_mix.core_pass`),
  so a finished core replays and a finite trace wraps.

Event placement matches the generator loops' per-record checks: warm-up
ends at the first record boundary at or after ``warm_limit``
(``begin_measurement`` is looked up per call, so an attached
:class:`~repro.validate.InvariantChecker`'s wrapper still fires), the
finish event fires once ``sim_limit`` instructions have been measured, and
the bound check runs after each record including the finishing one.  The
timeline scalars are flushed to the engine at every point the outside
world may look at it — epoch rollovers, ``begin_measurement``, the finish
event, and generator close — and only then.

Each ``# profile: <section>`` comment opens the section that the sampling
profiler (:class:`repro.obs.Probe`) charges its line and the following ones
to, up to the next such comment.
"""

from __future__ import annotations

from math import nextafter
from time import perf_counter
from typing import Iterable, Optional

from repro.core.context import PrefetchRequest
from repro.cpu.branch import DEFAULT_HISTORY_LENGTHS, HashedPerceptronBranchPredictor
from repro.cpu.core import CoreEngine
from repro.cpu.simulator import count_drive, raise_if_truncated
from repro.mem.replacement import LruPolicy
from repro.prefetch.next_line import NextLinePrefetcher
from repro.vm.address import LINE_SHIFT, PAGE_4K_SHIFT, PAGE_2M_SHIFT
from repro.vm.page_table import Translation
from repro.workloads.packed import PackedTrace, PrefetchStream
from repro.workloads.trace import BRANCH, DEPENDS, LOAD, MISPREDICT, STORE, TAKEN, Record

__all__ = ["core_stepper", "drive_packed"]

_INF = float("inf")
_NEG_INF = -_INF

#: the scheduling bound of a single-core run: no other core to yield to
_UNBOUNDED = (_INF, 0)


def _lru_fusible(cache) -> bool:
    """True when the cache's hit-promotion is exactly LruPolicy.on_hit.

    Covers ``lru`` and ``pa-lru`` (which overrides only ``on_fill``); any
    policy with its own ``on_hit`` (SRRIP, BRRIP, random, a future custom
    policy) routes every access through the normal lookup path instead.
    """
    policy = cache._policy
    return isinstance(policy, LruPolicy) and type(policy).on_hit is LruPolicy.on_hit


def core_stepper(engine: CoreEngine, records: Iterable[Record], warm_limit: int,
                 sim_limit: int, core_index: int,
                 stream: Optional[PrefetchStream] = None):
    """Build the resumable fused stepper for one core (see the module doc).

    ``records`` is the first record source to drive; every ``finish`` or
    ``end`` event is answered with the next one.  ``stream`` replays the
    recorded prefetch candidates of the records' memory accesses in place
    of calling the engine's prefetcher (see :func:`drive_packed`); it covers
    exactly one pass from the engine's first record, so a caller that
    passes it must not resume the stepper after either event.
    """
    # ---- loop-invariant hoists ------------------------------------------
    end_epoch = engine._end_epoch
    h = engine.hierarchy
    l1d = h.l1d
    l1i = h.l1i
    l1d_sets, l1d_mask = l1d._sets, l1d._set_mask
    l1i_sets, l1i_mask = l1i._sets, l1i._set_mask
    l1d_stats, l1d_demand = l1d.stats, l1d.demand_stats
    l1i_stats, l1i_demand = l1i.stats, l1i.demand_stats
    l1d_pol, l1i_pol = l1d._policy, l1i._policy
    l1d_fused = _lru_fusible(l1d)
    l1i_fused = _lru_fusible(l1i)
    l1d_listener, l1i_listener = l1d.listener, l1i.listener
    l1d_lat, l1i_lat = l1d.latency, l1i.latency
    l1d_lat_f, l1i_lat_f = float(l1d_lat), float(l1i_lat)
    dtlb, itlb = engine.dtlb, engine.itlb
    dtlb_sets, dtlb_mask, dtlb_stats = dtlb._sets, dtlb._set_mask, dtlb.stats
    itlb_sets, itlb_mask, itlb_stats = itlb._sets, itlb._set_mask, itlb.stats
    dtlb_lat_f = float(dtlb.latency)
    itlb_lat = itlb.latency
    itlb_lat_f = float(itlb_lat)
    translate_data = engine._translate_data
    translate_instr = engine._translate_instruction
    mem_load, mem_store, mem_ifetch = engine._mem_load, engine._mem_store, engine._mem_ifetch
    pf_on_access = engine._pf_on_access
    dispatch_pf = engine._dispatch_prefetches
    replay = stream is not None
    if replay:
        s_ends, s_targets = stream.ends, stream.targets
        s_deltas, s_ranks = stream.deltas, stream.ranks
        prefetch_l1d = h.prefetch_l1d
    #: memory records driven so far (the stream's record index), and the
    #: first recorded candidate of the next one
    mem_k = 0
    c_lo = 0
    fctx = engine.fctx
    fctx_seen = fctx._seen_pages
    fctx_cap = fctx._seen_cap
    fctx_ph = fctx.pc_history
    fctx_vh = fctx.va_history
    bp = engine.branch_predictor
    bp_predict = bp.predict_and_train
    # perceptron fusion needs the default geometric history set (the index
    # hashes below are unrolled for exactly those five slice lengths)
    bp_fused = (type(bp) is HashedPerceptronBranchPredictor
                and bp.history_lengths == DEFAULT_HISTORY_LENGTHS)
    if bp_fused:
        bt0, bt1, bt2, bt3, bt4 = bp.tables
        bp_imask = bp.index_mask
        bp_thr = bp.threshold
        bp_lo, bp_hi = bp.weight_lo, bp.weight_hi
    policy_on_demand_miss = engine.policy.on_demand_miss
    pf_on_fill = engine.prefetcher.on_fill
    l2pf = engine.l2_prefetcher
    prefetch_l2 = h.prefetch_l2
    l1i_pf = engine.l1i_prefetcher
    l1i_pf_on_fetch = l1i_pf.on_fetch
    l1i_nl_fused = type(l1i_pf) is NextLinePrefetcher and l1i_pf.degree == 2
    prefetch_l1i = h.prefetch_l1i
    fetch_cpi = engine._fetch_cpi
    retire_cpi = engine._retire_cpi
    rob_entries = engine._rob
    mispredict_penalty = engine._mispredict_penalty
    rob_q = engine._rob_q
    rob_popleft = rob_q.popleft
    rob_append = rob_q.append
    LS = LINE_SHIFT
    S4, S2 = PAGE_4K_SHIFT, PAGE_2M_SHIFT
    F_MEM = LOAD | STORE

    core = core_index

    # ---- hoisted timeline scalars ---------------------------------------
    instructions = engine.instructions
    fetch_t = engine.fetch_t
    retire_t = engine.retire_t
    rob_head_retire = engine._rob_head_retire
    rob_block_end = engine._rob_block_end
    rob_stall = engine.rob_stall_cycles
    last_load_complete = engine._last_load_complete
    last_iline = engine._last_iline
    next_epoch = engine._next_epoch
    measuring = False
    #: single per-record boundary compare: the warm-up limit until
    #: measurement begins, then the absolute finish point, then +inf while
    #: a finished core replays
    boundary = warm_limit

    # the core yields once (retire_t, core) >= (bound_t, bound_i): for a
    # lower bound_i that is retire_t >= bound_t, i.e. retire_t above the
    # next float below bound_t, so one compare per record decides
    bound_t, bound_i = yield ("ready", 0.0)
    yield_above = bound_t if bound_i > core else nextafter(bound_t, _NEG_INF)
    try:
        while True:  # profile: l1d-hit
            for pc, vaddr, flag, gap in records:
                instructions = n = instructions + 1 + gap

                # front end
                fetch_t += (1 + gap) * fetch_cpi  # profile: front-end
                iline = pc >> LS
                if iline != last_iline:
                    last_iline = iline
                    vpn = pc >> S4
                    entry = itlb_sets[vpn & itlb_mask].get((vpn, S4))
                    shift = S4
                    if entry is None:
                        vpn = pc >> S2
                        entry = itlb_sets[vpn & itlb_mask].get((vpn, S2))
                        shift = S2
                    if entry is not None:
                        # fused iTLB hit (== Tlb.lookup's hit arm)
                        itlb._tick = t_k = itlb._tick + 1
                        itlb_stats.accesses += 1
                        itlb_stats.hits += 1
                        entry[1] = t_k
                        if entry[2]:
                            itlb.prefetch_hits += 1
                            entry[2] = False
                        ilat = itlb_lat_f
                        ibase = (entry[0] << shift) | (pc & ((1 << shift) - 1))
                        itr_shift = shift
                    else:
                        # side-effect-free probe missed: the full path records it
                        ilat, itr = translate_instr(pc, fetch_t)
                        ibase = itr.physical(pc)
                        itr_shift = itr.page_shift
                    t_i = fetch_t + ilat
                    fline = ibase >> LS
                    iset = l1i_sets[fline & l1i_mask]
                    blk = iset.get(fline)
                    if blk is not None and l1i_fused:
                        # fused L1I hit (== Cache.lookup + ifetch's hit arm)
                        l1i_stats.accesses += 1
                        l1i_stats.hits += 1
                        l1i_demand.accesses += 1
                        l1i_demand.hits += 1
                        l1i_pol._tick = p_k = l1i_pol._tick + 1
                        blk.lru = p_k
                        del iset[fline]
                        iset[fline] = blk
                        if blk.prefetched and blk.hits == 0:
                            l1i.prefetch_useful += 1
                            if blk.pcb:
                                l1i.pgc_useful += 1
                                if l1i_listener is not None:
                                    l1i_listener.on_pcb_hit(fline)
                        blk.hits += 1
                        flat = blk.ready - t_i
                        if flat < l1i_lat_f:
                            flat = l1i_lat_f
                    else:
                        flat = mem_ifetch(ibase, t_i)
                    penalty = (ilat - itlb_lat) + (flat - l1i_lat)
                    if penalty > 0:
                        fetch_t += penalty
                    if l1i_nl_fused:
                        # fused next-line I-prefetcher (== on_fetch, degree 2);
                        # prefetch_l1i returns without side effects on a resident
                        # line, so probing here skips the call entirely
                        if fline != l1i_pf._last_line:
                            l1i_pf._last_line = fline
                            nline = fline + 1
                            if l1i_sets[nline & l1i_mask].get(nline) is None:
                                prefetch_l1i(nline << LS, fetch_t)
                            nline = fline + 2
                            if l1i_sets[nline & l1i_mask].get(nline) is None:
                                prefetch_l1i(nline << LS, fetch_t)
                    else:
                        for target_line in l1i_pf_on_fetch(fline):
                            prefetch_l1i(target_line << LS, fetch_t)
                    extra_lines = (gap * 4) >> LS
                    if extra_lines:
                        page_mask = (1 << itr_shift) - 1
                        frame_left = (page_mask - (ibase & page_mask)) >> LS
                        if extra_lines > frame_left:
                            extra_lines = frame_left
                        if extra_lines > 8:
                            extra_lines = 8
                        for k in range(1, extra_lines + 1):
                            flat = mem_ifetch(ibase + (k << LS), fetch_t)
                            if flat > l1i_lat:
                                fetch_t += flat - l1i_lat

                # dispatch: ROB occupancy constraint
                limit = n - rob_entries  # profile: l1d-hit
                while rob_q and rob_q[0][0] <= limit:
                    rob_head_retire = rob_popleft()[1]
                dispatch = fetch_t
                if rob_head_retire > dispatch:
                    blocked_from = dispatch if dispatch > rob_block_end else rob_block_end
                    if rob_head_retire > blocked_from:
                        rob_stall += rob_head_retire - blocked_from
                        rob_block_end = rob_head_retire
                    dispatch = rob_head_retire
                if flag & DEPENDS and last_load_complete > dispatch:
                    dispatch = last_load_complete

                # memory access
                if flag & F_MEM:
                    vpn = vaddr >> S4  # profile: dtlb+walks
                    entry = dtlb_sets[vpn & dtlb_mask].get((vpn, S4))
                    shift = S4
                    if entry is None:
                        vpn = vaddr >> S2
                        entry = dtlb_sets[vpn & dtlb_mask].get((vpn, S2))
                        shift = S2
                    if entry is not None:
                        # fused dTLB hit; Translation built lazily below
                        dtlb._tick = t_k = dtlb._tick + 1
                        dtlb_stats.accesses += 1
                        dtlb_stats.hits += 1
                        entry[1] = t_k
                        if entry[2]:
                            dtlb.prefetch_hits += 1
                            entry[2] = False
                        tr = None
                        tr_vpn, tr_pfn, tr_shift = vpn, entry[0], shift
                        paddr = (tr_pfn << shift) | (vaddr & ((1 << shift) - 1))
                        t_mem = dispatch + dtlb_lat_f
                    else:
                        trans_lat, tr = translate_data(vaddr, dispatch)
                        paddr = tr.physical(vaddr)
                        t_mem = dispatch + trans_lat
                    line = paddr >> LS  # profile: l1d-hit
                    dset = l1d_sets[line & l1d_mask]
                    blk = dset.get(line)
                    if flag & LOAD:
                        if blk is not None and l1d_fused:
                            # fused L1D load hit (== Cache.lookup + load's hit arm)
                            l1d_stats.accesses += 1
                            l1d_stats.hits += 1
                            l1d_demand.accesses += 1
                            l1d_demand.hits += 1
                            l1d_pol._tick = p_k = l1d_pol._tick + 1
                            blk.lru = p_k
                            del dset[line]
                            dset[line] = blk
                            if blk.prefetched and blk.hits == 0:
                                l1d.prefetch_useful += 1
                                if blk.pcb:
                                    l1d.pgc_useful += 1
                                    if l1d_listener is not None:
                                        l1d_listener.on_pcb_hit(line)
                            blk.hits += 1
                            if blk.ready > t_mem + l1d_lat:
                                if blk.prefetched and blk.hits == 1:
                                    l1d.prefetch_late += 1
                                mlat = blk.ready - t_mem
                            else:
                                mlat = l1d_lat_f
                            complete = t_mem + mlat
                            last_load_complete = complete
                            hit = True
                        else:
                            mlat, hit = mem_load(paddr, t_mem)  # profile: miss-path
                            complete = t_mem + mlat
                            last_load_complete = complete
                            if not hit:
                                policy_on_demand_miss(vaddr >> LS)  # profile: pgc-filter
                                pf_on_fill(vaddr, mlat)  # profile: prefetcher
                                if l2pf is not None:
                                    for l2line in l2pf.on_access(paddr >> LS, t_mem):
                                        prefetch_l2(l2line << LS, t_mem)
                    else:
                        if blk is not None and l1d_fused:  # profile: l1d-hit
                            # fused L1D store hit (== Cache.lookup + store's hit arm)
                            l1d_stats.accesses += 1
                            l1d_stats.hits += 1
                            l1d_demand.accesses += 1
                            l1d_demand.hits += 1
                            l1d_pol._tick = p_k = l1d_pol._tick + 1
                            blk.lru = p_k
                            del dset[line]
                            dset[line] = blk
                            if blk.prefetched and blk.hits == 0:
                                l1d.prefetch_useful += 1
                                if blk.pcb:
                                    l1d.pgc_useful += 1
                                    if l1d_listener is not None:
                                        l1d_listener.on_pcb_hit(line)
                            blk.hits += 1
                            blk.dirty = True
                            complete = t_mem + l1d_lat_f
                        else:
                            complete = t_mem + mem_store(paddr, t_mem)  # profile: miss-path
                        hit = True
                    # fused FeatureContext.update (move-to-end seen-page LRU)
                    fctx._seen_tick = f_tick = fctx._seen_tick + 1  # profile: pgc-filter
                    page = vaddr >> S4
                    if page in fctx_seen:
                        fctx.first_page_access = False
                        del fctx_seen[page]
                    else:
                        fctx.first_page_access = True
                        if len(fctx_seen) >= fctx_cap:
                            del fctx_seen[next(iter(fctx_seen))]
                    fctx_seen[page] = f_tick
                    fctx_ph[2] = fctx_ph[1]
                    fctx_ph[1] = fctx_ph[0]
                    fctx_ph[0] = pc
                    fctx_vh[2] = fctx_vh[1]
                    fctx_vh[1] = fctx_vh[0]
                    fctx_vh[0] = vaddr
                    fctx.last_pc = pc
                    fctx.last_vaddr = vaddr
                    if replay:  # profile: prefetcher
                        # recorded candidates: an in-page target issues inline
                        # (== the dispatch's step-A arm); a page-cross one
                        # becomes a request for the dispatch, in recorded order
                        c_hi = s_ends[mem_k]
                        mem_k += 1
                        if c_hi != c_lo:
                            if tr is None:
                                pf_base = tr_pfn << tr_shift
                                pf_mask = (1 << tr_shift) - 1
                            else:
                                pf_base = tr.pfn << tr.page_shift
                                pf_mask = tr.page_bytes - 1
                            for j in range(c_lo, c_hi):
                                target = s_targets[j]
                                if (target >> S4) == page:
                                    pf_paddr = pf_base | (target & pf_mask)
                                    pline = pf_paddr >> LS
                                    if l1d_sets[pline & l1d_mask].get(pline) is None:
                                        prefetch_l1d(pf_paddr, t_mem)
                                else:
                                    if tr is None:  # profile: pgc-filter
                                        tr = Translation(tr_vpn, tr_pfn, tr_shift)
                                    dispatch_pf(
                                        (PrefetchRequest(target, pc, s_deltas[j],
                                                         s_ranks[j]),),
                                        vaddr, tr, t_mem, pc)
                            c_lo = c_hi  # profile: prefetcher
                    else:
                        requests = pf_on_access(pc, vaddr, hit, t_mem)
                        if requests:
                            if tr is None:
                                tr = Translation(tr_vpn, tr_pfn, tr_shift)
                            dispatch_pf(requests, vaddr, tr, t_mem, pc)
                else:
                    complete = dispatch + 1.0  # profile: l1d-hit

                # branch resolution
                mispredicted = flag & MISPREDICT
                if flag & BRANCH:
                    if bp_fused:
                        # fused hashed perceptron (== predict_and_train, unrolled
                        # for the default (0, 4, 8, 16, 32) history slices)
                        bpc = pc + 0x3C
                        taken = (flag & TAKEN) != 0
                        ghr = bp.ghr
                        i0 = (bpc ^ (bpc >> 13)) & bp_imask
                        hx = bpc ^ ((ghr & 0xF) * 0x9E3779B1)
                        i1 = (hx ^ (hx >> 13)) & bp_imask
                        hx = bpc ^ ((ghr & 0xFF) * 0x9E3779B1)
                        i2 = (hx ^ (hx >> 13)) & bp_imask
                        hx = bpc ^ ((ghr & 0xFFFF) * 0x9E3779B1)
                        i3 = (hx ^ (hx >> 13)) & bp_imask
                        hx = bpc ^ ((ghr & 0xFFFFFFFF) * 0x9E3779B1)
                        i4 = (hx ^ (hx >> 13)) & bp_imask
                        total = bt0[i0] + bt1[i1] + bt2[i2] + bt3[i3] + bt4[i4]
                        bp.predictions += 1
                        correct = (total >= 0) == taken
                        if not correct:
                            bp.mispredictions += 1
                            mispredicted = True
                        if not correct or -bp_thr <= total <= bp_thr:
                            if taken:
                                w = bt0[i0]
                                if w < bp_hi:
                                    bt0[i0] = w + 1
                                w = bt1[i1]
                                if w < bp_hi:
                                    bt1[i1] = w + 1
                                w = bt2[i2]
                                if w < bp_hi:
                                    bt2[i2] = w + 1
                                w = bt3[i3]
                                if w < bp_hi:
                                    bt3[i3] = w + 1
                                w = bt4[i4]
                                if w < bp_hi:
                                    bt4[i4] = w + 1
                            else:
                                w = bt0[i0]
                                if w > bp_lo:
                                    bt0[i0] = w - 1
                                w = bt1[i1]
                                if w > bp_lo:
                                    bt1[i1] = w - 1
                                w = bt2[i2]
                                if w > bp_lo:
                                    bt2[i2] = w - 1
                                w = bt3[i3]
                                if w > bp_lo:
                                    bt3[i3] = w - 1
                                w = bt4[i4]
                                if w > bp_lo:
                                    bt4[i4] = w - 1
                        bp.ghr = ((ghr << 1) | taken) & 0xFFFFFFFFFFFFFFFF
                    else:
                        correct = bp_predict(pc + 0x3C, bool(flag & TAKEN))
                        if not correct:
                            mispredicted = True
                if mispredicted:
                    resolve_at = complete if flag & DEPENDS else dispatch + 8.0
                    resolve = resolve_at + mispredict_penalty
                    if resolve > fetch_t:
                        fetch_t = resolve

                # in-order retirement
                retire = retire_t + (1 + gap) * retire_cpi
                if complete > retire:
                    retire = complete
                retire_t = retire
                rob_append((n, retire))

                if n >= next_epoch:
                    # epoch rollover, inline (== the tail of step()): flush the
                    # hoisted scalars the epoch hooks may read, fire _end_epoch
                    # (threshold/policy on_epoch feed, epoch_listener tick), then
                    # reload in case a listener advanced the engine
                    engine.instructions = instructions  # profile: epoch-hook
                    engine.fetch_t = fetch_t
                    engine.retire_t = retire_t
                    engine._rob_head_retire = rob_head_retire
                    engine._rob_block_end = rob_block_end
                    engine.rob_stall_cycles = rob_stall
                    engine._last_load_complete = last_load_complete
                    engine._last_iline = last_iline
                    end_epoch()
                    instructions = engine.instructions
                    fetch_t = engine.fetch_t
                    retire_t = engine.retire_t
                    rob_head_retire = engine._rob_head_retire
                    rob_block_end = engine._rob_block_end
                    rob_stall = engine.rob_stall_cycles
                    last_load_complete = engine._last_load_complete
                    last_iline = engine._last_iline
                    next_epoch = engine._next_epoch

                # warm-up / finish boundary (the generator loops' per-record
                # checks, in the same order)
                if instructions >= boundary:  # profile: l1d-hit
                    if not measuring:  # profile: epoch-hook
                        engine.instructions = instructions
                        engine.fetch_t = fetch_t
                        engine.retire_t = retire_t
                        engine._rob_head_retire = rob_head_retire
                        engine._rob_block_end = rob_block_end
                        engine.rob_stall_cycles = rob_stall
                        engine._last_load_complete = last_load_complete
                        engine._last_iline = last_iline
                        # attribute lookup on purpose: an InvariantChecker
                        # wraps engine.begin_measurement at attach time
                        engine.begin_measurement()
                        measuring = True
                        boundary = instructions + sim_limit
                    if instructions >= boundary:
                        # measured region complete: flush so the caller can
                        # collect the result; a resumed core replays from
                        # the record source the caller sends back
                        engine.instructions = instructions
                        engine.fetch_t = fetch_t
                        engine.retire_t = retire_t
                        engine._rob_head_retire = rob_head_retire
                        engine._rob_block_end = rob_block_end
                        engine.rob_stall_cycles = rob_stall
                        engine._last_load_complete = last_load_complete
                        engine._last_iline = last_iline
                        records = yield ("finish", retire_t)
                        boundary = _INF
                        if retire_t > yield_above:
                            bound_t, bound_i = yield ("bound", retire_t)
                            yield_above = (bound_t if bound_i > core
                                           else nextafter(bound_t, _NEG_INF))
                        break

                # scheduling bound: (retire_t, core) vs the heap's next entry
                if retire_t > yield_above:  # profile: l1d-hit
                    bound_t, bound_i = yield ("bound", retire_t)
                    yield_above = bound_t if bound_i > core else nextafter(bound_t, _NEG_INF)
            else:
                # the record source ran out: the caller raises (single core)
                # or sends the next pass (a mix core wraps)
                records = yield ("end", measuring)
    finally:
        engine.instructions = instructions
        engine.fetch_t = fetch_t
        engine.retire_t = retire_t
        engine._rob_head_retire = rob_head_retire
        engine._rob_block_end = rob_block_end
        engine.rob_stall_cycles = rob_stall
        engine._last_load_complete = last_load_complete
        engine._last_iline = last_iline


def drive_packed(engine: CoreEngine, packed: PackedTrace, config,
                 stream: Optional[PrefetchStream] = None) -> float:
    """Feed a packed trace through a built engine (warm-up + measured region).

    Returns wall-clock seconds spent, like :func:`repro.cpu.simulator.drive`;
    raises the same :class:`ValueError` on an incomplete warm-up or a
    truncated measured region.  Behaviour (every statistic, every timestamp)
    is identical to driving the same records through ``engine.step``: the
    drive is one :func:`core_stepper` run under an unbounded scheduling
    bound, so it ends at the ``finish`` event, and an ``end`` event (the
    pack ran out first) raises.

    ``stream`` replays ``packed``'s recorded prefetch candidates in place of
    calling the engine's prefetcher.  It is only sound when the engine is
    fresh, drives the pack from its first record, and its prefetcher is a
    factory-built instance of the replayable class the stream was recorded
    from — :func:`repro.cpu.simulator.simulate` checks exactly that.
    """
    warm_limit = config.warmup_instructions
    sim_limit = config.sim_instructions
    count_drive("fused", replayed=stream is not None)
    stepper = core_stepper(engine, packed.records(), warm_limit, sim_limit, 0, stream)
    next(stepper)  # run the hoists
    wall_start = perf_counter()
    event, payload = stepper.send(_UNBOUNDED)
    wall_seconds = perf_counter() - wall_start
    stepper.close()  # flush the timeline scalars back to the engine
    if event == "end":
        raise_if_truncated(engine, packed.name, payload, warm_limit, sim_limit)
    return wall_seconds
