"""Vectorized span-skipping drive loop over packed columns (kernel tier 2).

:func:`drive_packed_vec` drives a :class:`~repro.workloads.packed.PackedTrace`
by *spans* instead of records.  A span is a maximal run of records the scan
phase can prove uneventful by inspection: plain memory accesses (no branch,
mispredict, or dependence flags, gap small enough that no straight-line
I-fetch fires) whose dTLB translation and L1D line are resident — and, for
records that start a new I-line run, whose iTLB translation, L1I line, and
both next-line prefetch targets are resident too.  Within such a span the
fused kernel's per-record work collapses:

* the cache/TLB side is *statically known* — every access hits, no fill or
  eviction occurs, so residency scanned once holds for the whole span and
  the statistics/LRU/feature-context updates can be applied in one batch
  (numpy ``unique``/``bincount``/``argsort`` over the span's lines and
  pages, with move-to-end dict reordering replayed per unique line in
  last-touch order — bit-identical to the per-record discipline);
* the *timeline* recurrence (fetch/dispatch/ROB/retire scalars) is
  inherently sequential but its in-span form is affine: fetch and retire
  advance by prefix sums of per-record increments, the ROB head is a
  ``searchsorted`` over the retire chain, and dispatch/complete follow
  elementwise — every term combined in the fused kernel's exact float
  operation order, so results stay bit-identical.  A rare ROB-stall
  violation (a load completing after the in-order retire chain predicts)
  falls back to exact-order scalar replay for the clipped span.

Event records (branches, misses, prefetched-line touches, large gaps) run
through ``engine.step`` with the hoisted scalars flushed around the call;
a window that *opens* with a flags-only event skips the residency scan
entirely and steps the leading event run.  When no epoch listener is
attached, spans run across epoch rollovers and the vector commit replays
each boundary per segment (counters flushed, ``_end_epoch`` fired) so the
per-epoch policy hooks observe exactly the fused tier's state; with a
listener attached spans clip at each boundary instead.  The measurement
threshold always clips, preserving the fused ordering (epoch hooks before
the threshold compare).  The scan window adapts: it doubles after
fully-clean windows and shrinks when events arrive early, bounding rescan
cost on event-dense workloads.

The tier is only *profitable* under an inert L1D prefetcher (the stock
``NoPrefetcher``) with plain-LRU L1s and the default next-line I-prefetcher:
anything else makes nearly every record an event, so
:func:`drive_packed_vec` then delegates wholesale to the fused kernel
(accounted as ``sim.drives{mode="fused"}`` — the metric records the loop
that actually ran; an attached probe routes to the stepwise loop as usual).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.cpu.core import CoreEngine
from repro.cpu.fastpath import (
    _drive_fused,
    _drive_stepwise,
    _lru_fusible,
    _raise_if_truncated,
)
from repro.cpu.simulator import count_drive
from repro.prefetch.base import NoPrefetcher
from repro.prefetch.next_line import NextLinePrefetcher
from repro.vm.address import LINE_SHIFT, PAGE_4K_SHIFT, PAGE_2M_SHIFT
from repro.workloads.packed import PackedTrace
from repro.workloads.trace import BRANCH, DEPENDS, LOAD, MISPREDICT, STORE

__all__ = ["drive_packed_auto", "drive_packed_vec", "predict_vec_win"]

#: span-scan window bounds (records); the window adapts within these
_WINDOW_MIN = 128
_WINDOW_START = 1024
_WINDOW_MAX = 8192

#: event-density ceiling for the ``kernel="auto"`` tier probe.  The span
#: kernel wins by skipping long uneventful runs; once a sizable fraction of
#: records are events the scan overhead loses to the fused loop
#: (BENCH_0006: hot_0 at ~0 density gains 5.75x, astar at ~0.5 density
#: regresses to 0.61x).  Between those extremes profitability crosses over
#: well below 0.25 — event records break spans, and span setup only
#: amortises over runs tens of records long.
_AUTO_EVENT_DENSITY_MAX = 0.10


def predict_vec_win(packed: PackedTrace) -> bool:
    """Cheap pack-level probe: is the span-skipping tier expected to win?

    Measures the fraction of records the span predicate must always hand to
    the slow path (branch/mispredict/dependent flags, non-memory records,
    gaps large enough to trigger straight-line I-fetch) — three vectorized
    column ops, no simulation and no :class:`PackIndex` build.  Empty packs
    report False (nothing to skip).
    """
    if not len(packed):
        return False
    _, _, flags, gaps = packed.columns()
    fl = flags.astype(np.int64)
    event = (
        ((fl & (BRANCH | MISPREDICT | DEPENDS)) != 0)
        | ((fl & (LOAD | STORE)) == 0)
        | (gaps.astype(np.int64) > 15)
    )
    return float(event.mean()) <= _AUTO_EVENT_DENSITY_MAX


def drive_packed_auto(engine: CoreEngine, packed: PackedTrace, config) -> float:
    """``kernel="auto"``: probe the pack, pick the tier expected to win.

    Selects the vectorized span kernel only when the engine qualifies
    (:func:`_vec_capable`) *and* the pack's event density predicts a win
    (:func:`predict_vec_win`); everything else runs the fused kernel.  The
    drive counts under the mode actually chosen, so merged grid metrics
    still read as fused-vs-vectorized ratios.  Bit-identical either way.
    """
    if engine.probe is not None:
        count_drive("stepwise")
        return _drive_stepwise(engine, packed,
                               config.warmup_instructions,
                               config.sim_instructions)
    if _vec_capable(engine) and predict_vec_win(packed):
        count_drive("vectorized")
        return _drive_vectorized(engine, packed, config)
    count_drive("fused")
    return _drive_fused(engine, packed, config)


def _vec_capable(engine: CoreEngine) -> bool:
    """True when the span predicate's residency-only reasoning is sound.

    Requires the stock inert L1D prefetcher (so in-span hits generate no
    candidates and the access hook is known side-effect-free), plain
    LRU-on-hit L1s (so the batched move-to-end replay matches), and the
    default degree-2 next-line I-prefetcher (so resident next lines imply
    no I-prefetch side effects).  Instance-patched seams fail the check.
    """
    pf = engine.prefetcher
    if type(pf) is not NoPrefetcher:
        return False
    seam = engine._pf_on_access
    if (getattr(seam, "__func__", None) is not NoPrefetcher.on_access
            or getattr(seam, "__self__", None) is not pf):
        return False
    h = engine.hierarchy
    if not _lru_fusible(h.l1d) or not _lru_fusible(h.l1i):
        return False
    ipf = engine.l1i_prefetcher
    if type(ipf) is not NextLinePrefetcher or ipf.degree != 2:
        return False
    return True


def drive_packed_vec(engine: CoreEngine, packed: PackedTrace, config) -> float:
    """Drive a packed trace with the vectorized span-skipping kernel.

    Drop-in for :func:`repro.cpu.fastpath.drive_packed`: same return value
    (wall seconds), same truncation errors, bit-identical results.  Engines
    the span predicate cannot reason about delegate to the fused kernel;
    a profiled engine routes to the stepwise loop.
    """
    if engine.probe is not None:
        count_drive("stepwise")
        return _drive_stepwise(engine, packed,
                               config.warmup_instructions,
                               config.sim_instructions)
    if not _vec_capable(engine):
        count_drive("fused")
        return _drive_fused(engine, packed, config)
    count_drive("vectorized")
    return _drive_vectorized(engine, packed, config)


def _drive_vectorized(engine: CoreEngine, packed: PackedTrace, config) -> float:
    warm_limit = config.warmup_instructions
    sim_limit = config.sim_instructions
    idx = packed.index()
    npk = len(packed)

    # ---- loop-invariant hoists ------------------------------------------
    h = engine.hierarchy
    l1d, l1i = h.l1d, h.l1i
    l1d_sets, l1d_mask = l1d._sets, l1d._set_mask
    l1i_sets, l1i_mask = l1i._sets, l1i._set_mask
    l1d_stats, l1d_demand = l1d.stats, l1d.demand_stats
    l1i_stats, l1i_demand = l1i.stats, l1i.demand_stats
    l1d_pol, l1i_pol = l1d._policy, l1i._policy
    dtlb, itlb = engine.dtlb, engine.itlb
    dtlb_sets, dtlb_mask, dtlb_stats = dtlb._sets, dtlb._set_mask, dtlb.stats
    itlb_sets, itlb_mask, itlb_stats = itlb._sets, itlb._set_mask, itlb.stats
    dtlb_lat_f = float(dtlb.latency)
    l1d_lat_f = float(l1d.latency)
    fctx = engine.fctx
    fctx_seen = fctx._seen_pages
    fctx_cap = fctx._seen_cap
    fctx_ph, fctx_vh = fctx.pc_history, fctx.va_history
    l1i_pf = engine.l1i_prefetcher
    rob_entries = engine._rob
    rob_q = engine._rob_q
    rob_popleft = rob_q.popleft
    rob_append = rob_q.append
    step = engine.step
    S4, S2 = PAGE_4K_SHIFT, PAGE_2M_SHIFT
    D4 = S4 - LINE_SHIFT
    D2 = S2 - LINE_SHIFT
    M4 = (1 << D4) - 1
    M2 = (1 << D2) - 1
    P2 = S2 - S4

    cum = idx.cum
    event = idx.event
    change = idx.change
    vpage = idx.vpage
    vline = idx.vline
    iline_a = idx.iline
    isload = idx.isload
    isstore = idx.isstore
    #: per-record float timeline increments; elementwise products are
    #: IEEE-identical to the fused kernel's scalar (1 + gap) * cpi
    finc = idx.weight * engine._fetch_cpi
    rinc = idx.weight * engine._retire_cpi
    pcs_a, vaddrs_a = packed.pcs, packed.vaddrs
    flags_a, gaps_a = packed.flags, packed.gaps

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
    threshold = warm_limit

    # ---- persistent residency proofs ------------------------------------
    # a proof ("this translation/line is resident, ready, and unflagged")
    # stays valid until cache/TLB contents can change: only engine.step
    # runs mutate them (spans never fill or evict, `bound`/`fetch_t` only
    # grow, epoch hooks see EpochStats — not the engine), so the caches
    # are cleared wholesale after every step run, and after an epoch
    # rollover only when an external epoch_listener is attached
    dcache: dict = {}   # 4K vpage -> (dtlb entry, pfn, page shift)
    icache: dict = {}   # 4K ipage -> (itlb entry, pfn, page shift)
    lcache: dict = {}   # physical L1D line -> proven-resident block
    fcache: dict = {}   # physical L1I line -> proven block (+ NL targets)
    l_arr = np.empty(0, dtype=np.int64)  # sorted proven L1D lines
    #: without a listener, spans may run across epoch rollovers: the hook
    #: reads only aggregate stats and timeline scalars (committed exactly
    #: at each boundary below), never per-line LRU state
    defer = engine.epoch_listener is None

    pos = 0
    window = _WINDOW_START
    wall_start = perf_counter()
    while pos < npk:
        b_w = pos + window
        if b_w > npk:
            b_w = npk
        # clip the window at the next epoch/measurement boundary before
        # scanning: the crossing record stays *in* the window (the fused
        # kernel checks after the record), nothing past it is probed
        offset = instructions - (int(cum[pos - 1]) if pos else 0)
        if defer:
            limit = threshold
        else:
            limit = next_epoch if next_epoch < threshold else threshold
        clipped = False
        e_rel = int(np.searchsorted(cum[pos:b_w], limit - offset,
                                    side="left"))
        if e_rel < b_w - pos:
            b_w = pos + e_rel + 1
            clipped = True
        w = b_w - pos
        # conservative lower bound on every span record's dispatch time:
        # fetch_t and rob_head_retire are both monotone, and dispatch is
        # their running max — so a line ready by `bound` can never be a
        # late hit inside the span (fetch_t alone lags the retire clock
        # badly after miss bursts and would disprove warm lines for ages)
        bound = fetch_t if fetch_t > rob_head_retire else rob_head_retire

        # ---- scan: prove the longest prefix of the window uneventful ----
        ok = ~event[pos:b_w]
        if not ok[0]:
            # the window opens with an event by flags alone: the
            # residency scan cannot clear anything — skip straight to
            # stepping the leading event run
            span_len = 0
        else:
            # dTLB residency per unique 4K virtual page (2M entries probed at
            # their own granularity; prefetched entries are events — the step
            # path records their prefetch-hit)
            pages_u, pinv = np.unique(vpage[pos:b_w], return_inverse=True)
            n_pu = len(pages_u)
            pfn_u = np.zeros(n_pu, dtype=np.int64)
            sh_u = np.zeros(n_pu, dtype=np.int64)
            pok = np.zeros(n_pu, dtype=bool)
            for i, pg in enumerate(pages_u.tolist()):
                hit = dcache.get(pg)
                if hit is None:
                    e = dtlb_sets[pg & dtlb_mask].get((pg, S4))
                    if e is None:
                        pg2 = pg >> P2
                        e = dtlb_sets[pg2 & dtlb_mask].get((pg2, S2))
                        if e is None or e[2]:
                            continue
                        hit = (e, e[0], S2)
                    else:
                        if e[2]:
                            continue
                        hit = (e, e[0], S4)
                    dcache[pg] = hit
                pok[i] = True
                pfn_u[i] = hit[1]
                sh_u[i] = hit[2]
            ok &= pok[pinv]
            # physical L1D line per record (valid where the page probe hit)
            pfn_r = pfn_u[pinv]
            vl = vline[pos:b_w]
            pline_w = np.where(sh_u[pinv] == S4,
                               (pfn_r << D4) | (vl & M4),
                               (pfn_r << D2) | (vl & M2))
            # L1D residency per unique line among still-ok records; the span is
            # all-hit so no fill/eviction can occur inside it — residency and
            # the conservative readiness bound (ready <= bound, which only
            # grows) scanned once hold for the whole span
            okidx = np.nonzero(ok)[0]
            if len(okidx):
                ulines, linv = np.unique(pline_w[okidx], return_inverse=True)
                nl = len(l_arr)
                if nl:
                    # vectorized membership against the proven-line array
                    si = np.searchsorted(l_arr, ulines)
                    si[si == nl] = 0
                    lok = l_arr[si] == ulines
                else:
                    lok = np.zeros(len(ulines), dtype=bool)
                unknown = np.nonzero(~lok)[0]
                if len(unknown):
                    added = False
                    for i in unknown.tolist():
                        ln = int(ulines[i])
                        blk = l1d_sets[ln & l1d_mask].get(ln)
                        if (blk is not None and blk.ready <= bound
                                and not (blk.prefetched and blk.hits == 0)):
                            lok[i] = True
                            lcache[ln] = blk
                            added = True
                    if added:
                        l_arr = np.fromiter(lcache, np.int64, len(lcache))
                        l_arr.sort()
                ok[okidx] = lok[linv]
            # I-side, for records starting a new I-line run: iTLB + L1I
            # residency of the fetch line and both next-line prefetch targets
            # (so the fused NL prefetcher provably issues nothing in-span)
            chidx = np.nonzero(change[pos:b_w] & ok)[0]
            fline_ch = None
            if len(chidx):
                il = iline_a[pos:b_w][chidx]
                ipg = il >> D4
                ipages_u, iinv = np.unique(ipg, return_inverse=True)
                n_iu = len(ipages_u)
                ipfn_u = np.zeros(n_iu, dtype=np.int64)
                ish_u = np.zeros(n_iu, dtype=np.int64)
                ipok = np.zeros(n_iu, dtype=bool)
                for i, pg in enumerate(ipages_u.tolist()):
                    hit = icache.get(pg)
                    if hit is None:
                        e = itlb_sets[pg & itlb_mask].get((pg, S4))
                        if e is None:
                            pg2 = pg >> P2
                            e = itlb_sets[pg2 & itlb_mask].get((pg2, S2))
                            if e is None or e[2]:
                                continue
                            hit = (e, e[0], S2)
                        else:
                            if e[2]:
                                continue
                            hit = (e, e[0], S4)
                        icache[pg] = hit
                    ipok[i] = True
                    ipfn_u[i] = hit[1]
                    ish_u[i] = hit[2]
                iok = ipok[iinv]
                ipfn_r = ipfn_u[iinv]
                fline_ch = np.where(ish_u[iinv] == S4,
                                    (ipfn_r << D4) | (il & M4),
                                    (ipfn_r << D2) | (il & M2))
                f_okidx = np.nonzero(iok)[0]
                if len(f_okidx):
                    uf, finv = np.unique(fline_ch[f_okidx], return_inverse=True)
                    fok = np.zeros(len(uf), dtype=bool)
                    for i, fn in enumerate(uf.tolist()):
                        if fn in fcache:
                            fok[i] = True
                            continue
                        blk = l1i_sets[fn & l1i_mask].get(fn)
                        if (blk is not None and blk.ready <= fetch_t
                                and not (blk.prefetched and blk.hits == 0)
                                and l1i_sets[(fn + 1) & l1i_mask].get(fn + 1)
                                is not None
                                and l1i_sets[(fn + 2) & l1i_mask].get(fn + 2)
                                is not None):
                            fok[i] = True
                            fcache[fn] = blk
                    iok[f_okidx] = fok[finv]
                ok[chidx] = iok

            # span = leading run of provably-uneventful records
            bad = np.nonzero(~ok)[0]
            span_len = int(bad[0]) if len(bad) else w

        if span_len:
            a, b = pos, pos + span_len
            k = span_len
            cum_abs = cum[a:b] + offset if offset else cum[a:b]

            # ---- vectorized exact timeline ------------------------------
            # ufunc.accumulate applies the op left-to-right, so these float
            # chains replicate the scalar loop's operation order exactly.
            # The retire chain is computed under the assumption that the
            # `complete > retire` arm never fires (checked below; the
            # scalar loop handles the rare spans where it does).
            ft = np.add.accumulate(
                np.concatenate(((fetch_t,), finc[a:b])))[1:]
            rchain = np.add.accumulate(
                np.concatenate(((retire_t,), rinc[a:b])))[1:]
            # rob_head_retire per record: retire of the newest entry (prior
            # ROB contents or earlier span records) at least rob_entries
            # instructions behind; the sentinel keeps the incoming value
            # for records that pop nothing
            n_dq = len(rob_q)
            cum_all = np.empty(1 + n_dq + k, dtype=np.int64)
            ret_all = np.empty(1 + n_dq + k)
            cum_all[0] = -(1 << 62)
            ret_all[0] = rob_head_retire
            if n_dq:
                cum_all[1:1 + n_dq] = [e[0] for e in rob_q]
                ret_all[1:1 + n_dq] = [e[1] for e in rob_q]
            cum_all[1 + n_dq:] = cum_abs
            ret_all[1 + n_dq:] = rchain
            rhr_v = ret_all[np.searchsorted(cum_all, cum_abs - rob_entries,
                                            side="right") - 1]
            dispatch_v = np.maximum(ft, rhr_v)
            complete_v = (dispatch_v + dtlb_lat_f) + l1d_lat_f
            if not (complete_v > rchain).any():
                # ROB-stall accounting: a stall is charged exactly where
                # rob_head_retire strictly advances past both the fetch
                # clock and the previous high-water mark; the increments
                # accumulate in record order (same float adds as scalar)
                prev = np.empty(k)
                prev[0] = rob_block_end
                prev[1:] = rhr_v[:-1]
                bf = np.maximum(ft, prev)
                addidx = np.nonzero(rhr_v > bf)[0]
                incs = (rhr_v - bf)[addidx]
                # commit per epoch segment: the rollover hook reads exact
                # boundary values of the timeline scalars and the L1D
                # demand counters, nothing per-line — those are batched
                # once for the whole span afterwards
                s_seg = 0
                while True:
                    e_seg = s_seg + 1 + int(np.searchsorted(
                        cum_abs[s_seg:], next_epoch, side="left"))
                    last_seg = e_seg >= k
                    if last_seg:
                        e_seg = k
                    seg_k = e_seg - s_seg
                    fetch_t = float(ft[e_seg - 1])
                    retire_t = float(rchain[e_seg - 1])
                    rob_head_retire = float(rhr_v[e_seg - 1])
                    i0 = int(np.searchsorted(addidx, s_seg))
                    i1 = int(np.searchsorted(addidx, e_seg))
                    if i1 > i0:
                        rob_stall = float(np.add.accumulate(np.concatenate(
                            ((rob_stall,), incs[i0:i1])))[-1])
                        rob_block_end = float(rhr_v[addidx[i1 - 1]])
                    instructions = int(cum_abs[e_seg - 1])
                    l1d_stats.accesses += seg_k
                    l1d_stats.hits += seg_k
                    l1d_demand.accesses += seg_k
                    l1d_demand.hits += seg_k
                    if last_seg:
                        break
                    engine.instructions = instructions
                    engine.fetch_t = fetch_t
                    engine.retire_t = retire_t
                    engine._rob_head_retire = rob_head_retire
                    engine._rob_block_end = rob_block_end
                    engine.rob_stall_cycles = rob_stall
                    engine._last_load_complete = last_load_complete
                    engine._last_iline = last_iline
                    engine._end_epoch()
                    next_epoch = engine._next_epoch
                    s_seg = e_seg
                ld = np.nonzero(isload[a:b])[0]
                if len(ld):
                    last_load_complete = float(complete_v[ld[-1]])
                # replay the ROB queue wholesale: everything at or behind
                # the final pop limit is gone, the span tail is appended
                limit_last = instructions - rob_entries
                while rob_q and rob_q[0][0] <= limit_last:
                    rob_popleft()
                t0 = int(np.searchsorted(cum_abs, limit_last, side="right"))
                rob_q.extend(zip(cum_abs[t0:].tolist(),
                                 rchain[t0:].tolist()))
            else:
                # ---- scalar exact-order fallback ------------------------
                # a completion outran the retire chain somewhere in the
                # span; clip it at the first epoch/measurement crossing
                # (scalar replay checks nothing mid-span) and run it
                # record-at-a-time, identical to the fused kernel
                lim2 = next_epoch if next_epoch < threshold else threshold
                e_rel2 = int(np.searchsorted(cum_abs, lim2, side="left"))
                if e_rel2 + 1 < k:
                    k = e_rel2 + 1
                    b = a + k
                    span_len = k
                    cum_abs = cum_abs[:k]
                cum_l = cum_abs.tolist()
                finc_l = finc[a:b].tolist()
                rinc_l = rinc[a:b].tolist()
                load_l = isload[a:b].tolist()
                for j in range(k):
                    n = cum_l[j]
                    fetch_t += finc_l[j]
                    rlimit = n - rob_entries
                    while rob_q and rob_q[0][0] <= rlimit:
                        rob_head_retire = rob_popleft()[1]
                    dispatch = fetch_t
                    if rob_head_retire > dispatch:
                        blocked_from = (dispatch if dispatch > rob_block_end
                                        else rob_block_end)
                        if rob_head_retire > blocked_from:
                            rob_stall += rob_head_retire - blocked_from
                            rob_block_end = rob_head_retire
                        dispatch = rob_head_retire
                    complete = (dispatch + dtlb_lat_f) + l1d_lat_f
                    if load_l[j]:
                        last_load_complete = complete
                    retire = retire_t + rinc_l[j]
                    if complete > retire:
                        retire = complete
                    retire_t = retire
                    rob_append((n, retire))
                instructions = cum_l[-1]
                l1d_stats.accesses += k
                l1d_stats.hits += k
                l1d_demand.accesses += k
                l1d_demand.hits += k

            # ---- batched state application ------------------------------
            # dTLB: every span record is a hit; ticks advance per record,
            # entries stamped with their last touch (ascending last-touch
            # order so pages sharing a 2M entry resolve to the latest)
            dtlb_stats.accesses += k
            dtlb_stats.hits += k
            t_base = dtlb._tick
            dtlb._tick = t_base + k
            span_pages = vpage[a:b]
            if k == w:
                pages_s, pinv_s = pages_u, pinv
            else:
                pages_s, pinv_s = np.unique(span_pages, return_inverse=True)
            last_p = np.empty(len(pages_s), dtype=np.int64)
            last_p[pinv_s] = np.arange(k)
            p_ord = np.argsort(last_p)
            for pg, stamp in zip(pages_s[p_ord].tolist(),
                                 (t_base + 1 + last_p[p_ord]).tolist()):
                dcache[pg][0][1] = stamp

            # L1D: per-line hit counts, LRU stamps, dirty bits, and the
            # move-to-end reorder replayed once per unique line in global
            # last-touch order (per set that yields exactly the per-record
            # del/reinsert discipline's final ordering).  Hit/access
            # counters were already committed per epoch segment above.
            p_base = l1d_pol._tick
            l1d_pol._tick = p_base + k
            span_lines = pline_w[:k]
            if k == w:
                lines_s, linv_s = ulines, linv
            else:
                lines_s, linv_s = np.unique(span_lines, return_inverse=True)
            last_l = np.empty(len(lines_s), dtype=np.int64)
            last_l[linv_s] = np.arange(k)
            counts_l = np.bincount(linv_s)
            l_ord = np.argsort(last_l)
            for ln, stamp, cnt in zip(
                    lines_s[l_ord].tolist(),
                    (p_base + 1 + last_l[l_ord]).tolist(),
                    counts_l[l_ord].tolist()):
                blk = lcache[ln]
                dset = l1d_sets[ln & l1d_mask]
                del dset[ln]
                dset[ln] = blk
                blk.lru = stamp
                blk.hits += cnt
            st_mask = isstore[a:b]
            if st_mask.any():
                for ln in np.unique(span_lines[st_mask]).tolist():
                    lcache[ln].dirty = True

            # iTLB/L1I: only records starting a new I-line run touch the
            # front end; their ticks count those records alone
            ch_rel = chidx[chidx < k]
            c = len(ch_rel)
            if c:
                itlb_stats.accesses += c
                itlb_stats.hits += c
                it_base = itlb._tick
                itlb._tick = it_base + c
                if c == len(chidx):
                    ipages_s, iinv_s = ipages_u, iinv
                else:
                    ipg_s = iline_a[a:b][ch_rel] >> D4
                    ipages_s, iinv_s = np.unique(ipg_s, return_inverse=True)
                last_ip = np.empty(len(ipages_s), dtype=np.int64)
                last_ip[iinv_s] = np.arange(c)
                ip_ord = np.argsort(last_ip)
                for pg, stamp in zip(ipages_s[ip_ord].tolist(),
                                     (it_base + 1 + last_ip[ip_ord]).tolist()):
                    icache[pg][0][1] = stamp

                l1i_stats.accesses += c
                l1i_stats.hits += c
                l1i_demand.accesses += c
                l1i_demand.hits += c
                pi_base = l1i_pol._tick
                l1i_pol._tick = pi_base + c
                # chidx is sorted, so the in-span change records are
                # exactly the first c entries of the window's change list
                flines_s = fline_ch[:c]
                if c == len(chidx):
                    fl_s, finv_s = uf, finv
                else:
                    fl_s, finv_s = np.unique(flines_s, return_inverse=True)
                last_f = np.empty(len(fl_s), dtype=np.int64)
                last_f[finv_s] = np.arange(c)
                counts_f = np.bincount(finv_s)
                f_ord = np.argsort(last_f)
                for fn, stamp, cnt in zip(
                        fl_s[f_ord].tolist(),
                        (pi_base + 1 + last_f[f_ord]).tolist(),
                        counts_f[f_ord].tolist()):
                    blk = fcache[fn]
                    iset = l1i_sets[fn & l1i_mask]
                    del iset[fn]
                    iset[fn] = blk
                    blk.lru = stamp
                    blk.hits += cnt
                # fused NL dedup key: the last new-run fetch line
                l1i_pf._last_line = int(flines_s[-1])
            last_iline = int(iline_a[b - 1])

            # FeatureContext: seen-page LRU replayed per same-page run,
            # histories and last-access fields from the span tail
            f_base = fctx._seen_tick
            fctx._seen_tick = f_base + k
            pg_l = span_pages.tolist()
            run_start = 0
            fpa = fctx.first_page_access
            for j in range(1, k + 1):
                if j < k and pg_l[j] == pg_l[run_start]:
                    continue
                page = pg_l[run_start]
                if page in fctx_seen:
                    fpa = False
                    del fctx_seen[page]
                else:
                    fpa = True
                    if len(fctx_seen) >= fctx_cap:
                        del fctx_seen[next(iter(fctx_seen))]
                fctx_seen[page] = f_base + j
                if j - run_start > 1:
                    fpa = False
                run_start = j
            fctx.first_page_access = fpa
            if k >= 3:
                fctx_ph[0] = pcs_a[b - 1]
                fctx_ph[1] = pcs_a[b - 2]
                fctx_ph[2] = pcs_a[b - 3]
                fctx_vh[0] = vaddrs_a[b - 1]
                fctx_vh[1] = vaddrs_a[b - 2]
                fctx_vh[2] = vaddrs_a[b - 3]
            elif k == 2:
                fctx_ph[2] = fctx_ph[0]
                fctx_ph[0] = pcs_a[b - 1]
                fctx_ph[1] = pcs_a[b - 2]
                fctx_vh[2] = fctx_vh[0]
                fctx_vh[0] = vaddrs_a[b - 1]
                fctx_vh[1] = vaddrs_a[b - 2]
            else:
                fctx_ph[2] = fctx_ph[1]
                fctx_ph[1] = fctx_ph[0]
                fctx_ph[0] = pcs_a[b - 1]
                fctx_vh[2] = fctx_vh[1]
                fctx_vh[1] = fctx_vh[0]
                fctx_vh[0] = vaddrs_a[b - 1]
            fctx.last_pc = pcs_a[b - 1]
            fctx.last_vaddr = vaddrs_a[b - 1]

            pos = b

            # adapt the scan window: clean full windows earn a bigger one,
            # early events shrink it (cheaper rescans on event-dense runs)
            if span_len == w and not clipped:
                if window < _WINDOW_MAX:
                    window <<= 1
            elif span_len < (window >> 2):
                if window > _WINDOW_MIN:
                    window >>= 1
        else:
            # disproven run: step through the whole leading run of records
            # the scan could not clear, amortizing one scan over the run
            # instead of paying a rescan per event record.  Stepping is
            # always correct (step() handles epochs itself); the boundary
            # check per record matches the fused tier's ordering.
            good = np.nonzero(ok)[0]
            run_end = pos + (int(good[0]) if len(good) else w)
            engine.instructions = instructions
            engine.fetch_t = fetch_t
            engine.retire_t = retire_t
            engine._rob_head_retire = rob_head_retire
            engine._rob_block_end = rob_block_end
            engine.rob_stall_cycles = rob_stall
            engine._last_load_complete = last_load_complete
            engine._last_iline = last_iline
            stop = False
            while pos < run_end:
                step(pcs_a[pos], vaddrs_a[pos], flags_a[pos], gaps_a[pos])
                pos += 1
                if engine.instructions >= threshold:
                    if measuring:
                        stop = True
                        break
                    engine.begin_measurement()
                    measuring = True
                    threshold = engine.instructions + sim_limit
                    if engine.instructions >= threshold:
                        stop = True
                        break
            instructions = engine.instructions
            fetch_t = engine.fetch_t
            retire_t = engine.retire_t
            rob_head_retire = engine._rob_head_retire
            rob_block_end = engine._rob_block_end
            rob_stall = engine.rob_stall_cycles
            last_load_complete = engine._last_load_complete
            last_iline = engine._last_iline
            next_epoch = engine._next_epoch
            # step runs can fill/evict/flag anything: drop every proof
            dcache.clear()
            icache.clear()
            lcache.clear()
            fcache.clear()
            l_arr = l_arr[:0]
            if stop:
                break
            continue

        # epoch rollover after a span (the crossing record was kept inside)
        if instructions >= next_epoch:
            engine.instructions = instructions
            engine.fetch_t = fetch_t
            engine.retire_t = retire_t
            engine._rob_head_retire = rob_head_retire
            engine._rob_block_end = rob_block_end
            engine.rob_stall_cycles = rob_stall
            engine._last_load_complete = last_load_complete
            engine._last_iline = last_iline
            engine._end_epoch()
            if engine.epoch_listener is not None:
                # listeners see the engine itself; don't reason past them
                dcache.clear()
                icache.clear()
                lcache.clear()
                fcache.clear()
                l_arr = l_arr[:0]
            instructions = engine.instructions
            fetch_t = engine.fetch_t
            retire_t = engine.retire_t
            rob_head_retire = engine._rob_head_retire
            rob_block_end = engine._rob_block_end
            rob_stall = engine.rob_stall_cycles
            last_load_complete = engine._last_load_complete
            last_iline = engine._last_iline
            next_epoch = engine._next_epoch

        # warm-up / measurement boundary (same ordering as the fused tier)
        if instructions >= threshold:
            if measuring:
                break
            engine.instructions = instructions
            engine.fetch_t = fetch_t
            engine.retire_t = retire_t
            engine._rob_head_retire = rob_head_retire
            engine._rob_block_end = rob_block_end
            engine.rob_stall_cycles = rob_stall
            engine._last_load_complete = last_load_complete
            engine._last_iline = last_iline
            engine.begin_measurement()
            measuring = True
            threshold = instructions + sim_limit
            if instructions >= threshold:
                break
    wall_seconds = perf_counter() - wall_start

    engine.instructions = instructions
    engine.fetch_t = fetch_t
    engine.retire_t = retire_t
    engine._rob_head_retire = rob_head_retire
    engine._rob_block_end = rob_block_end
    engine.rob_stall_cycles = rob_stall
    engine._last_load_complete = last_load_complete
    engine._last_iline = last_iline
    _raise_if_truncated(engine, packed, measuring, warm_limit, sim_limit)
    return wall_seconds
