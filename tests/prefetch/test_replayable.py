"""The ``replayable`` declaration: candidates depend on the (pc, vaddr) stream alone.

A prefetcher declaring ``replayable`` has its candidates recorded once per
pack (with ``hit=True``, ``t=0.0`` and no fills) and replayed by the packed
kernel, so its ``on_access`` output must not move when the engine feeds it
arbitrary ``hit``/``t`` values and interleaved ``on_fill`` calls.
"""

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.prefetch import make_l1d_prefetcher
from repro.vm.address import LINE_SHIFT

ALL = ("berti", "berti-timely", "ipcp", "bop", "stride", "next-line", "none")
REPLAYABLE = tuple(name for name in ALL if make_l1d_prefetcher(name).replayable)

#: one access: which of four load PCs, the line step it takes from that
#: PC's previous line (small repeating strides so the trainers lock on),
#: the hit flag and timestamp the engine would pass, and an optional demand
#: fill latency reported right after it
event = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.sampled_from((1, 1, 2, 3, -1, 8, 64)),
    st.booleans(),
    st.floats(min_value=0.0, max_value=1e6),
    st.one_of(st.none(), st.floats(min_value=1.0, max_value=500.0)),
)
events = st.lists(event, max_size=200)


#: a fixed unit-stride prefix, long enough for BOP's learning phase (20
#: rounds over its 44 offsets) to pick an offset, so every trainer is
#: already emitting when the drawn stream starts
PREFIX = [(i % 4, 1, i % 3 == 0, 37.5 * i, 90.0 if i % 5 == 0 else None)
          for i in range(1000)]


def _candidates(name: str, stream, perturbed: bool) -> list:
    prefetcher = make_l1d_prefetcher(name)
    lines = [1 << 20, 2 << 20, 3 << 20, 4 << 20]
    out = []
    for slot, step, hit, t, fill in PREFIX + stream:
        lines[slot] += step
        pc, vaddr = 0x400 + 0x40 * slot, lines[slot] << LINE_SHIFT
        if perturbed:
            requests = prefetcher.on_access(pc, vaddr, hit, t)
            if fill is not None:
                prefetcher.on_fill(vaddr, fill)
        else:
            requests = prefetcher.on_access(pc, vaddr, True, 0.0)
        out.append([(r.vaddr, r.pc, r.delta, r.meta) for r in requests])
    return out


def _replay_property(name: str, **overrides):
    """The declaration's contract for one prefetcher, as a hypothesis test."""
    @settings(deadline=None, **overrides)
    @given(stream=events)
    def holds(stream):
        perturbed = _candidates(name, stream, perturbed=True)
        assert perturbed == _candidates(name, stream, perturbed=False)

    return holds


def test_paper_prefetchers_declare_it():
    assert set(REPLAYABLE) >= {"berti", "ipcp", "bop"}


@pytest.mark.parametrize("name", REPLAYABLE)
def test_output_ignores_hit_time_and_fills(name):
    _replay_property(name, max_examples=40)()


def test_berti_timely_does_not_declare_it():
    assert not make_l1d_prefetcher("berti-timely").replayable


def test_property_fails_for_berti_timely():
    # the property has teeth: timely Berti learns from timestamps and fill
    # latencies, so its candidates move (no shrinking: any failure will do)
    with pytest.raises(AssertionError):
        _replay_property("berti-timely", max_examples=100,
                         phases=(Phase.generate,))()
