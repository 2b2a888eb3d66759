"""Policy lockstep: PolicyEnsemble hook routing and simulate_policies grouping."""

from dataclasses import asdict

import pytest

from repro.core.context import FeatureContext, PrefetchRequest
from repro.core.ensemble import PolicyEnsemble
from repro.core.policies import Decision, DiscardPtw, PageCrossPolicy, PermitPgc
from repro.core.system_state import EpochStats, SystemState
from repro.core.update_buffers import TrainingRecord
from repro.cpu.simulator import DRIVES, POLICY_RUNS, simulate, simulate_policies
from repro.experiments.figures import FIG9_POLICIES
from repro.experiments.runner import RunSpec
from repro.workloads import by_name

REQ = PrefetchRequest(0x7F002000, 0x400, 70)
CTX = FeatureContext()
STATE = SystemState()


class Recorder(PageCrossPolicy):
    """Answers a scripted sequence of decisions and logs every call it hears."""

    def __init__(self, tag: int, answers=(True,)):
        self.name = f"recorder-{tag}"
        self.tag = tag
        self.answers = list(answers)
        self.calls: list[tuple] = []

    def decide(self, req, ctx, state):
        issue = self.answers.pop(0) if len(self.answers) > 1 else self.answers[0]
        self.calls.append(("decide", issue))
        return Decision(issue, TrainingRecord((self.tag,), ()))

    def on_discarded(self, virt_line, record):
        self.calls.append(("discarded", virt_line, record))

    def on_issued(self, phys_line, record):
        self.calls.append(("issued", phys_line, record))

    def on_demand_miss(self, virt_line):
        self.calls.append(("demand_miss", virt_line))

    def on_pcb_hit(self, phys_line):
        self.calls.append(("pcb_hit", phys_line))

    def on_pcb_evict_unused(self, phys_line):
        self.calls.append(("pcb_evict", phys_line))

    def on_epoch(self, epoch):
        self.calls.append(("epoch",))


class PtwRecorder(Recorder):
    """A recorder with DiscardPtw's dispatch: no speculative walks."""

    requires_translation_hit = True


def own(tag: int) -> TrainingRecord:
    return TrainingRecord((tag,), ())


class TestHookRouting:
    def test_decide_returns_the_leaders_decision_without_a_record(self):
        ensemble = PolicyEnsemble([Recorder(0, [False]), Recorder(1, [False])])
        decision = ensemble.decide(REQ, CTX, STATE)
        assert decision.issue is False and decision.record is None

    def test_hooks_fan_out_with_per_member_records(self):
        a, b = Recorder(0), Recorder(1)
        ensemble = PolicyEnsemble([a, b])
        assert ensemble.decide(REQ, CTX, STATE).issue
        ensemble.on_issued(5, None)
        ensemble.on_demand_miss(6)
        ensemble.on_pcb_hit(7)
        ensemble.on_pcb_evict_unused(8)
        ensemble.on_epoch(EpochStats())
        for member in (a, b):
            assert member.calls == [
                ("decide", True), ("issued", 5, own(member.tag)), ("demand_miss", 6),
                ("pcb_hit", 7), ("pcb_evict", 8), ("epoch",),
            ]

    def test_discard_routes_each_members_record(self):
        a, b = Recorder(0, [False]), Recorder(1, [False])
        ensemble = PolicyEnsemble([a, b])
        ensemble.decide(REQ, CTX, STATE)
        ensemble.on_discarded(9, None)
        assert a.calls[-1] == ("discarded", 9, own(0))
        assert b.calls[-1] == ("discarded", 9, own(1))

    def test_hook_without_decide_passes_none_to_every_member(self):
        # the native-boundary arm: a same-translation candidate issues with
        # no policy consultation
        a, b = Recorder(0), Recorder(1)
        ensemble = PolicyEnsemble([a, b])
        ensemble.on_issued(3, None)
        ensemble.decide(REQ, CTX, STATE)
        ensemble.on_issued(4, None)
        ensemble.on_issued(5, None)  # the record went with the first hook
        for member in (a, b):
            assert member.calls == [
                ("issued", 3, None), ("decide", True),
                ("issued", 4, own(member.tag)), ("issued", 5, None),
            ]

    def test_discard_ptw_post_decide_discard_keeps_records(self):
        # DiscardPtw issues, then the engine discards for want of a
        # translation: the discard must carry the decide's records
        a, b = PtwRecorder(0), PtwRecorder(1)
        ensemble = PolicyEnsemble([a, b])
        assert ensemble.requires_translation_hit
        assert ensemble.decide(REQ, CTX, STATE).issue
        ensemble.on_discarded(11, None)
        assert a.calls == [("decide", True), ("discarded", 11, own(0))]
        assert b.calls == [("decide", True), ("discarded", 11, own(1))]

    def test_dispatch_attributes_must_agree(self):
        with pytest.raises(ValueError, match="dispatch"):
            PolicyEnsemble([PermitPgc(), DiscardPtw()])
        native = PermitPgc()
        native.filter_at_native_boundary = True
        with pytest.raises(ValueError, match="dispatch"):
            PolicyEnsemble([PermitPgc(), native])
        assert PolicyEnsemble([DiscardPtw(), PtwRecorder(0)]).requires_translation_hit


class TestDivergence:
    def test_dropped_member_hears_no_further_hooks(self):
        leader = Recorder(0, [True, True])
        stays = Recorder(1, [True, True])
        leaves = Recorder(2, [False, True])
        ensemble = PolicyEnsemble([leader, stays, leaves])
        assert ensemble.decide(REQ, CTX, STATE).issue
        assert ensemble.live == [0, 1] and ensemble.dropped == [2]
        ensemble.on_issued(1, None)
        ensemble.on_demand_miss(2)
        ensemble.decide(REQ, CTX, STATE)
        ensemble.on_issued(3, None)
        ensemble.on_epoch(EpochStats())
        assert leaves.calls == [("decide", False)]
        assert stays.calls[1] == ("issued", 1, own(1))
        assert len(stays.calls) == len(leader.calls) == 6

    def test_leader_is_never_dropped(self):
        ensemble = PolicyEnsemble([Recorder(0, [False]), Recorder(1), Recorder(2)])
        assert not ensemble.decide(REQ, CTX, STATE).issue
        assert ensemble.live == [0] and ensemble.dropped == [1, 2]


def _configs(workload, policies, **spec):
    return [RunSpec(policy=policy, warmup_instructions=1_000, sim_instructions=3_000,
                    **spec).config_for(workload) for policy in policies]


def _counts():
    return {o: POLICY_RUNS.value(outcome=o) for o in ("led", "shared", "diverged")}


def _delta(before):
    return {o: v - before[o] for o, v in _counts().items()}


class TestSimulatePolicies:
    def test_fig9_set_on_omnetpp_takes_two_drives(self):
        # Berti proposes no page-cross candidates on omnetpp, so every policy
        # agrees with Discard; DiscardPtw dispatches differently and leads a
        # drive of its own
        workload = by_name("omnetpp")
        configs = _configs(workload, ("discard", *FIG9_POLICIES))
        before, drives = _counts(), DRIVES.total()
        results = simulate_policies(workload, configs)
        assert DRIVES.total() - drives == 2
        assert _delta(before) == {"led": 2, "shared": 5, "diverged": 0}
        assert all(r.pgc_candidates == 0 for r in results)
        for config, result in zip(configs, results):
            assert asdict(result) == asdict(simulate(workload, config))

    @pytest.mark.parametrize("packed", [True, False])
    def test_diverging_policies_match_solo_runs(self, packed):
        workload = by_name("astar")
        configs = _configs(workload, ("discard", "permit", "iso", "dripper", "permit"),
                           packed=packed)
        before = _counts()
        results = simulate_policies(workload, configs)
        counted = _delta(before)
        assert counted["diverged"] >= 1 and counted["shared"] >= 1
        assert counted["led"] + counted["shared"] == len(configs)
        assert [r.policy for r in results] == [
            "discard-pgc", "permit-pgc", "permit-pgc", "dripper[berti]", "permit-pgc"]
        for config, result in zip(configs, results):
            assert asdict(result) == asdict(simulate(workload, config))

    def test_iso_shares_only_where_its_stream_is_permits(self):
        # ISO's extra storage changes no Berti candidate here, so on packed
        # runs it shares Permit's drive; the generator loop has no recorded
        # stream to compare and keeps the storage sizes apart
        workload = by_name("astar")
        for packed, drives in ((True, 1), (False, 2)):
            configs = _configs(workload, ("permit", "iso"), packed=packed)
            before = DRIVES.total()
            simulate_policies(workload, configs)
            assert DRIVES.total() - before == drives

    def test_validated_configs_share_and_sampled_run_alone(self):
        from dataclasses import replace

        from repro.experiments.sampling import SamplingConfig

        # the invariant checker only reads engine state, so validated
        # configs ride one lockstep drive like any others (Berti proposes
        # no page-cross candidate on omnetpp, so the two never diverge)
        omnetpp = by_name("omnetpp")
        configs = [replace(config, validate=True)
                   for config in _configs(omnetpp, ("discard", "permit"), packed=True)]
        before = _counts()
        results = simulate_policies(omnetpp, configs)
        assert _delta(before) == {"led": 1, "shared": 1, "diverged": 0}
        for config, result in zip(configs, results):
            assert asdict(result) == asdict(simulate(omnetpp, config))
        workload = by_name("hmmer")
        plain, = _configs(workload, ("discard",), packed=True)
        sampled = replace(plain, sampling=SamplingConfig(intervals=4, phases=2, resamples=50))
        before = _counts()
        simulate_policies(workload, [sampled, replace(sampled)])
        assert _delta(before)["shared"] == 0

    def test_empty_input(self):
        assert simulate_policies(by_name("astar"), []) == []
