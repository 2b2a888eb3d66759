"""The MOKA Page-Cross Filter (Section III).

:class:`PerceptronFilter` assembles the five hardware components of
Section III-B: per-program-feature hashed perceptron weight tables, one
saturating counter per system feature, the virtual and physical update
buffers, and a threshold policy (static or adaptive).  DRIPPER and the PPF
comparator are both instances of this class with different configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.context import FeatureContext, PrefetchRequest
from repro.core.features import ProgramFeature, get_feature
from repro.core.perceptron import SaturatingCounter, WeightTable
from repro.core.policies import Decision, PageCrossPolicy
from repro.core.system_features import SystemFeatureSpec, get_system_feature
from repro.core.system_state import EpochStats, SystemState
from repro.core.thresholds import AdaptiveThreshold, StaticThreshold, ThresholdConfig
from repro.core.update_buffers import TrainingRecord, UpdateBuffer

#: address-tag bits stored per update-buffer entry (Table III: 36-bit line tag)
_UB_TAG_BITS = 36
#: cache lines per 4KB page as a shift (vUB matches at page granularity)
_PAGE_LINE_SHIFT = 6
#: per-entry metadata bits (hash index + system-feature mask; Table III: 12)
_UB_META_BITS = 12


@dataclass
class FilterConfig:
    """Configuration of a perceptron page-cross filter.

    ``program_features`` entries are feature names from the shared registry,
    or :class:`~repro.core.features.ProgramFeature` instances for custom /
    prefetcher-specialized features (``repro.core.specialized``).
    """

    program_features: tuple[str | ProgramFeature, ...]
    system_features: tuple[str, ...] = ()
    #: per-system-feature activation-threshold overrides (None -> spec default)
    system_thresholds: dict[str, float] = field(default_factory=dict)
    weight_table_entries: int = 512
    weight_bits: int = 5
    vub_entries: int = 4
    pub_entries: int = 128
    adaptive: bool = True
    threshold: ThresholdConfig = field(default_factory=ThresholdConfig)
    static_threshold: int = 0


class PerceptronFilter(PageCrossPolicy):
    """A Page-Cross Filter built from the MOKA framework."""

    name = "moka-filter"

    def __init__(self, config: FilterConfig, name: str | None = None):
        self.config = config
        if name is not None:
            self.name = name
        self.features: list[ProgramFeature] = [
            f if isinstance(f, ProgramFeature) else get_feature(f)
            for f in config.program_features
        ]
        self.tables: list[WeightTable] = [
            WeightTable(config.weight_table_entries, config.weight_bits) for _ in self.features
        ]
        self.sys_specs: list[SystemFeatureSpec] = [
            get_system_feature(n) for n in config.system_features
        ]
        self.sys_weights: dict[str, SaturatingCounter] = {
            spec.name: SaturatingCounter(config.weight_bits) for spec in self.sys_specs
        }
        # each decide stage, resolved once: (index, weights, index_bits) per
        # program feature, and (name, getter, compare, threshold, weight) per
        # system feature
        self._stages = [(feature.index, table.weights, table.index_bits)
                        for feature, table in zip(self.features, self.tables)]
        self._gates = [(spec.name, *spec.gate(config.system_thresholds.get(spec.name)),
                        self.sys_weights[spec.name])
                       for spec in self.sys_specs]
        self.vub = UpdateBuffer(config.vub_entries)
        self.pub = UpdateBuffer(config.pub_entries)
        if config.adaptive:
            self.threshold: AdaptiveThreshold | StaticThreshold = AdaptiveThreshold(config.threshold)
        else:
            self.threshold = StaticThreshold(config.static_threshold)
        # instrumentation
        self.predictions = 0
        self.permits = 0
        self.positive_updates = 0
        self.negative_updates = 0

    # -- prediction (Figure 6) ------------------------------------------------

    def decide(self, req: PrefetchRequest, ctx: FeatureContext, state: SystemState) -> Decision:
        """The four-stage prediction of Figure 6."""
        self.predictions += 1
        # stage 1: extract features, hash, read weights
        indexes: list[int] = []
        total = 0
        for index, weights, index_bits in self._stages:
            idx = index(req, ctx, index_bits)
            indexes.append(idx)
            total += weights[idx]
        # stage 2: gate system-feature weights on the system state
        active: list[str] = []
        for name, getter, compare, threshold, weight in self._gates:
            if compare(getter(state), threshold):
                total += weight.value
                active.append(name)
        # stages 3+4: compare the cumulative weight with the threshold
        issue = total > self.threshold.effective(state)
        if issue:
            self.permits += 1
        return Decision(issue, TrainingRecord(tuple(indexes), tuple(active)))

    # -- training (Figure 7) ------------------------------------------------

    def _train(self, record: TrainingRecord, positive: bool) -> None:
        for table, idx in zip(self.tables, record.program_indexes):
            table.train(idx, positive)
        for sf_name in record.system_features:
            counter = self.sys_weights[sf_name]
            if positive:
                counter.increment()
            else:
                counter.decrement()
        if positive:
            self.positive_updates += 1
        else:
            self.negative_updates += 1

    def on_discarded(self, virt_line: int, record: Optional[TrainingRecord]) -> None:
        """Track a discarded page-cross prefetch for false-negative training."""
        if record is not None:
            # vUB entries are matched at page granularity: a later demand miss
            # anywhere in the discarded prefetch's page is the false-negative
            # signal (this is what lets a 4-entry vUB catch a page-cross
            # prefetch whose demand arrives tens of accesses later).
            self.vub.insert(virt_line >> _PAGE_LINE_SHIFT, record)

    def on_issued(self, phys_line: int, record: Optional[TrainingRecord]) -> None:
        """Track an issued page-cross prefetch for usefulness training."""
        if record is not None:
            self.pub.insert(phys_line, record)

    def on_demand_miss(self, virt_line: int) -> None:
        """vUB check: a matching miss means the discard was a false negative."""
        record = self.vub.pop(virt_line >> _PAGE_LINE_SHIFT)
        if record is not None:
            # false negative: the discarded page-cross prefetch would have
            # covered this miss -> positive training
            self._train(record, positive=True)

    def on_pcb_hit(self, phys_line: int) -> None:
        """pUB positive event: the issued prefetch served a demand hit."""
        record = self.pub.pop(phys_line)
        if record is not None:
            self._train(record, positive=True)

    def on_pcb_evict_unused(self, phys_line: int) -> None:
        """pUB negative event: the issued prefetch was evicted unused."""
        record = self.pub.pop(phys_line)
        if record is not None:
            self._train(record, positive=False)

    def on_epoch(self, epoch: EpochStats) -> None:
        """Forward epoch statistics to the thresholding scheme."""
        self.threshold.on_epoch_end(epoch)

    # -- storage accounting (Table III) --------------------------------------

    def storage_bits(self) -> int:
        """Hardware budget across tables, counters, and buffers."""
        bits = sum(table.storage_bits() for table in self.tables)
        bits += len(self.sys_weights) * self.config.weight_bits
        entry = _UB_TAG_BITS + _UB_META_BITS
        bits += self.config.vub_entries * entry
        bits += self.config.pub_entries * entry
        return bits

    def storage_kib(self) -> float:
        """Hardware budget in KiB (compare with Table III)."""
        return self.storage_bits() / 8 / 1024


def single_feature_filter(
    feature_name: str, *, system: bool = False, adaptive: bool = True
) -> PerceptronFilter:
    """Build a filter driven by one feature only (Figure 14 comparison)."""
    if system:
        config = FilterConfig(program_features=(), system_features=(feature_name,), adaptive=adaptive)
    else:
        config = FilterConfig(program_features=(feature_name,), adaptive=adaptive)
    return PerceptronFilter(config, name=f"single:{feature_name}")
