"""MOKA framework and DRIPPER — the paper's primary contribution."""

from repro.core.context import FeatureContext, PrefetchRequest
from repro.core.dripper import (
    DRIPPER_FEATURES,
    dripper_config,
    make_dripper,
    make_dripper_sf,
    storage_overhead_kib,
)
from repro.core.ensemble import PolicyEnsemble
from repro.core.features import FEATURES, TABLE_I_FEATURES, ProgramFeature, get_feature
from repro.core.filter import FilterConfig, PerceptronFilter, single_feature_filter
from repro.core.introspect import filter_state, format_filter_state, top_weights, weight_summary
from repro.core.perceptron import SaturatingCounter, WeightTable
from repro.core.policies import (
    Decision,
    DiscardPgc,
    DiscardPtw,
    PageCrossPolicy,
    PermitPgc,
)
from repro.core.ppf import make_ppf, make_ppf_dthr
from repro.core.system_features import SYSTEM_FEATURES, SystemFeatureSpec, get_system_feature
from repro.core.system_state import EpochStats, SystemState
from repro.core.thresholds import DISABLE, AdaptiveThreshold, StaticThreshold, ThresholdConfig
from repro.core.update_buffers import TrainingRecord, UpdateBuffer

__all__ = [
    "FeatureContext",
    "PrefetchRequest",
    "DRIPPER_FEATURES",
    "dripper_config",
    "make_dripper",
    "make_dripper_sf",
    "storage_overhead_kib",
    "FEATURES",
    "TABLE_I_FEATURES",
    "ProgramFeature",
    "get_feature",
    "FilterConfig",
    "PerceptronFilter",
    "single_feature_filter",
    "filter_state",
    "format_filter_state",
    "top_weights",
    "weight_summary",
    "SaturatingCounter",
    "WeightTable",
    "Decision",
    "DiscardPgc",
    "DiscardPtw",
    "PageCrossPolicy",
    "PermitPgc",
    "PolicyEnsemble",
    "make_ppf",
    "make_ppf_dthr",
    "SYSTEM_FEATURES",
    "SystemFeatureSpec",
    "get_system_feature",
    "EpochStats",
    "SystemState",
    "DISABLE",
    "AdaptiveThreshold",
    "StaticThreshold",
    "ThresholdConfig",
    "TrainingRecord",
    "UpdateBuffer",
]
