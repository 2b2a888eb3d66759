"""Runtime invariant checking and differential validation.

Two complementary layers guard the simulator's headline counters:

* :class:`InvariantChecker` (:mod:`repro.validate.invariants`) attaches to a
  live :class:`~repro.cpu.core.CoreEngine` and asserts conservation laws per
  epoch and at result-collection time — enabled per run via
  ``SimConfig(validate=True)`` or the CLI's ``--validate`` flag;
* :func:`run_validation_suite` (:mod:`repro.validate.differential`) runs
  metamorphic checks over the production code paths — determinism,
  parallel == serial, discard == source suppression,
  epoch invariance, packed == generator (single-core and per mix core),
  replayed prefetch-candidate streams == live prefetchers
  (:func:`check_prefetch_replay_matches_live`), policy lockstep == solo
  runs (:func:`check_policy_ensemble_matches_solo`),
  sampled-within-error-bound against a full run
  (:func:`check_sampled_matches_full`), a clean invariant pass per
  (workload × policy), and
  mutation detection via :func:`reintroduce_stale_mshr_bug` — exposed as
  the ``repro validate`` subcommand.
"""

from repro.validate.differential import (
    CheckOutcome,
    check_mix_packed_matches_generator,
    check_packed_matches_generator,
    check_policy_ensemble_matches_solo,
    check_prefetch_replay_matches_live,
    check_sampled_matches_full,
    result_diff,
    run_validation_suite,
)
from repro.validate.invariants import InvariantChecker, InvariantViolation
from repro.validate.mutation import reintroduce_stale_mshr_bug

__all__ = [
    "CheckOutcome",
    "check_mix_packed_matches_generator",
    "check_packed_matches_generator",
    "check_policy_ensemble_matches_solo",
    "check_prefetch_replay_matches_live",
    "check_sampled_matches_full",
    "InvariantChecker",
    "InvariantViolation",
    "reintroduce_stale_mshr_bug",
    "result_diff",
    "run_validation_suite",
]
