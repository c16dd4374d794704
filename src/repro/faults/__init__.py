"""Fault injection and resilient experiment running.

``python -m repro faultinject`` is the CLI entry point; programmatic use::

    from repro.faults import Campaign, CampaignConfig

    result = Campaign(CampaignConfig.quick()).run()
    print(result.format_report())
"""

from .campaign import (
    Campaign,
    CampaignConfig,
    CampaignResult,
    Deadline,
    RunOutcome,
    RunResult,
    run_campaign_cell,
    run_quick_campaign,
)
from .checkpoint import CheckpointStore
from .injector import (
    ALL_KINDS,
    METADATA_KINDS,
    POINTER_CORRUPTION_KINDS,
    RESILIENCE_KINDS,
    SPATIAL_POINTER_KINDS,
    TEMPORAL_POINTER_KINDS,
    FaultHarness,
    FaultInjector,
    FaultKind,
    FaultSpec,
    InjectionRecord,
    TrackedObject,
    parse_fault_kind,
)

__all__ = [
    "ALL_KINDS",
    "Campaign",
    "CampaignConfig",
    "CampaignResult",
    "CheckpointStore",
    "Deadline",
    "FaultHarness",
    "FaultInjector",
    "FaultKind",
    "FaultSpec",
    "InjectionRecord",
    "METADATA_KINDS",
    "POINTER_CORRUPTION_KINDS",
    "RESILIENCE_KINDS",
    "RunOutcome",
    "RunResult",
    "SPATIAL_POINTER_KINDS",
    "TEMPORAL_POINTER_KINDS",
    "TrackedObject",
    "parse_fault_kind",
    "run_campaign_cell",
    "run_quick_campaign",
]
