"""Campaign service: sweeps, result cache, one supervisor protocol.

See ``docs/campaign.md`` for the job model, manifest schema, cache
semantics, and the execution model (every job runs through the
supervisor protocol — lease, outcome file, retry/backoff, quarantine,
failure breaker — inline or in forked worker fault domains).  The CLI
entry point is ``python -m repro campaign``.
"""

from repro.campaign.job import (
    CampaignSpec,
    JobSpec,
    RESULT_FORMAT,
    SPEC_FORMAT,
    canonical_result,
    field_digest,
    merge_overrides,
    set_path,
)
from repro.campaign.manifest import (
    CampaignManifest,
    MANIFEST_FORMAT,
    ManifestError,
)
from repro.campaign.runner import Campaign
from repro.campaign.store import ResultStore
from repro.campaign.supervisor import (
    FailureBreaker,
    Supervisor,
    SupervisorPolicy,
    failure_context,
    lease_is_live,
    read_lease,
    release_lease,
    write_lease,
)

__all__ = [
    "Campaign",
    "CampaignManifest",
    "CampaignSpec",
    "FailureBreaker",
    "JobSpec",
    "MANIFEST_FORMAT",
    "ManifestError",
    "RESULT_FORMAT",
    "ResultStore",
    "SPEC_FORMAT",
    "Supervisor",
    "SupervisorPolicy",
    "canonical_result",
    "failure_context",
    "field_digest",
    "lease_is_live",
    "merge_overrides",
    "read_lease",
    "release_lease",
    "set_path",
    "write_lease",
]
