"""``repro.farm`` — a fault-tolerant distributed sweep farm.

Shards a campaign of sweep points across pluggable workers (in-process,
local process pools, ssh hosts, externally provisioned job directories)
with the on-disk result cache as the coordination substrate.  Every
local run goes through the same manager, so this is the one dispatch
loop of the repo.  See :mod:`repro.farm.manager` for the robustness
model and the README's "Distributed sweeps" section for the operator's
view.

Host specification strings (CLI ``--hosts``, comma-separated)::

    local          this machine, 1 slot (one worker process)
    local:4        this machine, 4 slots (four worker processes)
    ssh:HOST       HOST over ssh (repro on the remote PYTHONPATH)
    ext:DIR        job-dir protocol rooted at DIR (external agent)
"""

from __future__ import annotations

from repro.farm.chaos import (
    ChaosWorker,
    WorkerFaultSpec,
    parse_worker_fault,
)
from repro.farm.executor import (
    execute_points,
    execution_hosts,
    farm_run_points,
    farm_width,
    parse_hosts,
)
from repro.farm.health import (
    HEALTHY,
    PROBATION,
    QUARANTINED,
    SUSPECT,
    HostHealth,
)
from repro.farm.manager import FarmManager, FarmPolicy, ShardFailure
from repro.farm.plan import CampaignSpec, Shard, plan_shards
from repro.farm.workers import (
    ExternalWorker,
    FarmWorker,
    InProcessWorker,
    LocalPoolWorker,
    ShardJob,
    ShardOutcome,
    ShardTransportError,
    SSHHostWorker,
)

__all__ = [
    "CampaignSpec", "Shard", "plan_shards",
    "FarmManager", "FarmPolicy", "ShardFailure",
    "FarmWorker", "InProcessWorker", "LocalPoolWorker", "SSHHostWorker",
    "ExternalWorker", "ShardJob", "ShardOutcome", "ShardTransportError",
    "HostHealth", "HEALTHY", "SUSPECT", "QUARANTINED", "PROBATION",
    "ChaosWorker", "WorkerFaultSpec", "parse_worker_fault",
    "parse_hosts", "execution_hosts", "execute_points", "farm_run_points",
    "farm_width",
]
