"""The benchmark's workloads, generated from the ``--seed`` argument.

The program only ever receives what is built here: ``SimConfig``s for
the engine windows and a ``CampaignSpec`` for the front ends.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import SimConfig
from repro.farm.plan import CampaignSpec
from repro.service.scenarios import build_campaign

#: seeded windows per engine workload.  One 5000-cycle window of
#: saturated PR varies its mean latency by a quarter between seeds
#: (rescue episodes are rare and long); the median over five windows
#: varies by less than a tenth.
WINDOWS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: reference-backend configs; each runs on both backends.
    windows: tuple[SimConfig, ...]
    warmup: int
    measure: int
    #: what goes through the pool, the farm and the service.
    campaign: CampaignSpec


def _torus_workload(name: str, why: str, seed: int, **knobs) -> Workload:
    base = SimConfig(dims=(8, 8), pattern="PAT721", num_vcs=4, **knobs)
    windows = tuple(replace(base, seed=seed * WINDOWS + i)
                    for i in range(WINDOWS))
    warmup, measure = 1000, 4000
    # The front ends carry two of the windows on the vector backend,
    # the backend campaigns are meant to use; a reference point would
    # make every front-end figure mostly reference-engine time.
    campaign = CampaignSpec(
        configs=tuple(replace(w, backend="vector") for w in windows[:2]),
        warmup=warmup, measure=measure, shard_size=1, name=name,
    )
    return Workload(name, why, windows, warmup, measure, campaign)


def pr_saturated(seed: int) -> Workload:
    return _torus_workload(
        "pr-saturated",
        "scarce VCs at saturation: fabric contention dominates and PR"
        " rescues deadlocks, the paper's regime",
        seed, scheme="PR", load=0.014,
    )


def dr_light(seed: int) -> Workload:
    return _torus_workload(
        "dr-light",
        "idle fabric, no deadlock: traffic and NI/detector polling"
        " dominate; no-change case for fabric and recovery work",
        seed, scheme="DR", load=0.004,
    )


def campaign_ladder(seed: int) -> Workload:
    spec = build_campaign("scheme-ladder", "smoke", seed=seed)
    return Workload(
        "campaign-ladder",
        "9 small SA/DR/PR points: cache, dispatch and service overhead"
        " are a visible share of the campaign",
        spec.configs, spec.warmup, spec.measure, spec,
    )


WORKLOADS = {
    "pr-saturated": pr_saturated,
    "dr-light": dr_light,
    "campaign-ladder": campaign_ladder,
}
