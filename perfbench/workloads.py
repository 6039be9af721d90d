"""The benchmark's workloads and how one repetition's config is derived.

Every workload is AlterBFT under an open-loop Poisson client load in
simulated time (512-byte transactions) on the default calibrated
single-AZ network model: 0.5 ms base delay, 0.4 ms exponential jitter,
Δ_small = 5 ms, 50 MB/s per flow, 250 MB/s NIC egress and a 5 % Pareto
slowdown on large messages.  Arrivals are scheduled at their due
simulated time, so generator lateness is zero by construction.

Arrivals stop at ``arrivals_end`` and the simulation then drains until
``horizon``: a transaction still uncommitted at the horizon is a failed
operation, not one that was merely in flight when the clock stopped.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Transaction payload size, bytes.
TX_SIZE = 512


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (``BENCHMARK.json`` says why each exists).

    ``sub_seeds`` simulations with distinct seeds derived from the run's
    ``--seed`` make up one run's protocol-plane sample; pooling them is
    what keeps the protocol-plane figures steady from one seed to the
    next.
    """

    name: str
    f: int
    rate: float
    warmup: float
    arrivals_end: float
    horizon: float
    sub_seeds: int
    overrides: Tuple[Tuple[str, object], ...] = ()
    #: Replica crashed at the end of warmup (``None``: no fault).
    crash_replica: Optional[int] = None
    observability: bool = False
    wire_accounting: bool = False

    def seeds(self, seed: int) -> Tuple[int, ...]:
        """The simulation seeds one run with ``--seed seed`` uses."""
        return tuple(seed * 1000 + i for i in range(self.sub_seeds))

    @property
    def window(self) -> float:
        """Length of the measurement window [warmup, arrivals_end), s."""
        return self.arrivals_end - self.warmup


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="steady-n3",
            f=1,
            rate=2000.0,
            warmup=0.5,
            arrivals_end=2.5,
            horizon=3.0,
            sub_seeds=6,
        ),
        Workload(
            name="leader-crash-dissem-n9",
            f=4,
            rate=1000.0,
            warmup=1.0,
            arrivals_end=4.0,
            horizon=7.0,
            sub_seeds=16,
            overrides=(("dissemination", True),),
            crash_replica=1,
        ),
        Workload(
            name="all-on-n7",
            f=3,
            rate=2000.0,
            warmup=0.5,
            arrivals_end=1.3,
            horizon=1.5,
            sub_seeds=3,
            overrides=(
                ("pipeline_depth", 2),
                ("crypto_batch", True),
                ("crypto_aggregate", True),
                ("checkpoint_interval", 50),
                ("guard_enabled", True),
            ),
            observability=True,
            wire_accounting=True,
        ),
    )
}


def make_experiment(workload: Workload, seed: int, observability: bool = False):
    """The :class:`repro.config.ExperimentConfig` of one simulation.

    Built through ``repro.bench.common.make_config`` (so Δ_small and
    Δ_big are derived exactly as the paper's experiments derive them),
    then the arrival window and horizon are set: ``make_config`` ends
    arrivals ``warmup`` seconds before the horizon, the benchmark wants
    its own drain time.
    """
    from repro.bench.common import make_config

    faults = ()
    if workload.crash_replica is not None:
        faults = ((workload.crash_replica, f"crash@{workload.warmup}"),)
    config = make_config(
        "alterbft",
        f=workload.f,
        rate=workload.rate,
        tx_size=TX_SIZE,
        duration=workload.horizon,
        warmup=workload.warmup,
        seed=seed,
        faults=faults,
        wire_accounting=workload.wire_accounting,
        **dict(workload.overrides),
    )
    return dataclasses.replace(
        config,
        workload=dataclasses.replace(config.workload, duration=workload.arrivals_end),
        observability=workload.observability or observability,
    )
