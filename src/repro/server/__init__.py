"""Server assembly: SoC + DRAM + NIC + workload into one machine.

The central entry points are :func:`~repro.server.experiment.run_experiment`
(build a machine from a :class:`~repro.server.configs.MachineConfig`,
drive it with a workload, return an
:class:`~repro.server.experiment.ExperimentResult`) and the three
baseline configurations of the paper's Sec. 6:

* :func:`~repro.server.configs.cshallow` — CC1 only, no package
  C-states (the recommended datacenter configuration);
* :func:`~repro.server.configs.cdeep` — all core C-states + PC6 via
  the firmware GPMU;
* :func:`~repro.server.configs.cpc1a` — Cshallow plus the APC
  architecture (APMU + IOSM + CLMR, PC1A enabled).
"""

from repro.server.configs import (
    CONFIG_BUILDERS,
    MachineConfig,
    cdeep,
    config_by_name,
    cpc1a,
    cshallow,
)
from repro.server.machine import ServerMachine
from repro.server.stats import LatencyRecorder, LatencySummary
from repro.server.dispatch import Dispatcher
from repro.server.experiment import ExperimentResult, run_experiment

__all__ = [
    "MachineConfig",
    "cshallow",
    "cdeep",
    "cpc1a",
    "config_by_name",
    "CONFIG_BUILDERS",
    "ServerMachine",
    "LatencyRecorder",
    "LatencySummary",
    "Dispatcher",
    "ExperimentResult",
    "run_experiment",
]
