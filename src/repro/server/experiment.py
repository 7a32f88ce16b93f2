"""The experiment driver: one workload on one configuration.

``run_experiment`` is the measurement harness every bench and example
uses: build a machine, warm it up, measure a window, and return an
:class:`ExperimentResult` carrying power, residency, latency,
transition counts and the idle-period trace views — the full set of
observables the paper reports across Figs. 5–9.
They form one :class:`ServerRecord`, which :func:`collect_server`
fills for a server cell and for each server of a fleet cell alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache
from typing import Any, TypeVar

from repro.cell import measure_window
from repro.power.meter import DomainReadout
from repro.server.configs import MachineConfig
from repro.server.machine import ServerMachine
from repro.server.stats import LatencySummary, MachineStats
from repro.tracing.socwatch import OpportunityEstimate
from repro.units import MS, ns_to_s
from repro.workloads.base import Workload


_R = TypeVar("_R", bound="ServerRecord")


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


@dataclass(frozen=True, kw_only=True)
class ServerRecord:
    """One machine's observables over one measurement window.

    The fields with defaults read as "not measured" in records written
    before they existed (fleet records of schema v3 and older).
    """

    #: The fields holding a nested dataclass, and its type.
    _NESTED = (("latency", LatencySummary), ("socwatch", OpportunityEstimate))

    requests_completed: int
    # Power (averages over the window).
    package_power_w: float
    dram_power_w: float
    # Residency.
    core_residency: dict[str, float] = field(default_factory=dict)
    package_residency: dict[str, float]
    utilization: float
    all_idle_fraction: float = 0.0
    socwatch: OpportunityEstimate = OpportunityEstimate(0.0, 0.0, 0, 0, 0.0)
    idle_histogram: dict[str, float] = field(default_factory=dict)
    # Latency (end-to-end, network folded in).
    latency: LatencySummary
    # Transition accounting.
    pc1a_entries: int = 0
    pc1a_exits: int = 0
    pc1a_mean_exit_ns: float = 0.0
    pc1a_max_exit_ns: int = 0
    pc6_entries: int = 0
    pc6_exits: int = 0
    core_wakes: int = 0
    active_after_idle_mean: float = 1.0
    active_after_idle_dist: dict[int, float] = field(default_factory=dict)

    @property
    def total_power_w(self) -> float:
        """SoC + DRAM average power (the paper's headline metric)."""
        return self.package_power_w + self.dram_power_w

    def pc1a_residency(self) -> float:
        """Fraction of the window actually spent in PC1A."""
        return self.package_residency.get("PC1A", 0.0)

    def pc6_residency(self) -> float:
        """Fraction of the window actually spent in PC6."""
        return self.package_residency.get("PC6", 0.0)

    # -- persistence -------------------------------------------------------
    def as_dict(self) -> dict:
        """Plain-data form (exact float round-trip via JSON).

        Equal to ``dataclasses.asdict(self)`` without its deep copy: the
        nested dataclasses become fresh dicts, while the residency and
        histogram dicts are the record's own. Treat the returned
        containers as read-only.
        """
        payload = {name: getattr(self, name) for name in _field_names(type(self))}
        for name, nested in self._NESTED:
            value = payload[name]
            if value is not None:
                payload[name] = {
                    key: getattr(value, key) for key in _field_names(nested)
                }
        return payload

    @classmethod
    def from_dict(cls: type[_R], data: dict) -> _R:
        """Inverse of :meth:`as_dict`.

        JSON stringifies the integer keys of the active-after-idle
        histogram; restore them so round-tripped records compare equal
        to freshly measured ones. A field the data lacks takes its
        default.
        """
        data = dict(data)
        for name, nested in cls._NESTED:
            value = data.get(name)
            if value is not None:
                data[name] = nested(**value)
        if "active_after_idle_dist" in data:
            data["active_after_idle_dist"] = {
                int(n): frac for n, frac in data["active_after_idle_dist"].items()
            }
        return cls(**data)


@dataclass(frozen=True, kw_only=True)
class ExperimentResult(ServerRecord):
    """Everything measured over one experiment window."""

    #: Store-record tag (see ``repro.sweep.store``).
    result_kind = "experiment"
    _NESTED = ServerRecord._NESTED + (("kernel", MachineStats),)

    config_name: str
    workload_name: str
    seed: int
    duration_ns: int
    offered_qps: float
    achieved_qps: float
    # Simulator health (kernel counters at collection time; None for
    # results persisted before the counters existed). Diagnostics, not
    # an observable: excluded from result equality so windows measured
    # after different warmups still compare equal.
    kernel: MachineStats | None = field(default=None, compare=False)


def run_experiment(
    workload: Workload,
    config: MachineConfig,
    duration_ns: int = 400 * MS,
    warmup_ns: int = 50 * MS,
    seed: int = 0,
    machine: ServerMachine | None = None,
) -> ExperimentResult:
    """Run ``workload`` on ``config`` and measure one window.

    The classic driver, kept as a thin wrapper over
    :func:`repro.cell.measure_window`; anything starting from a spec
    should prefer :func:`repro.cell.run_cell`.
    """
    if machine is None:
        machine = ServerMachine(config, seed=seed)
    else:
        # A prebuilt machine must agree with the labels the result will
        # carry; silently preferring the machine would mislabel results.
        if machine.config != config:
            raise ValueError(
                f"machine was built for config {machine.config.name!r} "
                f"but the experiment is labelled {config.name!r}"
            )
        if machine.sim.seed != seed:
            raise ValueError(
                f"machine was built with seed {machine.sim.seed} "
                f"but the experiment is labelled seed {seed}"
            )
    measure_window(machine, workload, duration_ns, warmup_ns)
    return collect_result(machine, workload, duration_ns, seed)


def collect_server(
    machine: ServerMachine,
    readout: dict[str, DomainReadout],
    duration_s: float,
) -> dict[str, Any]:
    """The :class:`ServerRecord` fields of a measured machine; its power
    comes from ``readout``, one pass over the meter its channels are on
    (shared by every server of a fleet)."""
    apmu, gpmu = machine.apmu, machine.gpmu
    package = readout.get(machine.package_domain)
    dram = readout.get(machine.dram_domain)
    # One pass over the cores' residency; utilization is its CC0 share.
    core_residency = machine.core_residency()
    return dict(
        requests_completed=machine.requests_completed,
        package_power_w=(package.energy_j if package else 0.0) / duration_s,
        dram_power_w=(dram.energy_j if dram else 0.0) / duration_s,
        core_residency=core_residency,
        package_residency=machine.package.residency.fractions(),
        utilization=core_residency.get("CC0", 0.0),
        all_idle_fraction=machine.idle_tracker.idle_fraction(),
        socwatch=machine.socwatch.opportunity(),
        idle_histogram=machine.socwatch.duration_histogram(),
        latency=machine.latency.summary(machine.config.network_latency_ns),
        pc1a_entries=apmu.pc1a_entries if apmu else 0,
        pc1a_exits=apmu.pc1a_exits if apmu else 0,
        pc1a_mean_exit_ns=apmu.mean_exit_latency_ns if apmu else 0.0,
        pc1a_max_exit_ns=apmu.exit_latency_max_ns if apmu else 0,
        pc6_entries=gpmu.pc6_entries if gpmu else 0,
        pc6_exits=gpmu.pc6_exits if gpmu else 0,
        core_wakes=sum(core.wake_count for core in machine.cores),
        active_after_idle_mean=machine.active_sampler.mean_active(),
        active_after_idle_dist=machine.active_sampler.distribution(),
    )


def collect_result(
    machine: ServerMachine,
    workload: Workload,
    duration_ns: int,
    seed: int,
) -> ExperimentResult:
    """Assemble an :class:`ExperimentResult` from a measured machine."""
    duration_s = ns_to_s(duration_ns)
    record = collect_server(machine, machine.meter.readout(), duration_s)
    return ExperimentResult(
        **record,
        config_name=machine.config.name,
        workload_name=workload.name,
        seed=seed,
        duration_ns=duration_ns,
        offered_qps=workload.offered_qps,
        achieved_qps=record["requests_completed"] / duration_s,
        kernel=machine.stats(),
    )
