"""The controller registry: policy brains behind the control plane.

A controller is the decision function the plane runs once per control
tick; the plane owns observation (estimators), lifecycle mechanics
(drain/boot state machines) and actuation plumbing (P-state repricing,
deep gating), so a controller body is a few dozen lines of policy.
The registry mirrors :data:`repro.fleet.routing.POLICY_FUNCTIONS` —
``CONTROL_POLICIES`` is derived from it and mirrored into the
``fleet.control`` platform-property row (a pinned test fails if the
two drift).

* ``static`` — no controller at all: the fleet behaves exactly as it
  did before this subsystem existed (no plane is even built, so the
  event stream is byte-identical to the legacy path).
* ``slo-pack`` — consolidate servers while a windowed pooled-p99
  estimator stays under ``fleet.slo_p99_ns``, with hysteresis on both
  edges: unpark immediately when p99 crosses the guard band, park only
  after several consecutive comfortable ticks.
* ``sleepscale`` — joint speed-and-sleep selection per SleepScale
  (PAPERS.md: arxiv 1404.5121): each tick, search the discrete
  (active-server count × P-state) grid against the observed
  arrival-rate estimate, keep the feasible cell with the lowest
  predicted fleet power, and move one step toward it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only (no runtime fleet import)
    from repro.control.plane import ControlPlane


class Controller:
    """Structural interface controllers must implement."""

    def tick(self, plane: "ControlPlane") -> None:  # pragma: no cover - protocol
        """One control decision; actuate through the plane's verbs."""
        raise NotImplementedError


#: p99 above this fraction of the SLO triggers an immediate unpark.
SLO_GUARD_BAND = 0.9
#: p99 below this fraction of the SLO counts toward a park decision.
SLO_COMFORT_BAND = 0.5
#: Consecutive comfortable ticks required before parking one server.
PARK_PATIENCE_TICKS = 3

#: Utilization cap the SleepScale grid search treats as infeasible
#: (an M/M/c system run this hot has an unbounded tail in practice).
RHO_CAP = 0.95
#: Predicted p99 must stay under this fraction of the SLO — headroom
#: for the open-loop model error the measured-p99 backstop then covers.
PREDICT_MARGIN = 0.85
#: ln(100): p99 of an exponential response-time distribution is
#: 4.605x its mean (the M/M/1-per-core approximation the grid uses).
P99_OVER_MEAN = math.log(100.0)

#: Predictor calibration for the park-vs-speed trade (watts): the
#: paper's CPC1A platform idles near 44 W at the wall and a parked,
#: deep-gated server floors near 29 W (Sec. 7.2). Only the *ranking*
#: of grid cells consumes these; measured energy always comes from
#: the simulator's integrated channels.
ACTIVE_IDLE_W = 44.0
PARKED_W = 29.0


class SloPackController(Controller):
    """Park the tail of the fleet while the SLO holds."""

    def __init__(self) -> None:
        self.target = 0  # 0 = not yet initialized (lazily = n_servers)
        self.comfort_ticks = 0

    def tick(self, plane: "ControlPlane") -> None:
        if self.target == 0:
            self.target = plane.n_servers
        p99 = plane.last_p99_ns
        slo = plane.slo_p99_ns
        if p99 >= 0 and p99 > SLO_GUARD_BAND * slo:
            # Latency pressure: grow immediately, forget the streak.
            self.target = min(plane.n_servers, self.target + 1)
            self.comfort_ticks = 0
        elif p99 < 0 or p99 < SLO_COMFORT_BAND * slo:
            # Comfortable (or idle): shrink only after a patient streak.
            self.comfort_ticks += 1
            if self.comfort_ticks >= PARK_PATIENCE_TICKS:
                self.target = max(1, self.target - 1)
                self.comfort_ticks = 0
        else:
            self.comfort_ticks = 0
        plane.apply_active_target(self.target)


class SleepScaleController(Controller):
    """Joint (active-count × P-state) selection against offered load."""

    def __init__(self) -> None:
        self.target = 0
        self.pstate = ""  # lazily = the fleet's nominal state

    def tick(self, plane: "ControlPlane") -> None:
        table = plane.pstate_table
        if self.target == 0:
            self.target = plane.n_servers
            self.pstate = table.nominal.name
        p99 = plane.last_p99_ns
        slo = plane.slo_p99_ns
        if p99 >= 0 and p99 > SLO_GUARD_BAND * slo:
            # Measured-latency backstop: the open-loop model was too
            # optimistic — back off to nominal speed and grow.
            self.target = min(plane.n_servers, self.target + 1)
            self.pstate = table.nominal.name
        else:
            choice = self._search_grid(plane)
            if choice is not None:
                n_active, pstate = choice
                # Hysteresis: one park/unpark step per tick.
                if n_active > self.target:
                    self.target += 1
                elif n_active < self.target:
                    self.target -= 1
                self.pstate = pstate
        plane.apply_active_target(self.target)
        plane.set_fleet_pstate(self.pstate)

    def _search_grid(self, plane: "ControlPlane") -> tuple[int, str] | None:
        """Lowest-predicted-power feasible (n_active, P-state) cell.

        Deterministic by construction: the scan order (active counts
        ascending, ladder fastest-first) breaks power ties, and every
        operand is a pure function of plane state at this tick.

        The grid is walked as a staircase, in at most n_servers + S
        feasibility checks instead of n_servers x S:

        * feasibility grows with the active count (utilization and
          predicted latency fall as capacity grows);
        * it shrinks down the ladder (work and stretched service grow
          toward the slow end), so each state's fewest feasible
          servers is at least the previous state's;
        * predicted power rises by ACTIVE_IDLE_W - PARKED_W with each
          active server at a fixed state (``n * cores * rho`` is the
          state's offered work whatever ``n`` is).

        So each state's best cell is at its fewest feasible servers,
        and those cells, taken down the ladder, come in scan order.
        """
        table = plane.pstate_table
        rate = plane.arrivals.rate_per_ns
        service_ns = plane.arrivals.mean_service_ns
        cores = plane.cores_per_server
        core = plane.core_spec
        n_servers = plane.n_servers
        slo_budget = PREDICT_MARGIN * plane.slo_p99_ns - plane.overhead_ns
        best: tuple[int, str] | None = None
        best_power = math.inf
        n_active = 1
        for state in table.states:
            scale = table.service_scale(state)
            work = rate * service_ns * scale
            stretched_ns = service_ns * scale
            # The fewest servers (no fewer than the last state's) that
            # carry this state inside the utilization cap and the SLO.
            while n_active <= n_servers:
                rho = work / (n_active * cores)
                if (
                    rho < RHO_CAP
                    and P99_OVER_MEAN * (stretched_ns / (1.0 - rho)) <= slo_budget
                ):
                    break
                n_active += 1
            else:
                # Infeasible at every count: so is every slower state.
                break
            dyn_w = core.cc0_w * table.power_scale(state) - core.cc1_w
            power = (
                n_active * (ACTIVE_IDLE_W + cores * rho * dyn_w)
                + (n_servers - n_active) * PARKED_W
            )
            if power < best_power:
                best_power = power
                best = (n_active, state.name)
        return best


@dataclass(frozen=True)
class ControllerDef:
    """One registry row: a named controller policy."""

    name: str
    doc: str
    #: None marks ``static``: the fleet builds no plane at all.
    factory: Callable[[], Controller] | None


CONTROLLER_DEFS: tuple[ControllerDef, ...] = (
    ControllerDef(
        "static",
        "no controller: the fixed lineup every fleet ran before",
        None,
    ),
    ControllerDef(
        "slo-pack",
        "consolidate while windowed pooled-p99 stays under fleet.slo_p99_ns",
        SloPackController,
    ),
    ControllerDef(
        "sleepscale",
        "joint P-state x sleep grid search against the arrival estimate",
        SleepScaleController,
    ),
)

#: The validated name tuple (mirrored into the ``fleet.control``
#: platform-property row; a pinned test fails if the two drift).
CONTROL_POLICIES = tuple(d.name for d in CONTROLLER_DEFS)

_BY_NAME = {d.name: d for d in CONTROLLER_DEFS}


def controller_def(name: str) -> ControllerDef:
    """Look up one registry row by policy name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown control policy {name!r}; have {CONTROL_POLICIES}"
        ) from None


def build_controller(name: str) -> Controller:
    """Instantiate the controller behind a (non-static) policy name."""
    definition = controller_def(name)
    if definition.factory is None:
        raise ValueError(
            "the 'static' policy has no controller object; the fleet "
            "builds no control plane for it"
        )
    return definition.factory()
