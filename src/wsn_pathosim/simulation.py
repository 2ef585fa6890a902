"""World orchestration: wires the scenario, protocol, radio, and power models
into one deterministic event loop.

Identical (scenario, seed) pairs replay bit for bit: every random draw comes
from a derived named stream, every container iterates in insertion order, and
virtual time is integer microseconds.

A building-scale day dispatches tens of thousands of events, so the path
from Simulation._dispatch down to the PowerLedgers keeps its Python-level
hops few. Its conventions:

- Enum members are bound once at module level, one unpacking line per enum
  (TIMER_FIRED, ... = EventKind), here and in protocol, power and sensors:
  on CPython 3.10 and 3.11 the Enum metaclass defines __getattr__, so a
  read through the class (EventKind.POLL_WAKE) takes a slow generic
  lookup. An enum's name or value comes from a module table (_EVENT_NAME,
  _STATE_NAME, protocol._KIND_NAME), not from its descriptor.
  tests/test_enum_reads.py holds a shipped day to none.
- What is fixed when a node is built is a field, not a property
  (NodeRuntime.is_end_device), and a ledger's death is read as
  `dead_at is not None`.
- Records built per event (frames, delivered frames, stimuli, timers,
  samples) are NamedTuples or plain slotted classes, never frozen
  dataclasses, and events are built positionally: a frozen dataclass sets
  each field through object.__setattr__, and a SimEvent built from
  keywords took twice as long. A NamedTuple compares as a tuple, so record
  types are told apart by type, never by ==. tests/test_records.py holds
  all of this.
- PowerLedger books a span in place: no helper call per span.
- A trace line is formatted only when tracing is on.
- An End Device's sensor stream (NodeRuntime.sensor_rng) is built at the
  device's first step, from the same derived seed, and every Timer at its
  first arm: a 1000-device building whose devices do not sample within the
  horizon then seeds no Mersenne Twister and builds no Timer for them.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from .engine import (EventKind, EventQueue, RngStream, SimEvent, Ticks, Timer, derive_seed,
                     has_finite_ticks, seconds_from_ticks, ticks_from_seconds)
from .model import (NodeRole, NodeSpec, ScenarioConfig, ScenarioError, UnknownNodeError,
                    Violation, validate_scenario)
from .power import CyclicSleepConfig, PowerLedger, PowerState
from .propagation import link_budget, select_channel
from .protocol import (PARENT_BUFFER_CAPACITY, WIRE_LENGTHS, CoordinatorSession,
                       CoordinatorStimulus, DeliveredFrame, DevicePhase, DeviceStepResult,
                       DeviceStimulus, EndDeviceState, ExternalWakeStimulus,
                       GuardExpiredStimulus, MessageFrame, MessageKind, ParentTable,
                       ResponseTimeoutStimulus, SampleRecord, WarmupDoneStimulus,
                       build_parent_table, coordinator_step, end_device_step, route_path,
                       set_period_payload)

logger = logging.getLogger(__name__)

DROP_NO_ROUTE = "no_route"
DROP_NODE_DEAD = "node_dead"
DROP_BUFFER_FULL = "buffer_full"

TRACE_BLOCK_LINES = 1024  # trace lines joined into one block of text

# Enum members read on the per-event path, bound once. On CPython 3.10 and
# 3.11 the Enum metaclass defines __getattr__, which turns every
# EventKind.POLL_WAKE-style read into a generic attribute lookup of about
# 150 ns, against about 14 ns for a module global.
(TIMER_FIRED, FRAME_DELIVERED, POLL_WAKE, EXTERNAL_WAKE, WARMUP_DONE, TIMEOUT,
 COMMAND_INJECTED) = EventKind
PHASE_SLEEPING, TRANSMITTING = DevicePhase.SLEEPING, PowerState.TRANSMITTING
SET_PERIOD = MessageKind.SET_PERIOD

# Event payloads. EXTERNAL_WAKE carries this stimulus and FRAME_DELIVERED a
# DeliveredFrame, which the device's step function takes as they are.
# TIMER_FIRED carries the guard's deadline tick: the GuardExpiredStimulus is
# built only for a guard that fires, and most are superseded first. POLL_WAKE
# carries nothing.
WAKE_STIMULUS = ExternalWakeStimulus()


class SessionTimer(NamedTuple):
    """WARMUP_DONE and TIMEOUT payload: what to hand back to a device's
    session; immutable."""

    device: int
    stimulus: WarmupDoneStimulus | ResponseTimeoutStimulus


class SetPeriodCommand(NamedTuple):
    """COMMAND_INJECTED payload: send SET_PERIOD to an end device; immutable."""

    node: int
    seconds: int


def _frame_detail(delivered: DeliveredFrame) -> str:
    """Trace detail of a frame_delivered event and of a deliver action."""
    return f"{delivered.frame.summary()} rssi={delivered.rssi_dbm!r}"


# The trace kind column of each event kind and the report key of each power
# state, read once: Enum.value goes through a Python-level descriptor on
# every read.
_EVENT_NAME = {kind: kind.value for kind in EventKind}
_STATE_NAME = {state: state.value for state in PowerState}

# The trace detail of each event kind, from its payload (docs/protocol.md, "Trace lines").
_EVENT_DETAIL: dict[EventKind, Callable[[Any], str]] = {
    POLL_WAKE: lambda _: "",
    EXTERNAL_WAKE: lambda _: "",
    FRAME_DELIVERED: _frame_detail,
    TIMER_FIRED: lambda deadline: f"guard deadline={deadline}",
    WARMUP_DONE: lambda t: f"device={t.device} round={t.stimulus.round_no}",
    TIMEOUT: lambda t: (f"device={t.device} round={t.stimulus.round_no}"
                        f" attempt={t.stimulus.attempt}"),
    COMMAND_INJECTED: lambda c: f"set_period node={c.node} seconds={c.seconds}",
}


class InvalidScenarioError(ScenarioError):
    """A scenario that fails validation cannot be simulated."""

    def __init__(self, violations: list[Violation]):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations


@dataclass(slots=True)
class NodeRuntime:
    """One node's state. airtime maps a frame's wire length to the ticks the
    node takes to send it. is_end_device is set from device_state when the
    runtime is built. An End Device's ledger carries its poll grid; the
    device also carries its wake schedule (sleep), the tick of its last
    scheduled external wake, the rank that places its polls among the polls
    of a tick (after every other event of it), the timer of its one poll
    that is a real event and the guard timer of its round. Its timers are
    built at their first arm (poll_timer, guard_timer) and its sensor stream
    at its first step (Simulation._device_step), so a router or the
    coordinator holds none, and a device only those it has used."""

    spec: NodeSpec
    ledger: PowerLedger
    airtime: dict[int, Ticks]
    device_state: EndDeviceState | None = None
    sensor_rng: RngStream | None = None
    sleep: CyclicSleepConfig | None = None
    rounds_lost: int = 0
    death_logged: bool = False
    next_wake: Ticks | None = None
    poll_rank: int = 0
    real_poll: Timer | None = None
    guard: Timer | None = None
    is_end_device: bool = field(init=False)

    def __post_init__(self) -> None:
        self.is_end_device = self.device_state is not None

    def poll_timer(self) -> Timer:
        """The real poll's timer, built at its first arm."""
        if self.real_poll is None:
            self.real_poll = Timer(self.poll_rank)
        return self.real_poll

    def guard_timer(self) -> Timer:
        """The round guard's timer, built at its first arm."""
        if self.guard is None:
            self.guard = Timer()
        return self.guard


@dataclass
class NodeEnergy:
    durations_s: dict[str, float]
    consumed_mah: float
    average_ma: float | None
    battery_capacity_mah: float | None
    remaining_mah: float | None
    dead_at_s: float | None


@dataclass
class RunStats:
    events_processed: int
    poll_wakes_elided: int
    clock_ticks: Ticks
    frames_sent: int
    frames_delivered: int
    frames_dropped: dict[str, int]
    frames_buffered_pending: int
    frames_in_flight: int
    samples_per_node: dict[int, int]
    rounds: dict[int, dict[str, int]]
    energy: dict[int, NodeEnergy]
    unreachable: tuple[int, ...]
    channel: int | None
    cyclic_sleep: dict[int, CyclicSleepConfig]
    errors_seen: dict[str, int] = field(default_factory=dict)

    @property
    def clock_s(self) -> float:
        return seconds_from_ticks(self.clock_ticks)

    @property
    def total_dropped(self) -> int:
        return sum(self.frames_dropped.values())


class Simulation:
    """One runnable world built from a validated scenario.

    End Devices poll their parents on a fixed grid. A poll that finds the
    device awake, or asleep with nothing buffered for it, only books energy,
    so it is no event: each device's ledger books its grid polls in closed
    form whenever it advances. A device has at most one real POLL_WAKE
    event: its next poll while a frame waits for the sleeping device, else
    the first poll the death bound (PowerLedger.first_risky_poll) cannot
    clear, if that comes by its next own event. Each real poll plans the
    next the same way, so the poll that finds the battery empty is one of
    them. poll_wakes_elided counts the polls booked without an event.

    Polls run last in their tick: every other event of tick t runs first, in
    scheduling order, then the real polls of t by rank, so a parent
    answers a poll with every frame it holds at the end of t. A ledger books
    its polls at t when the clock leaves t, and the horizon of run_until
    books them at the horizon. An event scheduled at t while the polls of t
    run (a delay of 0 ticks) runs before the polls left, after those done.

    Only timers that can still act are dispatched. A device's guard and real
    poll (NodeRuntime) and each coordinator session's WARMUP_DONE or TIMEOUT
    are engine Timers, each built at its first arm: each step re-arms or
    disarms them, and an event its timer no longer holds could only have
    been found stale, so no state machine would act on it; it is no event
    and leaves no trace line.
    """

    def __init__(self, config: ScenarioConfig, *, seed: int | None = None,
                 trace: bool = False) -> None:
        violations = validate_scenario(config)
        if violations:
            raise InvalidScenarioError(violations)
        self.config = config
        self.seed = config.seed if seed is None else seed
        self.queue = EventQueue()
        self.parent_table: ParentTable = build_parent_table(config)
        self.channel: int | None = (select_channel(config.channels)
                                    if config.channels else None)
        self.records: list[SampleRecord] = []
        self._samples_per_node: dict[int, int] = {}  # records per node, in first-record order
        self.trace_enabled = trace
        self._trace_blocks: list[str] = []  # joined text of the earlier trace lines
        self._trace_pending: list[str] = []  # the lines since, each ending in "\n"
        self.events_processed = 0
        self.dead_skips = 0
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_dropped: Counter[str] = Counter()
        self.errors_seen: Counter[str] = Counter()
        self._coordinator = config.coordinator()
        # Every duration the loop schedules, in ticks.
        self._guard_ticks = ticks_from_seconds(config.warmup_delay_s + config.response_timeout_s)
        self._session_timers = {  # the event each coordinator timer becomes, and its delay
            WarmupDoneStimulus: (WARMUP_DONE, ticks_from_seconds(config.warmup_delay_s)),
            ResponseTimeoutStimulus: (TIMEOUT, ticks_from_seconds(config.response_timeout_s))}
        self._handlers: dict[EventKind, Callable[[NodeRuntime, Any, Ticks], None]] = {
            EXTERNAL_WAKE: self._device_step,
            TIMER_FIRED: self._on_guard,
            FRAME_DELIVERED: self._on_frame,
            WARMUP_DONE: self._on_session_timer,
            TIMEOUT: self._on_session_timer,
            COMMAND_INJECTED: self._on_command}
        self._coord_seq = 0
        self._routes: dict[tuple[int, int], list[int] | None] = {}
        self._shadow_rng = RngStream(derive_seed(self.seed, "shadowing"))
        self._real_polls = 0
        self._polls_ran = (-1, 0)  # (tick, rank) of the last real poll dispatched

        window = ticks_from_seconds(config.poll_wake_duration_s)
        override = config.tx_airtime_override_s
        airtimes: dict[float, dict[int, Ticks]] = {}  # shared by nodes of one bitrate
        self.runtimes: dict[int, NodeRuntime] = {}
        for node in config.nodes:
            bitrate = node.radio.bitrate_bps
            if bitrate not in airtimes:
                airtimes[bitrate] = {length: ticks_from_seconds(
                    length * 8 / bitrate if override is None else override)
                    for length in WIRE_LENGTHS}
            if node.role is NodeRole.END_DEVICE:
                assert node.battery is not None and node.sample_period_s is not None
                sleep = CyclicSleepConfig.from_periods(node.sample_period_s,
                                                       node.radio.poll_period_s)
                ledger = PowerLedger(profile=config.consumption,
                                     state=PowerState.SLEEPING,
                                     battery_capacity_mah=node.battery.capacity_mah,
                                     battery_remaining_mah=node.battery.remaining_mah,
                                     poll_ticks=ticks_from_seconds(node.radio.poll_period_s),
                                     poll_window=window)
                runtime = NodeRuntime(
                    spec=node, ledger=ledger, airtime=airtimes[bitrate],
                    device_state=EndDeviceState(node_id=node.id),
                    sleep=sleep, next_wake=sleep.period_ticks)
                self.queue.schedule(sleep.period_ticks, EXTERNAL_WAKE, node.id, WAKE_STIMULUS)
            else:
                runtime = NodeRuntime(spec=node, airtime=airtimes[bitrate], ledger=PowerLedger(
                    profile=config.consumption, state=PowerState.AWAKE_IDLE))
            self.runtimes[node.id] = runtime
        self._devices = [runtime for runtime in self.runtimes.values() if runtime.is_end_device]
        # Same-tick polls run longest period first, then in node order.
        for rank, runtime in enumerate(sorted(self._devices,
                                              key=lambda rt: -rt.ledger.poll_ticks)):
            runtime.poll_rank = rank

        self.sessions: dict[int, CoordinatorSession] = {
            device.id: CoordinatorSession(device=device.id)
            for device in config.end_devices()}
        self._timers: dict[int, Timer] = {}  # WARMUP_DONE/TIMEOUT, built at a session's first arm

        for runtime in self._devices:
            self._plan_poll(runtime)

    # ------------------------------------------------------------------
    # Public control
    # ------------------------------------------------------------------

    @property
    def now(self) -> Ticks:
        return self.queue.now

    def run_until(self, horizon_s: float) -> RunStats:
        """Process every event up to the horizon (virtual seconds), then
        advance the clock to it and return the statistics snapshot."""
        if not math.isfinite(horizon_s):
            raise ValueError(f"horizon must be a finite number of seconds, got {horizon_s}")
        if not has_finite_ticks(horizon_s):
            raise ValueError(f"horizon must be a finite number of 1 us ticks, got {horizon_s} s")
        limit = ticks_from_seconds(horizon_s)
        if limit < self.queue.now:
            raise ValueError(f"horizon {horizon_s} s is before the current clock")
        pop_due, dispatch = self.queue.pop_due, self._dispatch
        while (event := pop_due(limit)) is not None:
            dispatch(event)
        self.queue.now = limit
        self._settle_ledgers(limit)
        return self.stats()

    def step(self) -> SimEvent | None:
        """Process exactly one pending event (advancing the clock to it)."""
        event = self.queue.pop_next()
        if event is not None:
            self._dispatch(event)
        return event

    def inject_set_period(self, node_id: int, period_s: int) -> None:
        """Queue a coordinator-issued SET_PERIOD command at the current clock.

        The frame carries whole seconds: a period that is not a whole number
        (an int, or a float such as 60.0), or is a bool, raises ValueError."""
        node = self.config.node(node_id)
        if node.role is not NodeRole.END_DEVICE:
            raise UnknownNodeError(f"node {node_id} is not an end device")
        whole = isinstance(period_s, int) or (isinstance(period_s, float)
                                              and period_s.is_integer())
        if isinstance(period_s, bool) or not whole:
            raise ValueError(f"period must be a whole number of seconds, got {period_s!r}")
        if period_s <= 0 or period_s > 0xFFFFFFFF:
            raise ValueError(f"period must be in 1..2^32-1 s, got {period_s}")
        self.queue.schedule(self.queue.now, COMMAND_INJECTED, self._coordinator.id,
                            SetPeriodCommand(node_id, int(period_s)))

    @property
    def poll_wakes_elided(self) -> int:
        """Polls booked without an event, up to the current clock."""
        self._book_passed_polls()
        return sum(runtime.ledger.polls for runtime in self._devices) - self._real_polls

    def stats(self) -> RunStats:
        elided = self.poll_wakes_elided
        samples = dict(self._samples_per_node)
        rounds: dict[int, dict[str, int]] = {}
        energy: dict[int, NodeEnergy] = {}
        cyclic: dict[int, CyclicSleepConfig] = {}
        elapsed_h = seconds_from_ticks(self.queue.now) / 3600.0
        for node_id, runtime in self.runtimes.items():
            ledger = runtime.ledger
            consumed = ledger.consumed_mah
            energy[node_id] = NodeEnergy(
                durations_s={_STATE_NAME[state]: ticks / 1e6
                             for state, ticks in ledger.durations.items()},
                consumed_mah=consumed,
                average_ma=(consumed / elapsed_h) if elapsed_h > 0 else None,
                battery_capacity_mah=ledger.battery_capacity_mah,
                remaining_mah=ledger.battery_remaining_mah,
                dead_at_s=(seconds_from_ticks(ledger.dead_at)
                           if ledger.dead_at is not None else None))
            if runtime.is_end_device:
                session = self.sessions[node_id]
                rounds[node_id] = {"completed": session.rounds_completed,
                                   "aborted": session.rounds_aborted,
                                   "lost": runtime.rounds_lost}
                assert runtime.sleep is not None
                cyclic[node_id] = runtime.sleep
        pending = sum(len(buffer) for buffer in self.parent_table.buffers.values())
        in_flight = sum(1 for event in self.queue.pending()
                        if event.kind is FRAME_DELIVERED)
        return RunStats(events_processed=self.events_processed,
                        poll_wakes_elided=elided,
                        clock_ticks=self.queue.now,
                        frames_sent=self.frames_sent,
                        frames_delivered=self.frames_delivered,
                        frames_dropped=dict(self.frames_dropped),
                        frames_buffered_pending=pending,
                        frames_in_flight=in_flight,
                        samples_per_node=samples, rounds=rounds, energy=energy,
                        unreachable=self.parent_table.unreachable,
                        channel=self.channel, cyclic_sleep=cyclic,
                        errors_seen=dict(self.errors_seen))

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, event: SimEvent) -> None:
        kind = event.kind
        if kind is POLL_WAKE:
            self._on_poll_wake(event)
            return
        runtime = self.runtimes[event.node]
        now = event.at
        ledger = runtime.ledger
        device = runtime.is_end_device
        if device and self._polls_ran >= (now, runtime.poll_rank):
            ledger.poll(now)  # scheduled while its tick's polls run, after its own
        ledger.advance(now)
        if ledger.dead_at is not None:
            self._note_death(runtime, now)
            if kind is FRAME_DELIVERED:
                self._drop(event.payload.frame, DROP_NODE_DEAD, now)
            self.dead_skips += 1
            return
        self.events_processed += 1
        if self.trace_enabled:
            self._trace_event(event)
        self._handlers[kind](runtime, event.payload, now)
        if device:
            self._plan_poll(runtime)

    def _on_poll_wake(self, event: SimEvent) -> None:
        """A real poll: the battery may be found empty, and frames buffered
        for a sleeping device are delivered."""
        node_id, now = event.node, event.at
        runtime = self.runtimes[node_id]
        self._polls_ran = (now, runtime.poll_rank)
        ledger = runtime.ledger
        if not ledger.poll(now):
            assert ledger.dead_at is not None, "a real poll at a tick whose poll is booked"
            self._note_death(runtime, now)
            self.dead_skips += 1
            return
        self._real_polls += 1
        self.events_processed += 1
        if self.trace_enabled:
            self._trace_event(event)
        if ledger.dead_at is not None:  # ran out inside the poll window
            self._note_death(runtime, now)
            return
        state = runtime.device_state
        assert state is not None
        buffer = self.parent_table.buffers.get(node_id)
        parent_id = self.parent_table.parent.get(node_id)
        while state.phase is PHASE_SLEEPING and buffer and parent_id is not None:
            frame = buffer.popleft()
            parent_rt = self.runtimes[parent_id]
            parent_rt.ledger.charge_slice(
                TRANSMITTING, parent_rt.airtime[frame.wire_length], now)
            delivered = DeliveredFrame(frame, self._rssi(parent_id, node_id))
            if self.trace_enabled:
                self._trace_action("deliver", node_id, _frame_detail(delivered), now)
            self._on_frame(runtime, delivered, now)
        self._plan_poll(runtime)

    # The handlers of every kind but POLL_WAKE: (node the event is for, payload, clock).

    def _device_step(self, runtime: NodeRuntime, stimulus: DeviceStimulus, now: Ticks) -> None:
        """Step the device's state machine and carry its result out."""
        state = runtime.device_state
        assert state is not None
        sensor_rng = runtime.sensor_rng
        if sensor_rng is None:
            sensor_rng = runtime.sensor_rng = RngStream(
                derive_seed(self.seed, "sensor", runtime.spec.id))
        result = end_device_step(state, stimulus, now, runtime.spec, sensor_rng,
                                 coordinator_id=self._coordinator.id,
                                 guard_ticks=self._guard_ticks)
        if result.error is not None:
            self.errors_seen[result.error.name.lower()] += 1
        if result.power_state is not None:
            runtime.ledger.set_state(result.power_state, now)
        for frame in result.frames:
            self._send_frame(frame, now)
        if result.round_ended:
            self._on_device_round_end(runtime, result, now)
        elif state.phase is not PHASE_SLEEPING and (deadline := state.guard_until) is not None:
            self.queue.arm(runtime.guard_timer(), deadline, TIMER_FIRED, runtime.spec.id,
                           deadline)

    def _on_guard(self, runtime: NodeRuntime, deadline: Ticks, now: Ticks) -> None:
        self._device_step(runtime, GuardExpiredStimulus(deadline), now)

    def _on_frame(self, runtime: NodeRuntime, delivered: DeliveredFrame, now: Ticks) -> None:
        """Frames go to end devices and to the coordinator, never to routers."""
        self.frames_delivered += 1
        if runtime.is_end_device:
            self._device_step(runtime, delivered, now)
        else:
            self._session_step(self.runtimes[delivered.frame.src].spec, delivered, now)

    def _on_session_timer(self, runtime: NodeRuntime, timer: SessionTimer, now: Ticks) -> None:
        self._session_step(self.runtimes[timer.device].spec, timer.stimulus, now)

    def _on_command(self, runtime: NodeRuntime, command: SetPeriodCommand, now: Ticks) -> None:
        self._send_frame(MessageFrame(SET_PERIOD, self._coordinator.id,
                                      command.node, self._next_coord_seq(),
                                      set_period_payload(command.seconds)), now)

    # ------------------------------------------------------------------
    # State-machine plumbing
    # ------------------------------------------------------------------

    def _on_device_round_end(self, runtime: NodeRuntime, result: DeviceStepResult,
                             now: Ticks) -> None:
        self.queue.disarm(runtime.guard)  # none can fire now the device sleeps
        if result.round_lost:
            runtime.rounds_lost += 1
            self._trace_action("round", runtime.spec.id, "outcome=lost", now)
        sleep = runtime.sleep
        assert sleep is not None
        if result.applied_period_s is not None:
            sleep = runtime.sleep = CyclicSleepConfig.from_periods(
                result.applied_period_s, sleep.poll_period_s)
            self._trace_action(
                "period", runtime.spec.id,
                f"effective_s={sleep.effective_period_s!r} multiplier={sleep.multiplier}", now)
        # the first wake after now, on the grid of the wake that began the round
        effective = sleep.period_ticks
        next_wake = runtime.next_wake
        next_wake += effective * max(1, (now - next_wake) // effective + 1)
        runtime.next_wake = next_wake
        self.queue.schedule(next_wake, EXTERNAL_WAKE, runtime.spec.id, WAKE_STIMULUS)

    def _session_step(self, device: NodeSpec, stimulus: CoordinatorStimulus, now: Ticks) -> None:
        """Step the device's coordinator session and carry its result out."""
        device_id = device.id
        session = self.sessions[device_id]
        result = coordinator_step(session, stimulus, now, self.config, device,
                                  self._next_coord_seq, self._coordinator.id)
        if result.error_seen is not None:
            self.errors_seen[f"coordinator_saw_{result.error_seen.name.lower()}"] += 1
        if result.records:
            self.records.extend(result.records)
            counts = self._samples_per_node
            for record in result.records:
                counts[record.node] = counts.get(record.node, 0) + 1
        for frame in result.frames:
            self._send_frame(frame, now)
        if result.timer is not None:
            kind, delay = self._session_timers[type(result.timer)]
            timer = self._timers.get(device_id)
            if timer is None:
                timer = self._timers[device_id] = Timer()
            self.queue.arm(timer, now + delay, kind, self._coordinator.id,
                           SessionTimer(device_id, result.timer))
        elif result.round_completed or result.round_aborted:
            self.queue.disarm(self._timers.get(device_id))  # the round it serves is over
        if result.round_completed:
            self._trace_action("round", session.device, "outcome=completed", now)
        if result.round_aborted:
            self._trace_action("round", session.device, "outcome=aborted", now)

    # ------------------------------------------------------------------
    # Radio transport
    # ------------------------------------------------------------------

    def _send_frame(self, frame: MessageFrame, now: Ticks) -> None:
        self.frames_sent += 1
        src, dst = frame.src, frame.dst
        if self.trace_enabled:
            self._trace_action("send", src, frame.summary(), now)
        route = self._route(src, dst)
        if route is None or len(route) < 2:
            self._drop(frame, DROP_NO_ROUTE, now)
            return
        destination = self.runtimes[dst]
        if destination.ledger.dead_at is not None:
            self._drop(frame, DROP_NODE_DEAD, now)
            return

        device_state = destination.device_state
        buffering = device_state is not None and device_state.phase is PHASE_SLEEPING
        length = frame.wire_length
        runtimes = self.runtimes
        elapsed = 0
        # Every node on the route but the last sends, and while the device
        # sleeps its parent holds the frame instead.
        for sender_id in route[:-2] if buffering else route[:-1]:
            sender = runtimes[sender_id]
            air = sender.airtime[length]
            sender.ledger.charge_slice(TRANSMITTING, air, now + elapsed)
            elapsed += air
        if buffering:
            parent_id = route[-2]
            buffer = self.parent_table.buffer_for(dst)
            if len(buffer) >= PARENT_BUFFER_CAPACITY:
                self._drop(buffer.popleft(), DROP_BUFFER_FULL, now)
            buffer.append(frame)
            if self.trace_enabled:
                self._trace_action("buffer", dst, f"{frame.summary()} at_parent={parent_id}", now)
            self._plan_poll(destination)
            return
        rssi = self._rssi(route[-2], dst)
        self.queue.schedule(now + elapsed, FRAME_DELIVERED, dst, DeliveredFrame(frame, rssi))

    def _drop(self, frame: MessageFrame, reason: str, now: Ticks) -> None:
        self.frames_dropped[reason] += 1
        if self.trace_enabled:
            self._trace_action("drop", frame.dst, f"{frame.summary()} reason={reason}", now)
        if logger.isEnabledFor(logging.INFO):
            logger.info("dropped %s (%s)", frame.summary(), reason)

    def _route(self, src: int, dst: int) -> list[int] | None:
        """route_path over the static tree, computed once per (src, dst)."""
        key = (src, dst)
        try:
            return self._routes[key]
        except KeyError:
            route = self._routes[key] = route_path(self.parent_table, src, dst)
            return route

    def _rssi(self, sender_id: int, receiver_id: int) -> float:
        """Received power of the link, from the parent table's link cache
        (the parent search budgets the downlinks; an uplink is budgeted at
        its first delivery), plus shadowing."""
        links = self.parent_table.links
        key = (sender_id, receiver_id)
        power = links.get(key)
        if power is None:
            power = links[key] = link_budget(self.config, sender_id, receiver_id).received_power
        sigma = self.runtimes[receiver_id].spec.radio.shadowing_sigma_db
        if sigma > 0:
            return power + self._shadow_rng.normal(0.0, sigma)
        return power

    def _next_coord_seq(self) -> int:
        seq = self._coord_seq
        self._coord_seq = (self._coord_seq + 1) & 0xFFFF
        return seq

    # ------------------------------------------------------------------
    # Power bookkeeping
    # ------------------------------------------------------------------

    def _note_death(self, runtime: NodeRuntime, now: Ticks) -> None:
        if runtime.death_logged:
            return
        runtime.death_logged = True
        self.queue.disarm(runtime.real_poll)
        dead_at = runtime.ledger.dead_at
        self._trace_action("death", runtime.spec.id, f"dead_at={dead_at}", now)
        logger.info("node %d battery exhausted at %s ticks", runtime.spec.id, dead_at)
        buffer = self.parent_table.buffers.get(runtime.spec.id)
        while buffer:
            self._drop(buffer.popleft(), DROP_NODE_DEAD, now)

    def _settle_ledgers(self, limit: Ticks) -> None:
        for runtime in self.runtimes.values():
            if runtime.is_end_device:
                runtime.ledger.poll(limit)  # every poll up to the horizon has run
            runtime.ledger.advance(limit)
            if runtime.ledger.dead_at is not None:
                self._note_death(runtime, limit)

    # ------------------------------------------------------------------
    # Poll grid
    # ------------------------------------------------------------------

    def _poll_passed(self, runtime: NodeRuntime) -> bool:
        """Whether the device's poll at the current clock tick, if it has one
        there, has already run: its ledger booked it, or a real poll of the
        tick ranked at or after it has run."""
        now = self.queue.now
        return runtime.ledger.next_poll > now or self._polls_ran >= (now, runtime.poll_rank)

    def _book_passed_polls(self) -> None:
        """Book every poll that has run by the current clock. This changes no
        result: a ledger books its polls the same whenever it is asked to."""
        now = self.queue.now
        for runtime in self._devices:
            before = now + 1 if self._poll_passed(runtime) else now
            timer = runtime.real_poll
            if timer is not None and timer.event is not None:
                before = min(before, timer.event.at)
            runtime.ledger.book_polls(before)

    def _plan_poll(self, runtime: NodeRuntime) -> None:
        """Keep the device's real poll at one poll, or at none. Until its
        death is noted, it is the next poll while a frame waits for the
        sleeping device, else the first poll that may find the battery empty
        if that comes by the device's next own event (which plans again):
        each real poll then plans the next, so the poll that finds the
        battery empty is one of them."""
        if not runtime.death_logged:
            state = runtime.device_state
            assert state is not None
            sleeping = state.phase is PHASE_SLEEPING
            checkpoint = runtime.next_wake if sleeping else state.guard_until
            assert checkpoint is not None
            earliest = (0 if sleeping and self.parent_table.buffers.get(runtime.spec.id)
                        else runtime.ledger.first_risky_poll())
            if earliest is not None and earliest <= checkpoint:
                self.queue.arm(runtime.poll_timer(), max(self._next_poll_tick(runtime), earliest),
                               POLL_WAKE, runtime.spec.id)
                return
        self.queue.disarm(runtime.real_poll)

    def _next_poll_tick(self, runtime: NodeRuntime) -> Ticks:
        """Tick of the device's first poll that has not run yet."""
        now, period = self.queue.now, runtime.ledger.poll_ticks
        tick = max(period, -(-now // period) * period)
        return tick + period if tick == now and self._poll_passed(runtime) else tick

    # ------------------------------------------------------------------
    # Trace
    # ------------------------------------------------------------------

    def _trace_event(self, event: SimEvent) -> None:
        """Trace line of a dispatched event; the caller checks trace_enabled."""
        node = event.node if event.node is not None else "-"
        self._trace(f"{event.at}\t{event.seq}\t{_EVENT_NAME[event.kind]}\t{node}\t"
                    f"{_EVENT_DETAIL[event.kind](event.payload)}\n")

    def _trace_action(self, kind: str, node: int, detail: str, now: Ticks) -> None:
        if self.trace_enabled:
            self._trace(f"{now}\t-\t{kind}\t{node}\t{detail}\n")

    def _trace(self, line: str) -> None:
        """Keep a line; every TRACE_BLOCK_LINES lines become one joined block,
        which holds them in far less memory than one string each."""
        pending = self._trace_pending
        pending.append(line)
        if len(pending) == TRACE_BLOCK_LINES:
            self._trace_blocks.append("".join(pending))
            pending.clear()

    def trace_text(self) -> str:
        """The trace so far, one line per event or action, each ending in a
        newline. The joined text is kept as the only block, so asking again
        joins nothing."""
        blocks = self._trace_blocks
        if self._trace_pending:
            blocks.append("".join(self._trace_pending))
            self._trace_pending.clear()
        if len(blocks) > 1:
            blocks[:] = ["".join(blocks)]
        return blocks[0] if blocks else ""

    @property
    def trace_lines(self) -> list[str]:
        """The trace so far, split into lines without their newlines."""
        return self.trace_text().splitlines()
