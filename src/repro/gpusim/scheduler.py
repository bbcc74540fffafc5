"""Event-driven device scheduler with concurrent kernel execution.

This is the component that reproduces the paper's headline mechanism.  Thread
blocks are placed onto SM residency slots; launches in one CUDA stream
execute back-to-back while launches in different streams may co-schedule.

Two effects make serial execution slow for the face-detection pyramid, both
modelled here rather than hard-coded:

* **device under-coverage** — a small-scale kernel has fewer blocks than the
  GPU has SMs, so most SMs idle until the kernel drains;
* **residency derating** — a block running with few co-resident warps cannot
  hide pipeline/DRAM latency, so its effective duration grows by up to
  ``1 / DeviceSpec.min_efficiency``; co-resident blocks processor-share the
  SM's issue bandwidth, so throughput never exceeds the cost model's peak.

In concurrent mode blocks from other streams fill both gaps, which is
precisely Section III-A's argument and the behaviour visible in Fig. 6.

Implementation notes (DESIGN.md section 6):

* **Per-launch set-up is paid once per launch template.**
  :meth:`DeviceScheduler.prepare` validates a launch, prices its cost
  cohorts, sizes its residency and totals its counters into a
  :class:`LaunchPlan`, and freezes the launch; :meth:`DeviceScheduler.run`
  reuses that plan on every frame and derives one only for a launch handed
  to it unprepared.
* **The event loop costs per placement, not per block.**  An event is a
  cohort *group* finishing on one SM; dispatch is targeted at the SM the
  group frees and stops at an exact room check (block slots, warps, shared
  memory against the smallest demand of any runnable launch) instead of
  probing every runnable launch once more.  *Sentinel* events mark the
  instants launches become runnable (issue time or stream-predecessor
  completion + sync).
* **One heap entry per distinct instant.**  SMs in the same state given the
  same group at the same moment finish together, so the event queue is a
  heap of instants over per-instant event lists in push order: the order
  of ``(time, sequence number)`` keys.  A lone launch on an idle device —
  the class of all SMs — advances whole uniform waves analytically, so
  grids with tens of thousands of blocks cost a handful of events.

Every shortcut keeps the one-group-at-a-time rules exactly (the ``spread``
cap, the round-robin cursor, ``warp_seconds`` summed per placement in
placement order), so schedules are byte-identical to them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from enum import Enum

from repro.errors import LaunchError
from repro.gpusim.costmodel import CostModel
from repro.gpusim.counters import PerfCounters
from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.occupancy import OccupancyCalculator
from repro.gpusim.trace import KernelTrace, Timeline

__all__ = ["ExecutionMode", "LaunchPlan", "ScheduleResult", "DeviceScheduler"]

#: sentinel SM index marking a "launch became runnable" timer event
_TIMER = -1


class ExecutionMode(Enum):
    """Kernel issue policy (the paper's serial vs. concurrent comparison)."""

    SERIAL = "serial"
    CONCURRENT = "concurrent"


@dataclass
class ScheduleResult:
    """Outcome of scheduling a batch of launches."""

    timeline: Timeline
    makespan_s: float
    mode: ExecutionMode
    total: PerfCounters
    warp_seconds: float
    device_warp_capacity: float

    @property
    def utilization(self) -> float:
        """Resident-warp utilisation of the device over the makespan."""
        if self.makespan_s <= 0:
            return 0.0
        return self.warp_seconds / (self.device_warp_capacity * self.makespan_s)


@dataclass(frozen=True, slots=True)
class LaunchPlan:
    """What the event loop needs of one launch on one device.

    Derived once per launch template by :meth:`DeviceScheduler.prepare`
    (or per run for a launch handed to :meth:`DeviceScheduler.run`
    unprepared).  ``priced_by`` is the cost-model class that priced the
    cohorts: a plan is reused only by a scheduler of the same device and
    cost model.
    """

    device: DeviceSpec
    priced_by: type
    blocks: int
    warps_per_block: int
    smem_per_block: int
    #: resident blocks per SM the launch's occupancy and the block slots allow
    slot_cap: int
    #: ``(block count, base seconds)`` per cost cohort, in dispatch order
    cohorts: tuple[tuple[int, float], ...]
    counters: PerfCounters


class DeviceScheduler:
    """Schedules kernel launches onto a simulated device."""

    def __init__(self, device: DeviceSpec, cost_model: CostModel | None = None) -> None:
        self._device = device
        self._cost_model = cost_model or CostModel(device)
        self._occupancy = OccupancyCalculator(device)
        # residency efficiency by resident warp count, for an SM shared by
        # several kernels and for a single-kernel SM (phase-correlation cap)
        self._eff = [self._efficiency(w) for w in range(device.max_warps_per_sm + 1)]
        self._eff_single = [e * device.single_kernel_efficiency for e in self._eff]

    @property
    def device(self) -> DeviceSpec:
        return self._device

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    def _efficiency(self, resident_warps: int) -> float:
        d = self._device
        frac = min(1.0, resident_warps / d.saturation_warps)
        return d.min_efficiency + (1.0 - d.min_efficiency) * frac

    def prepare(self, launch: KernelLaunch) -> KernelLaunch:
        """``launch`` validated, priced and frozen once, for replay.

        Returns a launch equal to ``launch`` that carries its
        :class:`LaunchPlan` (``launch`` itself when it already carries one
        for this scheduler); its work arrays become read-only.  Raises
        :class:`LaunchError` exactly where :meth:`run` would.
        """
        if self._fits(launch.plan):
            return launch
        plan = self._plan(launch)
        launch.work.freeze()
        return replace(launch, plan=plan)

    def _fits(self, plan: LaunchPlan | None) -> bool:
        return (
            plan is not None
            and plan.priced_by is type(self._cost_model)
            and (plan.device is self._device or plan.device == self._device)
        )

    def _plan(self, launch: KernelLaunch) -> LaunchPlan:
        device = self._device
        launch.validate(device)
        cohorts = tuple(
            (int(c.count), float(c.base_seconds))
            for c in launch.cohorts or self._cost_model.build_cohorts(launch)
            if c.count > 0
        )
        blocks = launch.config.grid_blocks
        covered = sum(count for count, _ in cohorts)
        if covered < blocks:
            # such a launch could never complete
            raise LaunchError(
                f"cost cohorts of {launch.name!r} cover {covered} of its {blocks} blocks"
            )
        res = self._occupancy.residency(launch.config)
        warps_per_block = launch.config.warps_per_block
        return LaunchPlan(
            device=device,
            priced_by=type(self._cost_model),
            blocks=blocks,
            warps_per_block=warps_per_block,
            smem_per_block=launch.config.shared_mem_per_block,
            slot_cap=min(res.blocks_per_sm, device.max_blocks_per_sm),
            cohorts=cohorts,
            counters=launch.work.totals(warps_per_block),
        )

    def run(
        self,
        launches: list[KernelLaunch],
        mode: ExecutionMode = ExecutionMode.CONCURRENT,
        start_time: float = 0.0,
    ) -> ScheduleResult:
        """Execute ``launches`` (in issue order) and return the schedule.

        In :attr:`ExecutionMode.SERIAL` all launches are forced into stream 0
        regardless of their requested stream, exactly like the paper's
        baseline configuration.
        """
        device = self._device
        capacity = device.sm_count * device.max_warps_per_sm
        if not launches:
            return ScheduleResult(
                timeline=Timeline(),
                makespan_s=0.0,
                mode=mode,
                total=PerfCounters(),
                warp_seconds=0.0,
                device_warp_capacity=capacity,
            )
        plans = [
            launch.plan if self._fits(launch.plan) else self._plan(launch)
            for launch in launches
        ]
        sim = _Simulation(self, launches, plans, mode, start_time)
        sim.run()

        unfinished = [
            launch.name
            for launch, plan, done in zip(launches, plans, sim.done)
            if done != plan.blocks
        ]
        if unfinished:
            raise LaunchError(f"scheduler deadlock: launches never completed: {unfinished}")

        serial = mode is ExecutionMode.SERIAL
        overhead = device.launch_overhead_s
        timeline = Timeline()
        total = PerfCounters()
        for i, (launch, plan) in enumerate(zip(launches, plans)):
            counters = plan.counters.copy()
            total.add(counters)
            timeline.add(
                KernelTrace(
                    name=launch.name,
                    stream=0 if serial else launch.stream,
                    issue_s=start_time + (i + 1) * overhead,
                    start_s=sim.first_dispatch[i],
                    end_s=sim.finished_at[i],
                    blocks=plan.blocks,
                    counters=counters,
                    tag=launch.tag,
                )
            )
        makespan = max(sim.finished_at) - start_time
        return ScheduleResult(
            timeline=timeline,
            makespan_s=makespan,
            mode=mode,
            total=total,
            warp_seconds=sim.warp_seconds,
            device_warp_capacity=capacity,
        )


class _Simulation:
    """One :meth:`DeviceScheduler.run`: per-launch and per-SM state as lists.

    Launch ``i`` is the ``i``-th launch in issue order; SM ``k`` the
    ``k``-th SM.  Events are ``(sm, launch, blocks, warps, shared bytes)``
    group finishes and ``(_TIMER, launch, 0, 0, 0)`` sentinels.  The event
    queue is a heap of distinct instants (``times``) over per-instant lists
    (``due``) in push order: the order of a heap of ``(time, push sequence
    number)`` keys, for one float heap entry per instant instead of one
    tuple per event.
    """

    __slots__ = (
        "device", "start_time", "overhead", "sync", "successor", "heads",
        "demand", "blocks", "counts", "bases", "ptr",
        "dispatched", "done", "runnable_at", "first_dispatch", "finished_at",
        "waiting_on", "dependents", "times", "due", "runnable", "eff", "eff_single",
        "warp_seconds",
    )  # fmt: skip

    def __init__(
        self,
        scheduler: DeviceScheduler,
        launches: list[KernelLaunch],
        plans: list[LaunchPlan],
        mode: ExecutionMode,
        start_time: float,
    ) -> None:
        device = scheduler.device
        n = len(launches)
        self.device = device
        self.start_time = start_time
        self.overhead = device.launch_overhead_s
        self.sync = device.kernel_sync_overhead_s
        self.eff = scheduler._eff
        self.eff_single = scheduler._eff_single

        # (resident-block cap, warps per block, shared bytes per block)
        self.demand = [
            (plan.slot_cap, plan.warps_per_block, plan.smem_per_block) for plan in plans
        ]
        self.blocks = [plan.blocks for plan in plans]
        # remaining blocks per cohort; ``ptr`` is the first non-empty one
        self.counts = [[count for count, _ in plan.cohorts] for plan in plans]
        self.bases = [[base for _, base in plan.cohorts] for plan in plans]
        self.ptr = [0] * n
        self.dispatched = [0] * n
        self.done = [0] * n
        self.runnable_at = [math.inf] * n
        self.first_dispatch = [math.inf] * n
        self.finished_at = [math.inf] * n
        self.waiting_on: list[set[int]] = [set() for _ in range(n)]
        self.warp_seconds = 0.0  # set by run()

        serial = mode is ExecutionMode.SERIAL
        streams: dict[int, list[int]] = {}
        for i, launch in enumerate(launches):
            streams.setdefault(0 if serial else launch.stream, []).append(i)
        #: the launch issued next into each launch's stream (-1: none)
        self.successor = [-1] * n
        for queue in streams.values():
            for i, nxt in zip(queue, queue[1:]):
                self.successor[i] = nxt
        #: the launch at the head of each unfinished stream
        self.heads = [queue[0] for queue in streams.values()]

        # cross-stream waits (cudaStreamWaitEvent at issue): block on every
        # launch issued earlier into the watched streams.  In serial mode
        # stream order already implies them.
        self.dependents: dict[int, list[int]] = {}
        if not serial:
            for i, launch in enumerate(launches):
                for watched in launch.wait_streams:
                    for other in streams.get(watched, ()):
                        if other < i:
                            self.waiting_on[i].add(other)
                            self.dependents.setdefault(other, []).append(i)

        self.times: list[float] = []
        self.due: dict[float, list[tuple[int, int, int, int, int]]] = {}
        self.runnable: list[int] = []
        for queue in streams.values():
            self.runnable_at[queue[0]] = self._issue_time(queue[0])
            self._push_sentinel(queue[0])

    def _issue_time(self, i: int) -> float:
        return self.start_time + (i + 1) * self.overhead

    def _push_sentinel(self, i: int) -> None:
        at = self.runnable_at[i]
        queue = self.due.get(at)
        if queue is None:
            self.due[at] = [(_TIMER, i, 0, 0, 0)]
            heapq.heappush(self.times, at)
        else:
            queue.append((_TIMER, i, 0, 0, 0))

    def _refresh(self, now: float) -> tuple[int, int, int]:
        """Rebuild the runnable list; return the room check's thresholds.

        The room check: an SM holding ``max_slot`` or more blocks, or more
        than ``warp_room`` resident warps or ``smem_room`` bytes of shared
        memory, has less room than every runnable launch's block needs, so
        it cannot take a group of any of them.
        """
        runnable = self.runnable
        runnable.clear()
        runnable_at = self.runnable_at
        blocks = self.blocks
        dispatched = self.dispatched
        waiting_on = self.waiting_on
        for head in self.heads:
            if (
                runnable_at[head] <= now
                and blocks[head] > dispatched[head]
                and not waiting_on[head]
            ):
                runnable.append(head)
        if not runnable:
            return 0, -1, -1
        runnable.sort()
        demand = self.demand
        device = self.device
        return (
            max(demand[i][0] for i in runnable),
            device.max_warps_per_sm - min(demand[i][1] for i in runnable),
            device.shared_mem_per_sm - min(demand[i][2] for i in runnable),
        )

    def _bulk_waves(self, i: int, now: float, horizon: float) -> tuple[float, float]:
        """Advance full uniform waves of lone launch ``i``.

        Returns the new time and the waves' warp-seconds.  Only valid on an
        idle device.  ``horizon``, the next pending event,
        caps the fast-forward, so the scheduler never skips past the instant
        another launch becomes runnable (which would destroy concurrency
        opportunities).
        """
        counts = self.counts[i]
        ptr = self.ptr[i]
        device = self.device
        slot_cap, wpb, spb = self.demand[i]
        group = min(slot_cap, device.max_warps_per_sm // wpb)
        if spb > 0:
            group = min(group, device.shared_mem_per_sm // spb)
        if group <= 0:
            return now, 0.0
        wave_blocks = group * device.sm_count
        waves = counts[ptr] // wave_blocks
        # bulk waves are single-kernel by construction: phase-correlation cap
        duration = self.bases[i][ptr] * group / self.eff_single[group * wpb]
        if math.isfinite(horizon):
            waves = min(waves, int(max(0.0, horizon - now) // duration))
        if waves <= 0:
            return now, 0.0
        blocks = waves * wave_blocks
        counts[ptr] -= blocks
        if counts[ptr] == 0:
            self.ptr[i] = ptr + 1
        self.dispatched[i] += blocks
        self.done[i] += blocks
        if self.first_dispatch[i] > now:
            self.first_dispatch[i] = now
        return now + waves * duration, blocks * wpb * duration

    def _finish(self, i: int, now: float) -> None:
        """Launch ``i`` completed: release its waiters and its stream successor."""
        self.finished_at[i] = now
        for waiter in self.dependents.get(i, ()):
            waiting = self.waiting_on[waiter]
            waiting.discard(i)
            if not waiting:
                at = self.runnable_at[waiter]
                self.runnable_at[waiter] = max(
                    at if math.isfinite(at) else -math.inf, now + self.sync
                )
                self._push_sentinel(waiter)
        nxt = self.successor[i]
        if nxt < 0:
            self.heads.remove(i)
            return
        self.heads[self.heads.index(i)] = nxt
        self.runnable_at[nxt] = max(self._issue_time(nxt), now + self.sync)
        self._push_sentinel(nxt)

    def run(self) -> None:
        """Process events until the queue drains.

        A group finishing on an SM refills that SM; a sentinel, a launch
        completing or a drained device runs the full dispatch: bulk waves
        for a lone launch on an idle device, then passes over the SMs in
        order of resident warps, one group per SM a pass.
        """
        device = self.device
        max_warps = device.max_warps_per_sm
        smem_sm = device.shared_mem_per_sm
        n_sms = device.sm_count
        sm_blocks = [0] * n_sms
        sm_warps = [0] * n_sms
        sm_smem = [0] * n_sms
        # resident blocks per launch, and resident launches, of every SM
        sm_resident = [[0] * len(self.blocks) for _ in range(n_sms)]
        sm_kinds = [0] * n_sms
        by_warps = sm_warps.__getitem__

        times = self.times
        due = self.due
        heappush = heapq.heappush
        heappop = heapq.heappop
        runnable = self.runnable
        demand = self.demand
        counts = self.counts
        bases = self.bases
        ptrs = self.ptr
        blocks = self.blocks
        dispatched = self.dispatched
        done = self.done
        first = self.first_dispatch
        eff_multi = self.eff
        eff_single = self.eff_single

        rr = 0
        in_flight = 0
        warp_seconds = 0.0
        max_slot, warp_room, smem_room = 0, -1, -1
        n = 0  # len(runnable)
        while times:
            instant = heappop(times)
            events = due.pop(instant)
            now = instant
            for event in events:
                sm, i, count, warps, smem = event
                full = sm == _TIMER
                if not full:
                    # free the group; a refill of this SM starts from these
                    held = sm_blocks[sm] - count
                    used_warps = sm_warps[sm] - warps
                    used_smem = sm_smem[sm] - smem
                    resident = sm_resident[sm]
                    left = resident[i] - count
                    resident[i] = left
                    kinds = sm_kinds[sm]
                    if not left:
                        kinds -= 1
                    in_flight -= 1
                    finished = done[i] + count
                    done[i] = finished
                    if finished == blocks[i] or not runnable:
                        sm_blocks[sm] = held
                        sm_warps[sm] = used_warps
                        sm_smem[sm] = used_smem
                        sm_kinds[sm] = kinds
                        if finished == blocks[i]:
                            self._finish(i, now)
                        elif in_flight:
                            continue
                        # a launch completed, or the device drained
                        # mid-launch (e.g. cohort exhausted by the residency
                        # cap): full dispatch
                        full = True
                while True:
                    if full:
                        max_slot, warp_room, smem_room = self._refresh(now)
                        n = len(runnable)
                        # Bulk fast path: a lone launch on an idle device (one
                        # class of identical SMs) advances whole waves at once.
                        if n == 1 and in_flight == 0:
                            lone = runnable[0]
                            if event is not events[-1]:
                                horizon = instant  # more events at this instant
                            else:
                                horizon = times[0] if times else math.inf
                            now, bulk_warp_seconds = self._bulk_waves(lone, now, horizon)
                            warp_seconds += bulk_warp_seconds
                            if done[lone] == blocks[lone]:
                                self._finish(lone, now)
                                max_slot, warp_room, smem_room = self._refresh(now)
                                n = len(runnable)
                        # passes over the SMs with room, fewest resident warps
                        # first (ties in SM order)
                        targets = sorted(
                            [
                                k
                                for k in range(n_sms)
                                if sm_blocks[k] < max_slot
                                and sm_warps[k] <= warp_room
                                and sm_smem[k] <= smem_room
                            ],
                            key=by_warps,
                        )
                    else:
                        targets = (sm,)
                    while True:
                        placed_on = []
                        for target in targets:
                            if full:
                                held = sm_blocks[target]
                                used_warps = sm_warps[target]
                                used_smem = sm_smem[target]
                                resident = sm_resident[target]
                                kinds = sm_kinds[target]
                            # the room check, then one group of the first
                            # runnable launch, round robin from the cursor,
                            # that fits
                            while (
                                held < max_slot
                                and used_warps <= warp_room
                                and used_smem <= smem_room
                            ):
                                free_warps = max_warps - used_warps
                                free_smem = smem_sm - used_smem
                                pick = rr % n
                                for _ in runnable:
                                    if pick == n:
                                        pick = 0
                                    j = runnable[pick]
                                    pick += 1
                                    cap, block_warps, block_smem = demand[j]
                                    cap -= held
                                    wcap = free_warps // block_warps
                                    if wcap < cap:
                                        cap = wcap
                                    if block_smem:
                                        scap = free_smem // block_smem
                                        if scap < cap:
                                            cap = scap
                                    if cap > 0:
                                        break
                                else:
                                    break  # no runnable launch fits this SM
                                # a runnable launch has blocks left and its
                                # cohorts cover its grid: ``ptr`` is non-empty
                                ptr = ptrs[j]
                                cohorts = counts[j]
                                remaining = cohorts[ptr]
                                group = cap if cap < remaining else remaining
                                # Load balance: spread a small cohort across
                                # SMs instead of stacking it onto one
                                # (processor sharing would serialise a stack
                                # of heavy blocks and stretch the kernel's
                                # drain tail).
                                spread = -(-remaining // n_sms)
                                if spread < group:
                                    group = spread
                                cohorts[ptr] = remaining - group
                                if group == remaining:
                                    ptrs[j] = ptr + 1
                                held += group
                                warps = group * block_warps
                                used_warps += warps
                                smem = group * block_smem
                                used_smem += smem
                                had = resident[j]
                                if not had:
                                    kinds += 1
                                resident[j] = had + group
                                # Processor sharing within the SM: resident
                                # blocks split its issue bandwidth, scaled by
                                # the residency-dependent efficiency (a lone
                                # 2-warp block runs at ~min_efficiency) and,
                                # on a single-kernel SM, by phase correlation.
                                if kinds > 1:
                                    eff = eff_multi[used_warps]
                                else:
                                    eff = eff_single[used_warps]
                                duration = bases[j][ptr] * held / eff
                                warp_seconds += warps * duration
                                at = now + duration
                                queue = due.get(at)
                                if queue is None:
                                    due[at] = [(target, j, group, warps, smem)]
                                    heappush(times, at)
                                else:
                                    queue.append((target, j, group, warps, smem))
                                in_flight += 1
                                rr = pick
                                if first[j] > now:
                                    first[j] = now
                                sent = dispatched[j] + group
                                dispatched[j] = sent
                                if sent == blocks[j]:
                                    max_slot, warp_room, smem_room = self._refresh(now)
                                    n = len(runnable)
                                if full:
                                    placed_on.append(target)
                                    break  # one group per SM a pass
                            sm_blocks[target] = held
                            sm_warps[target] = used_warps
                            sm_smem[target] = used_smem
                            sm_kinds[target] = kinds
                        if not (full and placed_on and runnable):
                            break
                        # Another pass, over the SMs that took a group in this
                        # one: an SM that could not take a group cannot later
                        # in this dispatch (SMs only fill up and the runnable
                        # list only shrinks); same order as sorting them all.
                        placed_on.sort()
                        targets = sorted(placed_on, key=by_warps)
                    if full or in_flight:
                        break
                    # the device drained mid-launch (e.g. cohort exhausted by
                    # the residency cap): restart via the full path
                    full = True
        self.warp_seconds = warp_seconds
