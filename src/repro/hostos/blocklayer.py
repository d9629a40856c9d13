"""The block layer: request creation, merging, scheduling, dispatch.

Sits between the syscall layer and a storage adapter (SATA HBA, UFS UTP
engine, NVMe/OCSSD driver).  Charges kernel CPU per the active kernel
profile, merges adjacent sequential requests when the profile allows,
runs the configured elevator, and respects both the scheduler's and the
hardware's outstanding-request limits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.instructions import InstructionMix
from repro.common.iorequest import IOKind, IORequest
from repro.host.cpu import HostCpu
from repro.hostos.iosched import make_scheduler
from repro.hostos.kernel import KernelProfile


class BlockLayer:
    def __init__(self, sim, cpu: HostCpu, profile: KernelProfile,
                 adapter) -> None:
        self.sim = sim
        self.cpu = cpu
        self.profile = profile
        self.adapter = adapter
        self.scheduler = make_scheduler(profile.scheduler)
        self.inflight = 0
        self.inflight_limit = min(profile.inflight_limit,
                                  adapter.max_outstanding)
        self._wake = None
        self._completion_events: Dict[int, object] = {}   # req_id -> user event
        self._merge_children: Dict[int, List[Tuple[IORequest, object, int]]] = {}
        self._mergeable: Dict[Tuple[str, int, int], IORequest] = {}
        self._mix = {
            "block": InstructionMix.typical(profile.block_submit_instr),
            "sched": InstructionMix.typical(profile.sched_instr),
            "driver": InstructionMix.typical(profile.driver_submit_instr),
            "isr": InstructionMix.typical(profile.isr_instr),
            "complete": InstructionMix.typical(profile.complete_instr),
        }
        self.requests_submitted = 0
        self.requests_merged = 0
        self.requests_dispatched = 0
        sim.process(self._dispatch_loop())

    # -- submission ------------------------------------------------------------

    def submit(self, req: IORequest, stream_id: int = 0,
               core: Optional[int] = None, done=None):
        """Process generator: enqueue a request; returns the completion event.

        The returned event fires with the read payload (or None) once the
        ISR and completion path have run.  ``done``, a pending event the
        caller made beforehand, is used as that event when given.
        """
        # The block-layer span covers queueing through ISR/completion, so
        # it cannot be a with-block here: it closes from the completion
        # event's callback.  The registration is guarded on the tracer so
        # disabled runs add no callbacks (and stay event-identical).
        tracer = self.sim.tracer
        span = tracer.begin("os.blocklayer", req.req_id, slba=req.slba) \
            if tracer.enabled else None
        yield from self.cpu.execute(self._mix["block"], core=core, kernel=True)
        self.requests_submitted += 1
        user_event = self.sim.event() if done is None else done

        if self.profile.merge and self._try_merge(req, user_event):
            self.requests_merged += 1
            if span is not None:
                user_event.add_callback(lambda _ev: tracer.end(span))
            return user_event

        self._completion_events[req.req_id] = user_event
        self.scheduler.add(req, stream_id)
        if req.kind in (IOKind.READ, IOKind.WRITE):
            self._mergeable[(req.kind.value, req.nsid,
                             req.slba + req.nsectors)] = req
        self._kick()
        if span is not None:
            user_event.add_callback(lambda _ev: tracer.end(span))
        return user_event

    def _try_merge(self, req: IORequest, user_event) -> bool:
        key = (req.kind.value, req.nsid, req.slba)
        parent = self._mergeable.get(key)
        if parent is None:
            return False
        if parent.nsectors + req.nsectors > self.profile.max_merge_sectors:
            return False
        # extend the parent in place (back-merge)
        del self._mergeable[(parent.kind.value, parent.nsid,
                             parent.slba + parent.nsectors)]
        offset = parent.nsectors
        parent.nsectors += req.nsectors
        if parent.data is not None and req.data is not None:
            parent.data = parent.data + req.data
        self._merge_children.setdefault(parent.req_id, []).append(
            (req, user_event, offset))
        self._mergeable[(parent.kind.value, parent.nsid,
                         parent.slba + parent.nsectors)] = parent
        return True

    def _kick(self) -> None:
        if self._wake is not None:
            event, self._wake = self._wake, None
            event.succeed()

    # -- dispatch ------------------------------------------------------------

    def _dispatch_loop(self):
        served_in_turn = 0
        while True:
            if len(self.scheduler) == 0 or self.inflight >= self.inflight_limit:
                self._wake = self.sim.event()
                yield self._wake
                continue
            yield from self.cpu.execute(self._mix["sched"], kernel=True)
            req = self.scheduler.next(self.sim.now)
            if req is None:
                # the elevator is idling (CFQ anticipation): sleep it out
                idle_until = getattr(self.scheduler, "idle_until", 0)
                wait = max(10_000, idle_until - self.sim.now)
                yield self.sim.timeout(wait)
                continue
            self._mergeable.pop((req.kind.value, req.nsid,
                                 req.slba + req.nsectors), None)
            yield from self.cpu.execute(self._mix["driver"], kernel=True)
            req.t_driver = self.sim.now
            device_event = self.adapter.submit(req)
            self.inflight += 1
            self.requests_dispatched += 1
            self.sim.process(self._completion(req, device_event))

            served_in_turn += 1
            if (self.profile.dispatch_quantum
                    and served_in_turn >= self.profile.dispatch_quantum
                    and self.profile.dispatch_gap_ns):
                served_in_turn = 0
                yield self.sim.timeout(self.profile.dispatch_gap_ns)

    def _completion(self, req: IORequest, device_event):
        payload = yield device_event
        self.inflight -= 1
        self._kick()
        irq_core = req.queue_id % self.cpu.n_cores
        yield from self.cpu.execute(self._mix["isr"], core=irq_core, kernel=True)
        yield from self.cpu.execute(self._mix["complete"], core=irq_core,
                                    kernel=True)
        children = self._merge_children.pop(req.req_id, [])
        user_event = self._completion_events.pop(req.req_id, None)
        if user_event is not None:
            own_payload = payload
            if children and payload is not None and req.kind.is_read:
                # the parent's own data is the prefix before the first merge
                own_payload = payload[:children[0][2] * 512]
            user_event.succeed(own_payload)
        for child, child_event, offset in children:
            if payload is not None and child.kind.is_read:
                start = offset * 512
                child_event.succeed(payload[start:start + child.nbytes])
            else:
                child_event.succeed(None)
