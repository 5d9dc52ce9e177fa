"""Shared-resource primitives for the simulation kernel.

* :class:`Resource` — a fixed number of slots with a FIFO wait queue
  (gateway and ingress service slots).
* :class:`Store` — a FIFO of Python objects (message queues, mailboxes).

All requests are events; processes ``yield`` them.  Releases never block.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.common.errors import SimulationError
from repro.sim.engine import Environment, Event


class Request(Event):
    """A pending claim on a :class:`Resource` slot (context-manager aware)."""

    __slots__ = ("resource",)

    def __init__(self, env: Environment, resource: "Resource") -> None:
        Event.__init__(self, env)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` identical slots with FIFO granting."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = int(capacity)
        self._users: set[Request] = set()
        self._waiting: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self) -> Request:
        req = Request(self.env, self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        if request in self._users:
            self._users.remove(request)
            self._grant_next()
        else:
            # Cancelling a queued request is legal (e.g. interrupted process).
            try:
                self._waiting.remove(request)
            except ValueError:
                pass

    def _grant_next(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            nxt.succeed()


class Store:
    """An unbounded-or-bounded FIFO of arbitrary items."""

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        ev = Event(self.env)
        self._putters.append((ev, item))
        self._drain()
        return ev

    def put_nowait(self, item: Any) -> None:
        """Deposit without a put event (fails instead of blocking).

        Producers that never wait on the put (e.g. mailbox delivery) used
        to schedule one dead event per item just to throw it away; this
        path hands the item straight to the queue or the next getter.
        """
        if len(self.items) >= self.capacity:
            raise SimulationError(f"put_nowait on a full store (capacity {self.capacity})")
        getters = self._getters
        if getters and not self.items and not self._putters:
            getters.popleft().succeed(item)
            return
        self.items.append(item)
        if getters:
            self._drain()

    def get(self) -> Event:
        items = self.items
        if items and not self._getters:
            # Immediate hit: deliver without routing through the waiter
            # queue (the event is still consumed via the event loop).
            ev = Event(self.env)
            ev.succeed(items.popleft())
            self._admit_putters()
            return ev
        ev = Event(self.env)
        self._getters.append(ev)
        self._drain()
        return ev

    def drop_getters(self) -> int:
        """Forget every parked getter (chaos hook; returns the count).

        A single-consumer store whose consumer died mid-wait keeps the dead
        consumer's get event in the queue; a later deposit would hand the
        item to that dead event and lose it.  A stateless restart purges
        the old incarnation's getters before the replacement attaches.
        """
        n = len(self._getters)
        self._getters.clear()
        return n

    def try_get(self) -> Optional[Any]:
        """Non-blocking pop; None when empty (used by eager aggregation)."""
        self._drain()
        if self.items:
            item = self.items.popleft()
            self._admit_putters()
            return item
        return None

    def _admit_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            pev, item = self._putters.popleft()
            self.items.append(item)
            pev.succeed()

    def _drain(self) -> None:
        self._admit_putters()
        while self._getters and self.items:
            gev = self._getters.popleft()
            gev.succeed(self.items.popleft())
            self._admit_putters()
