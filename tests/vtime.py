"""Virtual time for asyncio tests: one event loop whose clock jumps.

The store and the live runtime read time only from the running loop
(``loop.time()``, ``asyncio.sleep``, ``asyncio.timeout``), so running
them on a :class:`VirtualTimeLoop` runs their timing in virtual time:
the clock starts at 0 and, when no callback is ready, jumps straight to
the next timer.  While a socket is open the loop first polls it for
:data:`REAL_POLL` real seconds, and the clock moves only if no I/O
arrived, so bytes in flight over loopback are always delivered before
time passes.  A schedule then replays exactly, as fast as the machine
runs the work between its timers::

    loop = VirtualTimeLoop()
    loop.run(main())
    loop.time()   # virtual seconds main() took
"""

import asyncio
import selectors

__all__ = ["VirtualTimeLoop"]

#: Real seconds the selector waits for I/O before the clock may jump.
REAL_POLL = 0.002


class _JumpingSelector(selectors.DefaultSelector):
    """The loop's selector: a wait for the next timer is a clock jump."""

    loop: "VirtualTimeLoop"

    def select(self, timeout=None):
        if not timeout:  # 0: callbacks are ready; None: only I/O can wake us
            return super().select(timeout)
        # The loop's own wake-up pipe is always registered; any other
        # descriptor is a socket whose bytes may be in flight.
        events = super().select(REAL_POLL if len(self.get_map()) > 1 else 0)
        if not events:
            self.loop.advance(timeout)
        return events


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    """A selector event loop on a virtual clock.

    ``stretch`` scales every delay a task asks for (``asyncio.sleep``,
    ``call_later``): above 1 it oversleeps like a loaded host, at 0 a
    sleep returns without time passing.  Absolute deadlines
    (``call_at``, ``asyncio.timeout``) are not stretched.  ``slept``
    lists every delay asked for, unstretched.
    """

    def __init__(self, *, stretch: float = 1.0) -> None:
        self._now = 0.0
        self.stretch = stretch
        self.slept: list[float] = []
        selector = _JumpingSelector()
        selector.loop = self
        super().__init__(selector)

    def time(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Let ``seconds`` of virtual time pass now (idle time in a test)."""
        self._now += seconds

    def call_later(self, delay, callback, *args, context=None):
        self.slept.append(delay)
        return super().call_later(delay * self.stretch, callback, *args, context=context)

    def run(self, main):
        """``asyncio.run(main)`` on this loop; the loop is closed after,
        and its clock and ``slept`` stay readable."""
        with asyncio.Runner(loop_factory=lambda: self) as runner:
            return runner.run(main)
