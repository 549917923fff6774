"""Timer-driven feeders for tests that pace work through a component."""

from repro.sim import EventPriority


def every(env, gap, body, count=None, until=None):
    """Call ``body(i)`` for i = 0, 1, ... now and then every ``gap`` s.

    The timer form of ``for i in range(count): body(i); sleep(gap)``
    (``count=None``: forever), or, with ``until``, of ``while now <
    until: ...``.  The first call sits in the URGENT slot of this
    instant, so it runs before the instant's ordinary events.
    """

    def fire(event):
        i = event.value
        if i == count or (until is not None and env.now >= until):
            return
        body(i)
        env.call_later(gap, fire, value=i + 1)

    env.call_at(env.now, fire, value=0, priority=EventPriority.URGENT)
