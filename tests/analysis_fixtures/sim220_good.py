"""SIM220 fixture: one global order — die, then channel — everywhere."""


class Backend:
    def read(self, sim):
        yield self.die.acquire()
        try:
            yield self.channel.acquire()
            try:
                yield sim.timeout(5)
            finally:
                self.channel.release()
        finally:
            self.die.release()

    def program(self, sim):
        yield self.die.acquire()
        try:
            yield self.channel.acquire()
            try:
                yield sim.timeout(7)
            finally:
                self.channel.release()
        finally:
            self.die.release()


class Bridge:
    """``hold`` keeps the one order too: left, then right."""

    def upstream(self, sim):
        yield self.left.acquire()
        try:
            timer = self.right.hold(5)
            yield timer
        finally:
            self.left.release()

    def downstream(self, sim):
        yield self.left.acquire()
        try:
            timer = self.right.hold(7)
            yield timer
        finally:
            self.left.release()


class Relay:
    """A hold returns its unit itself: once ``first.hold(...)`` is over
    nothing is held, so taking ``second`` after it orders nothing."""

    def forward(self, sim):
        yield self.first.hold(5)
        yield self.second.acquire()
        try:
            yield sim.timeout(5)
        finally:
            self.second.release()

    def backward(self, sim):
        yield self.second.acquire()
        try:
            yield self.first.hold(7)
        finally:
            self.second.release()
