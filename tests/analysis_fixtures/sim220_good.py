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
            try:
                yield timer
            finally:
                self.right.release(timer)
        finally:
            self.left.release()

    def downstream(self, sim):
        yield self.left.acquire()
        try:
            timer = self.right.hold(7)
            try:
                yield timer
            finally:
                self.right.release(timer)
        finally:
            self.left.release()
