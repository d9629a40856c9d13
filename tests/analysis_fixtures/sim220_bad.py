"""SIM220 fixture: two paths acquire die/channel in opposite orders."""


class Backend:
    def read(self, sim):
        yield self.die.acquire()
        try:
            yield self.channel.acquire()  # expect: SIM220
            try:
                yield sim.timeout(5)
            finally:
                self.channel.release()
        finally:
            self.die.release()

    def program(self, sim):
        yield self.channel.acquire()    # inverted: channel before die
        try:
            yield self.die.acquire()
            try:
                yield sim.timeout(7)
            finally:
                self.die.release()
        finally:
            self.channel.release()


class Bridge:
    """The same inversion through ``hold``: it waits as ``acquire``."""

    def upstream(self, sim):
        yield self.left.acquire()
        try:
            timer = self.right.hold(5)  # expect: SIM220
            yield timer
        finally:
            self.left.release()

    def downstream(self, sim):
        yield self.right.acquire()      # inverted: right before left
        try:
            timer = self.left.hold(7)
            yield timer
        finally:
            self.right.release()
