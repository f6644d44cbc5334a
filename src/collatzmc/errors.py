"""Exception types shared across the package."""


class CapacityError(Exception):
    """A requested computation exceeds the configured size/level caps."""


class ConsistencyError(Exception):
    """An internal cross-check failed; indicates a construction bug."""


class WorkerError(Exception):
    """A sweep worker process ended without sending its result."""


class TrajectoryCapError(Exception):
    """An orbit exceeded the step cap before reaching the cycle {1, 2, 4}."""

    def __init__(self, start, steps):
        self.start = start
        self.steps = steps
        super().__init__(f"orbit of n0={start} exceeded {steps} step cap")

    def __reduce__(self):
        # two-arg constructor; default exception pickling would pass the
        # formatted message alone and fail when a sweep worker sends it
        return (TrajectoryCapError, (self.start, self.steps))
