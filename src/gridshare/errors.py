"""Exception types shared across the package."""


class GridShareError(Exception):
    """Base class for all gridshare errors."""


class InvalidBatteryParamsError(GridShareError):
    """Battery parameter set violates a physical invariant."""


class InfeasibleActionError(GridShareError):
    """A battery action would push the state-of-charge out of bounds."""


class InfeasibleDecisionError(GridShareError):
    """A decision pair (a, e) violates its role's feasibility region."""


class LengthMismatchError(GridShareError):
    """Two series that must share a horizon have different lengths."""


class ScenarioValidationError(GridShareError):
    """A scenario document failed validation.

    Carries the full list of violations, not just the first one.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))

    def __reduce__(self):
        # rebuilt from the list, not from the joined message in ``args``
        return type(self), (self.problems,)


class InfeasibleConfigError(GridShareError):
    """A solver configuration cannot be satisfied by the scenario."""
