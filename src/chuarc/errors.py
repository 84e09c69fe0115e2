"""Exception types shared across the package."""

import copyreg


class ChuaRcError(Exception):
    """Base class for all package-specific errors."""

    def __reduce__(self):
        # from the message and the fields, not __init__: crosses a process pool
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InputDomainError(ChuaRcError, ValueError):
    """A raw input value falls outside the documented domain."""


class ConfigurationError(ChuaRcError, ValueError):
    """A configuration value violates an invariant.

    ``field`` names the offending entry (dotted path for nested configs).
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class IntegrationError(ChuaRcError, RuntimeError):
    """The ODE solver produced a non-finite state.

    ``case_index`` names the dataset case when the kernel ran one.
    """

    def __init__(self, step_index: int, message: str = "non-finite state",
                 case_index: int | None = None):
        self.step_index = step_index
        self.case_index = case_index
        where = "" if case_index is None else f" in case {case_index}"
        super().__init__(f"{message} at step {step_index}{where}")


class LayoutError(ChuaRcError, ValueError):
    """Trace samples do not line up with the expected slot layout."""


class MetricError(ChuaRcError, ValueError):
    """A score is undefined for the given inputs (e.g. zero target spread)."""


class GenerationError(ChuaRcError, RuntimeError):
    """Dataset generation exhausted its attempt budget."""

    def __init__(self, retention_rate: float, message: str):
        self.retention_rate = retention_rate
        super().__init__(f"{message} (retention rate {retention_rate:.3f})")
