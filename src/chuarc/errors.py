"""Exception types shared across the package."""

import copyreg


class ChuaRcError(Exception):
    """Base class for all package-specific errors."""

    def __reduce__(self):
        # from the message and the fields, not __init__: crosses a process pool
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigurationError(ChuaRcError, ValueError):
    """A configuration value, command-line flag or library argument is bad input.

    ``field`` names the offending entry (dotted path for nested configs).
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class IntegrationError(ChuaRcError, RuntimeError):
    """The ODE solver produced a non-finite state.

    ``case_index`` names the dataset case when the kernel ran one.
    """

    def __init__(self, step_index: int, case_index: int | None = None):
        self.step_index = step_index
        self.case_index = case_index
        where = "" if case_index is None else f" in case {case_index}"
        super().__init__(f"non-finite state at step {step_index}{where}")


class GenerationError(ChuaRcError, RuntimeError):
    """Dataset generation exhausted its attempt budget."""

    def __init__(self, retention_rate: float, message: str):
        self.retention_rate = retention_rate
        super().__init__(f"{message} (retention rate {retention_rate:.3f})")
