"""Exception hierarchy mapped to CLI exit codes."""


class DelibError(Exception):
    """Base class; carries the process exit code."""

    exit_code = 1


class ConfigError(DelibError):
    exit_code = 2


class TransportError(DelibError):
    exit_code = 3


class DataError(DelibError):
    exit_code = 4


class SchemaError(DelibError):
    """Model output could not be parsed against the expected schema.

    Not a transport failure: callers record it as a structured outcome.
    """

    exit_code = 4

    def __init__(self, reason, raw=""):
        super().__init__(reason)
        self.reason = reason
        self.raw = raw
