"""Exception hierarchy shared across the package.

Two broad families map onto CLI exit codes: ``InputError`` (bad files,
schemas, configuration; exit code 2) and ``NumericError`` (computation
produced garbage; exit code 3).
"""

from __future__ import annotations


class TestPrioError(Exception):
    """Base class for all errors raised by this package."""


class InputError(TestPrioError):
    """User-supplied data or configuration is invalid."""


class NumericError(TestPrioError):
    """A numeric computation failed (non-finite values and friends)."""


class MissingColumn(InputError):
    def __init__(self, name: str):
        super().__init__(f"required column {name!r} is missing from the header")
        self.name = name


class BadVerdict(InputError):
    def __init__(self, row: int, value: str):
        super().__init__(f"row {row}: verdict must be 0 or 1, got {value!r}")
        self.row = row
        self.value = value


class NegativeDuration(InputError):
    def __init__(self, row: int, value: float):
        super().__init__(f"row {row}: duration must be >= 0, got {value}")
        self.row = row
        self.value = value


class DuplicateExecution(InputError):
    def __init__(self, test_id, cycle_id: int):
        super().__init__(f"test {test_id!r} appears more than once in cycle {cycle_id}")
        self.test_id = test_id
        self.cycle_id = cycle_id


class MalformedRow(InputError):
    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row


class EmptyHistory(InputError):
    """No cycles at or before the requested as-of point."""


class WindowLenMismatch(InputError):
    def __init__(self, got: int, expected: int):
        super().__init__(f"status window length is {got}, expected {expected}")
        self.got = got
        self.expected = expected


class LengthMismatch(InputError):
    def __init__(self, a: int, b: int):
        super().__init__(f"sequence lengths differ: {a} vs {b}")


class DimMismatch(InputError):
    def __init__(self, got: int, expected: int):
        super().__init__(f"input has {got} features, network expects {expected}")


class NonFinitePriority(NumericError):
    def __init__(self, test_id):
        super().__init__(f"priority for test {test_id!r} is not finite")
        self.test_id = test_id


class NonFiniteLoss(NumericError):
    """Training loss left the realm of finite numbers."""


class SchemaVersionMismatch(InputError):
    def __init__(self, got: str, expected: str):
        super().__init__(f"model file version {got!r} not supported (expected {expected!r})")


class CorruptModel(InputError):
    """Model file is truncated or structurally invalid."""


class InsufficientHistory(InputError):
    """Dataset has too few cycles for the requested study."""


class MissingPriorityColumn(InputError):
    """Dataset carries no ground-truth priority column."""
