"""Exception types shared across the package.

The CLI maps these onto process exit codes: a proven inequality failing is
exit 1, bad user input is exit 2, and numeric or resource trouble is exit 3.
"""


class InputError(ValueError):
    """Malformed input: bad files, dimension mismatches, invalid arguments."""


class ViolationError(RuntimeError):
    """An inequality that must hold was found violated.

    Carries ``counterexample_path`` when the offending inputs were serialized.
    """

    def __init__(self, message: str, counterexample_path: str | None = None):
        super().__init__(message)
        self.counterexample_path = counterexample_path


class NumericError(RuntimeError):
    """Numerical machinery failed to reach its accuracy target."""


class ResourceLimitError(RuntimeError):
    """A resource limit (basis size, harmonic degree, truncation order) was exceeded."""
