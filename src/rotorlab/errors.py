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


class QuadratureError(NumericError):
    """Quadrature refinement stopped without converging.

    Carries ``nodes``, the node count reached, and ``estimates``, the last two
    estimates (just one if refinement stopped at its first rule); the message
    states both.
    """

    def __init__(self, message: str, nodes: int, estimates: tuple[float, ...]):
        shown = ", ".join(repr(e) for e in estimates)
        super().__init__(f"{message}; reached {nodes} nodes, last estimates {shown}")
        self.nodes = nodes
        self.estimates = estimates


class ResourceLimitError(RuntimeError):
    """A configured resource cap (basis size, node count) was exceeded."""
