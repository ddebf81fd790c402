"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: input problems (bad files,
bad configs, violated schema invariants: ValidationError, or any ValueError,
TypeError or LookupError a malformed value raises) exit with status 2; the
deliberate run-time failures are RuntimeError subclasses and exit 1.
"""


class ValidationError(ValueError):
    """Input violates a documented invariant (bad file, bad config, bad value)."""


class ScenarioFormatError(ValidationError):
    """Scenario or config file failed to parse or validate.

    Carries optional location info so the CLI can point at the offending
    line or field.
    """

    def __init__(self, message, line=None, field=None):
        super().__init__(message)
        self.line = line
        self.field = field


class LatticeCapError(RuntimeError):
    """Exact lattice enumeration would exceed the configured cap."""

    def __init__(self, size, cap):
        super().__init__(
            "lattice has %d points, exceeding the cap of %d; "
            "switch to a sampling method or raise the cap" % (size, cap)
        )
        self.size = size
        self.cap = cap


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap.

    Carries the final bracket so the caller can see how close it got.
    """

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class EllipsoidConditionError(ValueError):
    """The ellipsoid is not certified to fit inside the simplex.

    Reports both sides of the violated inequality.
    """

    def __init__(self, lhs, rhs):
        super().__init__(
            "containment condition violated: sqrt(radius)=%r must be < "
            "sigma_min(A)*min_i min(p_i, 1-p_i)=%r" % (lhs, rhs)
        )
        self.lhs = lhs
        self.rhs = rhs
