"""Exception hierarchy.

Every structured failure raised by the library derives from ConesolveError;
`exit_code` is the CLI's exit code for a run it ends (65, bad data, if unset).
"""


class ConesolveError(Exception):
    """Base class for all library errors."""
    exit_code = 65


# geometry

class InvalidSpec(ConesolveError):
    """Domain specification is inconsistent (e.g. inverted rectangle bounds)."""


class DegenerateGrid(ConesolveError):
    """Grid construction produced no interior nodes."""


# operator

class EllipticityViolation(ConesolveError):
    """Pointwise ellipticity test failed on some grid node."""


class CoefficientViolation(ConesolveError):
    """A sign condition on a PDE or boundary coefficient is violated."""


class UnsupportedBC(ConesolveError):
    """Boundary condition not supported for the given domain."""


class NeumannRequiresZerothOrder(ConesolveError):
    """Pure Neumann conditions need a nonvanishing zero-order coefficient."""


# greens

class SolverFailure(ConesolveError):
    """Linear solve did not reach the required residual."""
    exit_code = 70


class GridMismatch(ConesolveError):
    """Grid function does not live on the operator's grid."""


class NoConvergence(ConesolveError):
    """Iteration exhausted its budget without meeting the tolerance."""
    exit_code = 70


# expression language

class ExprError(ConesolveError):
    """Base class for expression language errors."""
    exit_code = 64


class ExprSyntaxError(ExprError):
    """Malformed source text; `position` is the 1-based column."""

    def __init__(self, message, position):
        super().__init__(f"{message} (column {position})")
        self.position = position


class UnknownVariable(ExprSyntaxError):
    pass


class UnknownFunction(ExprSyntaxError):
    pass


class ArityError(ExprSyntaxError):
    pass


class MissingBinding(ExprError):
    """Evaluation requested without a value for a free variable."""


class EvalDomainError(ExprError):
    """Evaluation left the mathematical domain (sqrt of a negative, ...)."""
    exit_code = 65                  # it parses, but is bad data

    def __init__(self, function, value):
        super().__init__(f"domain error in '{function}' at argument {value!r}")
        self.function = function
        self.value = value


# nonlinearity

class BoxViolation(ConesolveError):
    """Field values leave the declared box beyond tolerance."""


# fixed point iteration

class MonotonicityViolation(ConesolveError):
    """An iterate broke the expected ordering; a hypothesis is not holding."""
    exit_code = 1


# lambda ranges

class ConditionCViolation(ConesolveError):
    """Some off-pivot component has maximum m_j <= 0 at beta."""


class NonpositiveM(ConesolveError):
    """M(s) <= 0 detected while sampling the single-equation ratio."""


# configuration

class ConfigError(ConesolveError):
    """Config file cannot be parsed or is internally inconsistent."""
    exit_code = 64
