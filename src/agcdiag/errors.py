"""Exception types shared across the package.

The CLI maps these onto exit codes, so raising the right class matters more
than the message wording.
"""


class AgcDiagError(Exception):
    """Base class for all package errors."""


class DimensionError(AgcDiagError):
    """Matrix/vector dimensions do not conform."""


class SingularMatrixError(AgcDiagError):
    """A matrix that must be full rank is rank deficient."""


class ValidationError(AgcDiagError):
    """Model or scenario data violates a structural invariant."""


class UnknownLabelError(ValidationError):
    """A configured label names no measurement, state or area of the model."""


class ConfigError(ValidationError):
    """Bad or missing run-configuration data, or a bad entry of a
    scenario's label map.

    ``field`` carries the dotted path of the offending entry so the CLI can
    report it.
    """

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class StabilityError(AgcDiagError):
    """A filter pole or system mode is outside its stability region."""


class NumericError(AgcDiagError):
    """A numerical operation produced non-finite values, or an LP point that
    breaks the rows of its problem."""


class DivergenceError(AgcDiagError):
    """Simulated state magnitude exceeded the divergence guard."""

    def __init__(self, step, magnitude):
        super().__init__(f"state norm {magnitude:.3e} exceeded guard at step {step}")
        self.step = step
        self.magnitude = magnitude


class InfeasibleDesignError(AgcDiagError):
    """No detecting filter exists for the requested configuration."""


class EmptyAttackSetError(AgcDiagError):
    """The disruptive polytope contains no points."""


class IterationLimitError(AgcDiagError):
    """The LP solver hit its hard pivot cap."""
