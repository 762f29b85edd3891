"""Exception types shared across the package.

Every package error is an ``AgcDiagError``. There is one class per way a
caller handles a failure, and no other: the CLI maps ``ConfigError`` to
exit 2, ``InfeasibleDesignError`` to exit 3 and any other class to exit 1;
the config layer reports a ``ValidationError`` at the config entry it came
from (``UnknownLabelError`` at the label list); the design names its LP in
a ``NumericError``. Bad input of any kind (a shape, a sign, a pole, an empty
attack set) raises ``ValidationError``; the message tells the cases apart.
"""


class AgcDiagError(Exception):
    """Base class for all package errors."""


class ValidationError(AgcDiagError):
    """Model, scenario or call data violates a structural invariant."""


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


class NumericError(AgcDiagError):
    """A numerical operation produced non-finite values, an LP point that
    breaks the rows of its problem, or an LP that hit its pivot cap."""


class DivergenceError(AgcDiagError):
    """Simulated state magnitude exceeded the divergence guard."""

    def __init__(self, step, magnitude):
        super().__init__(f"state norm {magnitude:.3e} exceeded guard at step {step}")
        self.step = step
        self.magnitude = magnitude


class InfeasibleDesignError(AgcDiagError):
    """No detecting filter exists for the requested configuration."""
