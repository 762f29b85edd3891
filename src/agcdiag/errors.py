"""Exception types shared across the package.

Every package error is an ``AgcDiagError``, with one class per way a
caller handles a failure: the CLI maps ``ConfigError`` to exit 2,
``InfeasibleDesignError`` to exit 3 and any other class to exit 1; the
design names its LP in a ``NumericError``. Bad input raises
``ValidationError``, or ``ConfigError(<argument>, ...)`` when it can name
its argument, which the config layer reports at ``<section>.<argument>``.
"""


class AgcDiagError(Exception):
    """Base class for all package errors."""


class ValidationError(AgcDiagError):
    """Model, scenario or call data violates a structural invariant."""


class ConfigError(ValidationError):
    """Bad or missing run-configuration data, or a library argument named
    by its refusal.

    ``field`` is the entry's dotted path or the argument's name, for the
    CLI to report; ``message`` is the text without it.
    """

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


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
