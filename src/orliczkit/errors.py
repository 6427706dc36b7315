"""Exception types shared across the package, and its one integer check.

Three failure categories are distinguished so that callers (and the CLI
exit-code mapping) can react differently: bad arguments, evaluation outside
the admissible domain, and numerical breakdown inside an algorithm.
``_int_at_least`` checks a scalar integer argument (a count or a seed).
"""

import numbers


class InputError(ValueError):
    """Malformed or inadmissible input (bad config, violated precondition)."""


class DomainError(ValueError):
    """Evaluation requested outside the admissible domain (non-finite data)."""


class NumericsError(RuntimeError):
    """A numerical routine failed to reach its tolerance (with diagnostic)."""


def _int_at_least(value, name, least):
    """int(value) for an integer value >= least; a bool, a float (even an
    integral one) or a smaller value raises an InputError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InputError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)
