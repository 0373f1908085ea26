"""Shared exception types, and the floating-point guard that raises one."""

import contextlib

import numpy as np


class InvalidInput(ValueError):
    """Input violates a documented precondition (shape, finiteness, range)."""


class NumericalFailure(RuntimeError):
    """A numerical routine did not converge, or its arithmetic overflowed."""


class InvalidConfig(ValueError):
    """Configuration value or combination is not usable."""


@contextlib.contextmanager
def numerical_failure(what: str):
    """Raise NumericalFailure at the first floating-point overflow, division
    by zero, invalid operation (where numpy would warn) or LAPACK error."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalFailure(f"{what} is not finite ({exc})") from None
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"{what} did not converge ({exc})") from None
