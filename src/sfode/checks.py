"""Input-domain rules, stated once for the library and the command line.

The scheme's existence, uniqueness and convergence results hold for Caputo
order alpha in (0, 1], with alpha > 1/2 wherever a noise integral or a Picard
sweep is formed (the kernel (t-s)**(alpha-1) is then square-integrable), on a
uniform grid whose step h divides the horizon T.  Each rule function returns
the list of violated constraints as messages, so the command line can gather
every violation of a run into one report; :func:`require` raises them as a
:class:`ConfigError`.
"""

import math
import numbers
import operator
import sys

import numpy as np

__all__ = [
    "ConfigError",
    "alpha_rule",
    "array_rule",
    "bool_rule",
    "callable_rule",
    "channels_rule",
    "choice_rule",
    "finite_rule",
    "grid_rule",
    "integer_rule",
    "positive_rule",
    "real_rule",
    "require",
    "seed_rule",
    "type_rule",
]

#: Largest |T/h - round(T/h)| still taken as a whole number of steps.
GRID_REL_TOL = 1e-9

#: Most steps a grid may have.  The stepper's memory grows with it: 2**22
#: steps of a 3-D stochastic system hold about 0.2 GB of history and as much
#: again of far-field sums.
MAX_STEPS = 2**22

#: Most floats one Wiener path may hold, channels times nodes: 2**27 bytes,
#: which a 3-channel path on a grid of MAX_STEPS steps fits.
MAX_PATH_FLOATS = 2**24


class ConfigError(ValueError):
    """One or more input-domain constraints are violated."""


def require(problems: list) -> None:
    """Raise ConfigError listing every message in problems, if any."""
    if problems:
        raise ConfigError("\n".join(problems))


def type_rule(name: str, value, cls: type) -> list:
    """value is an instance of cls, so that a wrong type is a message, not
    an AttributeError from deep inside the call."""
    if isinstance(value, cls):
        return []
    article = "an" if cls.__name__[0] in "AEIOU" else "a"
    return [f"{name} must be {article} {cls.__name__}; got {value!r}"]


def bool_rule(**values) -> list:
    """Every named value is a Python or numpy bool, so that an array, whose
    truth value numpy refuses, is a message, not a ValueError."""
    return [f"{name} must be a bool; got {value!r}"
            for name, value in values.items() if not isinstance(value, (bool, np.bool_))]


def callable_rule(**values) -> list:
    """Every named value is callable, so that a missing function is a message
    up front, not a TypeError once a run reaches it."""
    return [f"{name} must be callable; got {value!r}"
            for name, value in values.items() if not callable(value)]


def real_rule(**values) -> list:
    """Every named value is a real number: a Python or numpy int or float,
    not a string or None.  The rules that compare a value check this first,
    so a value that is no number is a message, not a TypeError."""
    return [f"{name} must be a real number; got {value!r}"
            for name, value in values.items() if not isinstance(value, numbers.Real)]


def alpha_rule(alpha: float, over_half: str | None = None) -> list:
    """alpha a real number in (0, 1] and not subnormal; alpha > 1/2 as well
    when over_half names who needs it."""
    if problems := real_rule(alpha=alpha):
        return problems
    if not 0.0 < alpha <= 1.0:
        return [f"alpha must be in (0, 1]; got {alpha!r}"]
    if alpha < sys.float_info.min:
        return [f"alpha must be at least {sys.float_info.min!r} (not subnormal); got {alpha!r}"]
    if over_half and not alpha > 0.5:
        return [f"{over_half} require alpha > 1/2; got alpha={alpha!r}"]
    return []


def array_rule(name: str, value, shape: tuple | None = None) -> list:
    """value is an array of finite real numbers shaped shape (any shape for
    None): a number or a (nested) sequence of them, not a string or None."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged nesting
        array = np.asarray(None)
    if array.dtype.kind not in "biuf":
        return [f"{name} must be real numbers; got {value!r}"]
    if shape is not None and array.shape != shape:
        return [f"{name} must have shape {shape}, got {array.shape}"]
    if not np.isfinite(array).all():
        return [f"{name} must be finite; got {value!r}"]
    return []


def choice_rule(name: str, value, choices) -> list:
    """value is one of choices (strings, or the members of a str enum)."""
    names = [getattr(c, "value", c) for c in choices]
    if isinstance(value, str) and value in names:
        return []
    return [f"{name} must be one of {', '.join(names)}; got {value!r}"]


def _finite(value: numbers.Real) -> bool:
    """value is finite as a float: an int past the float range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def finite_rule(**values) -> list:
    """Every named value is a finite real number."""
    return real_rule(**values) + [f"{name} must be finite; got {value!r}"
                                  for name, value in values.items()
                                  if isinstance(value, numbers.Real) and not _finite(value)]


def _index(value) -> int | None:
    """value as an int if operator.index accepts it and it is no bool, else None."""
    try:
        return None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        return None


def integer_rule(least: int | None = None, **values) -> list:
    """Every named value is an integer, a count: a Python or numpy integer,
    and at least least when that is given.  A float is not a count, even
    2.0, and neither is a bool."""
    problems = []
    for name, value in values.items():
        n = _index(value)
        if n is None:
            problems.append(f"{name} must be an integer; got {value!r}")
            continue
        if least is not None and n < least:
            problems.append(f"{name} must be >= {least}; got {n}")
    return problems


def channels_rule(num_channels: int, num_nodes: int) -> list:
    """num_channels is a count >= 1 of Wiener channels whose path on
    num_nodes nodes holds at most MAX_PATH_FLOATS floats, so a count too
    large to draw is a message before anything is allocated."""
    problems = integer_rule(1, num_channels=num_channels)
    most = MAX_PATH_FLOATS // num_nodes
    if not problems and (count := operator.index(num_channels)) > most:
        problems.append(f"num_channels must be at most {most} on a grid of {num_nodes} "
                        f"nodes; got {count}")
    return problems


def positive_rule(**values) -> list:
    """No named value is <= 0 (NaN and values that are no real number are
    left to :func:`finite_rule`)."""
    return [f"{name} must be > 0; got {value!r}"
            for name, value in values.items() if isinstance(value, numbers.Real) and value <= 0]


def grid_rule(T: float, h: float) -> list:
    """T and h finite and positive, and T/h an integer in [2, MAX_STEPS]."""
    problems = finite_rule(h=h, T=T) + positive_rule(h=h, T=T)
    if not problems:
        ratio = T / h
        steps = round(ratio) if math.isfinite(ratio) else 0
        if steps < 2 or abs(ratio - steps) > GRID_REL_TOL:
            problems.append(f"T/h must be an integer >= 2; got T/h = {ratio!r}")
        elif steps > MAX_STEPS:
            problems.append(f"T/h must be at most {MAX_STEPS} steps; got T/h = {ratio!r}")
    return problems


def seed_rule(seed: int) -> list:
    """seed is a 64-bit unsigned integer: a Python or numpy integer in
    [0, 2**64).  A float is not a seed, even 1.0, and neither is a bool."""
    n = _index(seed)
    if n is not None and 0 <= n < 2**64:
        return []
    return [f"seed must be a 64-bit unsigned integer; got {seed!r}"]
