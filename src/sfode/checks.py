"""Input-domain rules, stated once for the library and the command line.

The scheme's existence, uniqueness and convergence results hold for Caputo
order alpha in (0, 1], with alpha > 1/2 wherever a noise integral or a Picard
sweep is formed (the kernel (t-s)**(alpha-1) is then square-integrable), on a
uniform grid whose step h divides the horizon T.  A rule takes a parameter's
name and value and returns the list of the constraints the value violates as
messages, so the command line can gather every violation of a run into one
report; :func:`require` raises them as a :class:`ConfigError`.  Each public
entry point declares a rule per parameter with :func:`ruled`.  The rules that
relate parameters, such as :func:`grid_rule`, run after those, in its body.
"""

import functools
import inspect
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
    "count_rule",
    "finite_rule",
    "grid_rule",
    "optional_rule",
    "positive_rule",
    "real_rule",
    "require",
    "ruled",
    "seed_rule",
    "shape_rule",
    "stream_rule",
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

#: Size of the key space of the noise streams.  A path index is one 32-bit
#: word of its stream's spawn key, so it lies below 2**32 and a run draws at
#: most 2**32 paths; a channel index, below MAX_PATH_FLOATS, is another word.
KEY_SPACE = 2**32


class ConfigError(ValueError):
    """One or more input-domain constraints are violated."""


def require(problems: list) -> None:
    """Raise ConfigError listing every message in problems, if any."""
    if problems:
        raise ConfigError("\n".join(problems))


def ruled(**rules):
    """Declare a rule per parameter of a function or a class (above its
    ``@dataclass``) and check every call's arguments by them, in declaration
    order, before the call runs; a class stands for :func:`type_rule`.  A
    default left in place is not checked.  The table is kept, each rule a
    function of (name, value), as the ``__rules__`` of the result.
    """
    rules = {name: _compiled(rule) for name, rule in rules.items()}

    def decorate(target):
        fn = target.__init__ if isinstance(target, type) else target

        @functools.wraps(fn)
        def checked(*args, **kwargs):
            values = _signature(fn).bind(*args, **kwargs).arguments
            require([m for name, rule in rules.items() if name in values
                     for m in rule(name, values[name])])
            return fn(*args, **kwargs)

        if fn is target:
            checked.__rules__ = rules
            return checked
        target.__init__, target.__rules__ = checked, rules
        return target

    return decorate


#: The signature of a callable, built at its first checked call rather than
#: at import, where every entry point's would cost about 0.7 ms.
_signature = functools.cache(inspect.signature)


def _compiled(rule):
    """rule as a function of (name, value): a class stands for type_rule(rule)."""
    return type_rule(rule) if isinstance(rule, type) else rule


def _rule(test, wants: str):
    """The rule that passes a value that test accepts and else reports
    '<name> must be <wants>; got <value>', the wording of most rules here."""
    return lambda name, value: [] if test(value) else [f"{name} must be {wants}; got {value!r}"]


def _first(*rules):
    """The rule that reports the first of rules that a value fails, so each
    rule may assume the ones before it passed."""
    def rule(name, value):
        for part in rules:
            if problems := part(name, value):
                return problems
        return []
    return rule


def type_rule(cls: type):
    """The rule that a value is an instance of cls, so that a wrong type is a
    message, not an AttributeError from deep inside the call."""
    return _rule(lambda value: isinstance(value, cls),
                 f"{'an' if cls.__name__[0] in 'AEIOU' else 'a'} {cls.__name__}")


def optional_rule(rule):
    """The rule that a value is None or passes rule (as :func:`ruled` reads it)."""
    rule = _compiled(rule)
    return lambda name, value: [] if value is None else rule(name, value)


def _finite(value: numbers.Real) -> bool:
    """value is finite as a float: an int past the float range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _real(value) -> bool:
    """value is a real number and no bool, which numbers.Real takes as 0 or 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _index(value) -> int | None:
    """value as an int if operator.index accepts it and it is no bool, else None."""
    try:
        return None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        return None


#: A Python or numpy bool, so that an array, whose truth value numpy refuses,
#: is a message, not a ValueError.
bool_rule = _rule(lambda value: isinstance(value, (bool, np.bool_)), "a bool")
#: Callable, so that a missing function is a message up front, not a
#: TypeError once a run reaches it.
callable_rule = _rule(callable, "callable")
#: A text stream: an object with a callable write.
stream_rule = _rule(lambda value: callable(getattr(value, "write", None)),
                    "a stream with a callable write")
#: A Python or numpy int or float, not a string, None or a bool.  The rules
#: that compare a value check this first, so a value that is no number is a
#: message, not a TypeError.
real_rule = _rule(_real, "a real number")
#: A finite real number.
finite_rule = _first(real_rule, _rule(_finite, "finite"))
_above_zero = _rule(lambda value: not (_real(value) and value <= 0), "> 0")
#: A 64-bit unsigned integer: a Python or numpy integer in [0, 2**64).  A
#: float is not a seed, even 1.0, and neither is a bool.
seed_rule = _rule(lambda value: _index(value) is not None and 0 <= _index(value) < 2**64,
                  "a 64-bit unsigned integer")


def positive_rule(name: str, value) -> list:
    """value is a finite real number > 0 (-inf breaks both)."""
    return finite_rule(name, value) + _above_zero(name, value)


def alpha_rule(over_half: str | None = None):
    """The rule that alpha is a real number in (0, 1] and not subnormal, and
    > 1/2 as well when over_half names who needs it."""
    return _first(real_rule, _rule(lambda alpha: 0.0 < alpha <= 1.0, "in (0, 1]"),
                  _rule(lambda alpha: alpha >= sys.float_info.min,
                        f"at least {sys.float_info.min!r} (not subnormal)"),
                  lambda name, alpha: ([f"{over_half} require {name} > 1/2; got {name}={alpha!r}"]
                                       if over_half and not alpha > 0.5 else []))


def count_rule(least: int | None = None, most: int | None = None):
    """The rule that a value is a count: a Python or numpy integer, at least
    least and at most most when those are given.  A float is not a count,
    even 2.0, and neither is a bool."""
    def bounds(name, value):
        n = _index(value)
        return ([f"{name} must be >= {least}; got {n}"] if least is not None and n < least else
                [f"{name} must be <= {most}; got {n}"] if most is not None and n > most else [])
    return _first(_rule(lambda value: _index(value) is not None, "an integer"), bounds)


def choice_rule(choices):
    """The rule that a value is one of choices (strings, or the members of a
    str enum)."""
    names = [getattr(c, "value", c) for c in choices]
    return _rule(lambda value: isinstance(value, str) and value in names,
                 f"one of {', '.join(names)}")


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


def shape_rule(name: str, array: np.ndarray, shape: tuple) -> list:
    """array is shaped shape, whose int entries are lengths and whose str
    entries name lengths left free, so that a result's arrays fit its grid
    and one another, as its writer needs."""
    fits = array.ndim == len(shape) and all(isinstance(n, str) or n == m
                                            for n, m in zip(shape, array.shape))
    text = str(shape).replace("'", "")  # the free lengths by their names, unquoted
    return [] if fits else [f"{name} must be shaped {text}; got {array.shape}"]


def channels_rule(num_channels: int, num_nodes: int) -> list:
    """A count num_channels of Wiener channels whose path on num_nodes nodes
    holds at most MAX_PATH_FLOATS floats, so a count too large to draw is a
    message before anything is allocated."""
    most, count = MAX_PATH_FLOATS // num_nodes, operator.index(num_channels)
    return [] if count <= most else [f"num_channels must be at most {most} on a grid of "
                                     f"{num_nodes} nodes; got {count}"]


def grid_rule(T: float, h: float) -> list:
    """T and h finite and positive, and T/h an integer in [2, MAX_STEPS]."""
    problems = positive_rule("h", h) + positive_rule("T", T)
    if not problems:
        ratio = T / h
        steps = round(ratio) if math.isfinite(ratio) else math.inf  # inf: too many
        if steps < 2 or abs(ratio - steps) > GRID_REL_TOL:
            problems.append(f"T/h must be an integer >= 2; got T/h = {ratio!r}")
        elif steps > MAX_STEPS:
            problems.append(f"T/h must be at most {MAX_STEPS} steps; got T/h = {ratio!r}")
    return problems
