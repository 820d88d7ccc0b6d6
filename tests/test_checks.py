"""Every public entry point declares a rule for each of its parameters.

An entry point is a callable in ``sfode.__all__`` or in the ``__all__`` of an
sfode module.  Its rules are declared with :func:`sfode.checks.ruled`, which
keeps them as ``__rules__``; a parameter without one is a failure here, not a
finding of the property tests' probes.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import sfode
from sfode import checks

# entry point -> why it declares no rules
EXEMPT = {
    **dict.fromkeys([
        "sfode.analysis.levels_rule",
        "sfode.checks.alpha_rule",
        "sfode.checks.array_rule",
        "sfode.checks.bool_rule",
        "sfode.checks.callable_rule",
        "sfode.checks.channels_rule",
        "sfode.checks.choice_rule",
        "sfode.checks.count_rule",
        "sfode.checks.finite_rule",
        "sfode.checks.grid_rule",
        "sfode.checks.optional_rule",
        "sfode.checks.positive_rule",
        "sfode.checks.real_rule",
        "sfode.checks.seed_rule",
        "sfode.checks.stream_rule",
        "sfode.checks.type_rule",
        "sfode.picard.diagnostic_rule",
        "sfode.stochastic.path_rule",
        "sfode.weights.table_rule",
    ], "a rule, or a factory of rules: it reports on the values it is given"),
    "sfode.checks.require": "raises the messages the rules return",
    "sfode.checks.ruled": "declares the rules",
    "sfode.checks.ConfigError": "an exception",
    "sfode.solver.DivergenceError": "an exception",
    "sfode.special.ConvergenceError": "an exception",
    "sfode.solver.NoiseHistory": "an enum: its members are the values",
    "sfode.weights.WeightMode": "an enum: its members are the values",
    "sfode.cli.main": "argparse checks argv, and the run keys are RunConfig's",
}


def entry_points() -> dict:
    """Every callable in the __all__ of sfode and of its modules, by its
    name there, qualified by the module that defines it."""
    modules = [sfode] + [importlib.import_module(f"sfode.{info.name}")
                         for info in pkgutil.iter_modules(sfode.__path__)]
    found = {}
    for module in modules:
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if callable(obj):
                found[f"{obj.__module__}.{name}"] = obj
    return found


def unruled(obj) -> list:
    """The parameters of obj that no declared rule covers, and the declared
    names that are no parameter of obj."""
    parameters = inspect.signature(obj).parameters
    rules = getattr(obj, "__rules__", {})
    return ([f"{name} has no rule" for name in parameters if name not in rules]
            + [f"{name} is no parameter" for name in rules if name not in parameters])


ENTRY_POINTS = entry_points()


@pytest.mark.parametrize("name", sorted(set(ENTRY_POINTS) - set(EXEMPT)))
def test_every_parameter_has_a_declared_rule(name):
    assert unruled(ENTRY_POINTS[name]) == []


@pytest.mark.parametrize("name", sorted(EXEMPT))
def test_an_exemption_names_an_entry_point(name):
    assert name in ENTRY_POINTS


def test_the_walker_flags_what_no_rule_covers():
    @checks.ruled(a=checks.real_rule, c=checks.real_rule)
    def stub(a, b=0):
        return a

    @checks.ruled(x=int)
    @dataclasses.dataclass
    class Stub:
        x: int
        y: int = 0

    def bare(a):
        return a

    assert unruled(stub) == ["b has no rule", "c is no parameter"]
    assert unruled(Stub) == ["y has no rule"]
    assert unruled(bare) == ["a has no rule"]


def test_declared_rules_keep_the_signature_and_check_the_call():
    assert inspect.signature(sfode.solve) == inspect.signature(sfode.solve.__wrapped__)
    assert list(inspect.signature(sfode.SolverConfig).parameters) == [
        "alpha", "grid", "stochastic", "noise_history", "weight_mode"]
    with pytest.raises(checks.ConfigError, match="^x must be a str; got 1$"):
        checks.ruled(x=str)(lambda x: x)(1)
