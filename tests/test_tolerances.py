"""Every numerical tolerance is a module constant: no function, method or
CLI flag of pstlab takes one, so each rule gives a chain one answer."""
import importlib
import inspect
import pkgutil

import pstlab
from pstlab.cli import _build_parser


def _functions():
    """(qualified name, function) for every function and method defined in
    a pstlab module."""
    for info in pkgutil.iter_modules(pstlab.__path__):
        module = importlib.import_module(f"pstlab.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_function_takes_a_tolerance():
    functions = dict(_functions())
    assert "pstlab.pst.certify" in functions and "pstlab.chain.ChainSpec.from_dict" in functions
    found = [(name, param) for name, fn in functions.items()
             for param in inspect.signature(fn).parameters if "tol" in param]
    assert found == []


def test_no_flag_takes_a_tolerance():
    commands = _build_parser()._subparsers._group_actions[0].choices
    flags = {flag for sub in commands.values() for action in sub._actions
             for flag in action.option_strings}
    assert "--cap" in flags
    assert not [flag for flag in flags if "tol" in flag]
