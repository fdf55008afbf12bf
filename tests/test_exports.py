"""The package's public names: each module's __all__ is the one list of them."""
import importlib

import pstlab

MODULES = ("bounds", "chain", "eigensolve", "errors", "pst", "synthesis")


def test_all_is_the_sorted_union_of_the_module_lists():
    lists = {m: importlib.import_module(f"pstlab.{m}").__all__ for m in MODULES}
    names = [name for names in lists.values() for name in names]
    assert len(names) == len(set(names)) == 30
    assert pstlab.__all__ == sorted(names)
    for module, exported in lists.items():
        for name in exported:
            assert getattr(pstlab, name) is getattr(pstlab, module).__dict__[name], name
