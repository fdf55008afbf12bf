"""The package's public names: each module's __all__ is the one list of
them; and what importing the package loads."""
import importlib
import os
import subprocess
import sys

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


def test_importing_pstlab_does_not_load_scipy():
    # only the eigensolves import scipy, when first called
    code = ('import sys, pstlab, pstlab.cli; '
            'print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))')
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pstlab.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]", done.stdout
