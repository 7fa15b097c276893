"""The README's "Library layout" table against the package.

Every function or class a row names in backticks must exist in that row's
module, with the parameters it is shown with, so a deleted or re-signed
name cannot stay in the docs.
"""

import importlib
import inspect
import re

import pytest

from conftest import REPO

# a backticked name, with its parameter list when the README gives one
NAMED = re.compile(r"`([A-Za-z_]\w*)(?:\(([^)]*)\))?`")


def layout_rows():
    readme = (REPO / "README.md").read_text()
    section = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(bassinv\.\w+)` \| (.*) \|$", section, re.M)


ROWS = layout_rows()


def test_layout_table_is_found():
    rows = dict(ROWS)
    assert {"bassinv.invariants", "bassinv.kernel",
            "bassinv.singularity"} <= set(rows)
    assert "`deduce_family(" in rows["bassinv.invariants"]


@pytest.mark.parametrize("module,contents", ROWS,
                         ids=[module for module, _ in ROWS])
def test_layout_names_exist(module, contents):
    mod = importlib.import_module(module)
    named = NAMED.findall(contents)
    # a name missing from the module may be an attribute of a class the
    # same row names, as MonomialOrder's `key`; single letters are the
    # row's mathematical symbols (the genus sum `g`, the loop count `l`)
    classes = [getattr(mod, n) for n, _ in named
               if inspect.isclass(getattr(mod, n, None))]
    for name, params in named:
        if len(name) == 1:
            continue
        owners = [mod] + classes
        obj = next((getattr(o, name) for o in owners if hasattr(o, name)),
                   None)
        assert obj is not None, f"{module} has no {name}"
        if params or f"`{name}()`" in contents:
            shown = [p.strip() for p in params.split(",") if p.strip()]
            assert list(inspect.signature(obj).parameters) == shown, name
