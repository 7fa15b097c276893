"""The README against the package.

Every function or class a row of the "Library layout" table names in
backticks must exist in that row's module, with the parameters it is shown
with, and every backticked dotted reference anywhere in the README, such as
`polynomials.scaling_weights`, must resolve to an attribute of that module,
so a deleted or re-signed name cannot stay in the docs.
"""

import importlib
import inspect
import re

import pytest

from conftest import REPO

README = (REPO / "README.md").read_text()

# a backticked name, with its parameter list when the README gives one
NAMED = re.compile(r"`([A-Za-z_]\w*)(?:\(([^)]*)\))?`")
# a backticked dotted name, with its parameter list when the README gives one
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^)`]*\))?`")


def layout_rows():
    section = README.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(bassinv\.\w+)` \| (.*) \|$", section, re.M)


ROWS = layout_rows()
# file names such as `pyproject.toml` are not references
REFERENCES = sorted({ref for ref in DOTTED.findall(README)
                     if not (REPO / ref).exists()})


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


def test_dotted_references_are_found():
    assert {"bassinv.kernel", "polynomials.scaling_weights",
            "cli._analyze_family"} <= set(REFERENCES)
    assert "pyproject.toml" not in REFERENCES


@pytest.mark.parametrize("reference", REFERENCES)
def test_dotted_reference_resolves(reference):
    # the first part is the package or one of its modules, the rest are
    # attributes of it
    first, *attributes = reference.split(".")
    obj = importlib.import_module(
        first if first == "bassinv" else f"bassinv.{first}")
    for name in attributes:
        assert hasattr(obj, name), f"{reference}: no {name}"
        obj = getattr(obj, name)
