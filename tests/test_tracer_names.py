"""Every function perfbench's tracer wraps must exist in the package:
Tracer.install looks each name up as an attribute of its owner and raises
KeyError for a name the package no longer has."""

import ast
import importlib
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _traced_names():
    """TRACED as written in perfbench/tracer.py, read without importing it."""
    with open(TRACER) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED":
            return ast.literal_eval(node.value)
    raise LookupError(f"no TRACED tuple in {TRACER}")


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves_in_the_package(name):
    # the lookup of Tracer.install: module, then classes, then the owner's own attribute
    mod_name, *owner_path, attr = name.split(".")
    owner = importlib.import_module(f"stringshape.{mod_name}")
    for part in owner_path:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(attr)), name
