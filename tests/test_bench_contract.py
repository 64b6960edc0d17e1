"""The benchmark's timed per-layer metrics name spans that exist.

paritybench/tracing.py wraps every public function of every paritylab
module, plus the class methods listed in its METHODS, and reads each
`<span>.calls` or `<span>.self_s` metric of BENCHMARK.json from the span
of that name.  A renamed or deleted function would leave its metric
reading 0 instead of failing, so this test resolves every such span
against the package.  The jobs themselves call paritylab through module
attributes (``suites.fourier_suite``), and a deleted one would fail only
inside a benchmark run, so every attribute paritybench/jobs.py reads is
resolved too.  It only reads these three files and imports paritylab.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def tracing_constant(name):
    """The literal value of a module-level constant of tracing.py."""
    tree = ast.parse((ROOT / "paritybench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def timed_spans():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return sorted({metric["name"].rpartition(".")[0] for metric in doc["per_layer"]
                   if metric["name"].endswith((".calls", ".self_s"))})


METHODS = {name: (module, cls, meth) for module, cls, meth, name in tracing_constant("METHODS")}
SKIP = tracing_constant("SKIP")


@pytest.mark.parametrize("span", timed_spans())
def test_timed_span_resolves(span):
    if span in METHODS:
        module, cls, meth = METHODS[span]
        owner = getattr(importlib.import_module(f"paritylab.{module}"), cls)
        assert meth in vars(owner), f"{span}: {cls} has no method {meth}"
        return
    module, _, attr = span.partition(".")
    mod = importlib.import_module(f"paritylab.{module}")
    fn = getattr(mod, attr, None)
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, (
        f"{span} is not a function defined in paritylab.{module}")
    assert not attr.startswith("_") and span not in SKIP, f"{span} is not traced"


def jobs_attributes():
    """Every `<module>.<name>` that paritybench/jobs.py reads from a
    paritylab module it imports, found by walking its AST."""
    tree = ast.parse((ROOT / "paritybench" / "jobs.py").read_text())
    modules = {alias.asname or alias.name for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.module == "paritylab"
               for alias in node.names}
    return sorted({f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules})


@pytest.mark.parametrize("name", jobs_attributes())
def test_job_attribute_resolves(name):
    module, _, attr = name.partition(".")
    assert hasattr(importlib.import_module(f"paritylab.{module}"), attr), (
        f"paritybench/jobs.py reads {name}, which paritylab does not define")
