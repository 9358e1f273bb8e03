"""The package's public surface, and the imports of its modules."""

from __future__ import annotations

import __future__
import ast
import inspect
import json
import re
import types
from pathlib import Path

import pytest

import tugpricer
from tugpricer import game, isaacs, pde

SRC = Path(tugpricer.__file__).resolve().parent

# single-point wrappers and the second limit operator, replaced by the
# batched operators (hm_values_batch, greedy_controls_batch, limit_values_batch);
# the CSV-named writers, replaced by write_surface / write_value_table, whose
# format follows the path; pde._batched_operator, replaced by pde._operator,
# which builds the mode's operator kernel once per solve; the greedy core and
# view, folded into the one table set and policy view that every rule plays on
REMOVED = {
    "tugpricer": ["OperatorInput", "ControlPoint", "phi", "hm_plus", "hm_minus",
                  "greedy_controls", "f_limit", "f_envelopes", "f_mean_eigenvalue",
                  "discrete_derivatives", "apply_operator", "step_backward", "dpp_step",
                  "OutOfDomainError", "GradientDegenerateError",
                  "write_surface_csv", "write_value_table_csv", "payoff_basket_put",
                  "tabulated_payoff_from_csv"],
    "isaacs": ["OperatorInput", "ControlPoint", "phi", "hm_plus", "hm_minus", "_hm_single",
               "greedy_controls", "f_limit", "f_envelopes", "f_mean_eigenvalue",
               "SYMMETRY_TOL"],
    "pde": ["discrete_derivatives", "apply_operator", "step_backward", "_limit_values",
            "write_surface_csv", "_batched_operator"],
    "game": ["dpp_step", "ControlPoint", "write_value_table_csv", "_GreedyCore",
             "_GreedyView"],
}
MODULES = {"tugpricer": tugpricer, "isaacs": isaacs, "pde": pde, "game": game}


def test_all_lists_exactly_the_exported_names():
    exported = {name for name, value in vars(tugpricer).items()
                if not name.startswith("_")
                and not isinstance(value, (types.ModuleType, __future__._Feature))}
    assert len(set(tugpricer.__all__)) == len(tugpricer.__all__)
    assert set(tugpricer.__all__) == exported


@pytest.mark.parametrize("module", [tugpricer, pde], ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    for name in module.__all__:
        assert getattr(module, name, None) is not None, name


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_are_gone(module):
    left = [name for name in REMOVED[module] if hasattr(MODULES[module], name)]
    assert left == []


def test_removed_callables_leave_no_keyword():
    assert "running_cost_samples" not in game.discounted_reward.__code__.co_varnames
    assert "cells" not in game.aligned_time_steps.__code__.co_varnames
    assert not hasattr(game.FeedbackStrategy, "at")


def unused_from_imports(source: str) -> list[str]:
    """Names bound by ``from X import name`` that the module never reads;
    a name listed in the module's ``__all__`` counts as read."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {elt.value for elt in node.value.elts}
    return [name for name in bound if name not in read]


def test_unused_import_detector():
    source = "from a import b, c as d\nfrom e import f\n__all__ = ['f']\nprint(d)\n"
    assert unused_from_imports(source) == ["b"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    assert unused_from_imports(path.read_text()) == []


def test_traced_span_names_are_public_functions():
    # the benchmark's tracer keys its per-layer metrics on "module.function"
    # span names; a renamed function would read 0 there without an error
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    metrics = {m["name"] for m in json.loads(
        (spans.parents[1] / "BENCHMARK.json").read_text())["per_layer"]}
    names = {node.value for node in ast.walk(ast.parse(spans.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and re.fullmatch(r"(game|isaacs)\.\w+", node.value)} - metrics
    assert "game.checked_controls" in names and "isaacs.greedy_controls_batch" in names
    for name in sorted(names):
        module, attr = name.split(".")
        obj = getattr({"game": game, "isaacs": isaacs}[module], attr, None)
        assert not attr.startswith("_") and inspect.isfunction(obj), name
        assert obj.__module__ == f"tugpricer.{module}", name
