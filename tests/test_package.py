"""Package-wide guards on the library's shape."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import distcolor

SOURCES = Path(distcolor.__file__).parent


def _used_names(node: ast.AST) -> Counter[str]:
    # every reference by name, attribute or import, counted
    names: Counter[str] = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
    return names


# Public functions kept only because the benchmark tracer wraps them by
# name; the next change to benchmarks/ can drop the tracer's entry and then
# the function.
BENCHMARK_ONLY = {"symmetry.exists_automorphism_mapping"}


def test_every_public_function_is_used_or_exported():
    # a public function that nothing in the library calls and the package
    # does not export exists only for the tests; it belongs in tests/
    defined: list[tuple[str, str, ast.AST]] = []
    statements: list[ast.AST] = []
    for source in sorted(SOURCES.glob("*.py")):
        module = ast.parse(source.read_text(encoding="utf-8"))
        for node in module.body:
            statements.append(node)
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined.append((source.stem, node.name, node))
    unused = []
    for module_name, name, definition in defined:
        if name in distcolor.__all__ or f"{module_name}.{name}" in BENCHMARK_ONLY:
            continue
        if not any(name in _used_names(node) for node in statements if node is not definition):
            unused.append(f"{module_name}.{name}")
    assert unused == []


def test_every_public_method_is_used_by_the_library():
    # a public method or property that no other library code references
    # exists only for the tests; it belongs in tests/ as a function. An
    # override of a base-class method is called by the base class.
    modules = {
        source.stem: ast.parse(source.read_text(encoding="utf-8"))
        for source in sorted(SOURCES.glob("*.py"))
    }
    uses: Counter[str] = Counter()
    for module in modules.values():
        uses += _used_names(module)
    unused = []
    for stem, module in modules.items():
        for cls in module.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            runtime = getattr(importlib.import_module(f"distcolor.{stem}"), cls.name)
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                if any(hasattr(base, method.name) for base in runtime.__mro__[1:]):
                    continue
                if uses[method.name] == _used_names(method)[method.name]:
                    unused.append(f"{stem}.{cls.name}.{method.name}")
    assert unused == []


def test_only_symmetry_reaches_the_unchecked_propagation():
    # _propagate trusts its caller's checks; certify and fixed_propagation
    # make them, so no other module may call it directly
    users = [
        source.stem
        for source in sorted(SOURCES.glob("*.py"))
        if "_propagate" in _used_names(ast.parse(source.read_text(encoding="utf-8")))
    ]
    assert users == ["symmetry"]


def _is_result_cache(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
    return name in ("cache", "lru_cache")


def test_caches_hold_only_fixed_inputs():
    # a cache keyed by caller input would let repeated calls in one process
    # skip work that a single command-line call cannot; only module-level
    # builders without parameters (the named graphs, the stored colorings)
    # may keep their result
    offenders = []
    for source in sorted(SOURCES.glob("*.py")):
        module = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(module):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not any(_is_result_cache(d) for d in node.decorator_list):
                continue
            args = node.args
            takes_input = (
                args.posonlyargs or args.args or args.kwonlyargs or args.vararg or args.kwarg
            )
            if node not in module.body or takes_input:
                offenders.append(f"{source.stem}.{node.name}")
    assert offenders == []
