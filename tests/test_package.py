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


# Public names kept only because the benchmark names them: the tracer wraps
# exists_automorphism_mapping, diameter and greedy_extend_traced (its
# LAYERS), run.py reports a count for every solver.BRANCH_* constant, and
# the solve-pipeline workload routes the six-cycle to solve_c6_extension,
# which checks is_c6 and calls solve.
# greedy_extend_traced is a second name for greedy_extend, under which the
# tracer wraps every greedy call. The next change to benchmarks/ can drop
# those entries and then the names.
BENCHMARK_ONLY = {
    "symmetry.exists_automorphism_mapping",
    "solver.BRANCH_DISSIMILAR",
    "graph.diameter",
    "greedy.greedy_extend_traced",
    "solver.solve_c6_extension",
}


def _public_bindings(node: ast.AST, functions: set[str]) -> list[str]:
    # the UPPER_CASE names a module-level assignment binds, and the names it
    # binds to a library function under another name
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    value = node.value
    alias = isinstance(value, ast.Name) and value.id in functions
    return [
        target.id
        for target in targets
        if isinstance(target, ast.Name)
        and not target.id.startswith("_")
        and (target.id.isupper() or alias and target.id != value.id)
    ]


def test_every_public_function_is_used_or_exported():
    # a public function, UPPER_CASE constant or second name of a function
    # that nothing else in the library uses and the package does not export
    # exists only for the tests; it belongs in tests/
    modules = {
        source.stem: ast.parse(source.read_text(encoding="utf-8"))
        for source in sorted(SOURCES.glob("*.py"))
    }
    functions = {
        node.name
        for module in modules.values()
        for node in module.body
        if isinstance(node, ast.FunctionDef)
    }
    defined: list[tuple[str, str, ast.AST]] = []
    statements: list[ast.AST] = []
    for stem, module in modules.items():
        for node in module.body:
            statements.append(node)
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined.append((stem, node.name, node))
            for name in _public_bindings(node, functions):
                defined.append((stem, name, node))
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


def _calls(node: ast.AST, name: str) -> int:
    return sum(
        isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == name
        for sub in ast.walk(node)
    )


def test_only_solve_certifies_and_builds_a_result():
    # one route to a certified SolveResult: nothing else in solver.py calls
    # certify or builds the result
    module = ast.parse((SOURCES / "solver.py").read_text(encoding="utf-8"))
    solve = next(
        node for node in module.body if isinstance(node, ast.FunctionDef) and node.name == "solve"
    )
    for name in ("certify", "SolveResult"):
        assert _calls(module, name) == _calls(solve, name) == 1, name


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
