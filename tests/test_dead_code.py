"""Guard against library code that nothing runs.

A public top-level function of `src/nsgap` must be reachable from code that
runs: module-level code (the CLI's dispatch table and entry point), a
function of another module that is itself reachable, or a function of its
own module that is.  Exempt are the package's `__all__`, the functions the
benchmark traces (`perfbench/spans.TARGETS`) and the writers in ALLOWED.
References are resolved by parsing the sources, so nothing is imported.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nsgap"
# the JSON writers, kept as the inverses of the CLI readers
ALLOWED = {("spaces", "space_to_json"), ("markov", "chain_to_json")}


def _parse_modules() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _imports(tree) -> tuple:
    """Local name -> (module, name) for `from .m import f`, and local name
    -> module for `from . import m`."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module:
                    names[local] = (node.module, alias.name)
                else:
                    modules[local] = alias.name
    return names, modules


def _references(module, nodes, functions, names, modules) -> set:
    """(module, function) pairs that the given nodes refer to."""
    found = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                if node.id in names:
                    found.add(names[node.id])
                elif (module, node.id) in functions:
                    found.add((module, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                found.add((modules[node.value.id], node.attr))
    return found & functions.keys()


def _assigned(tree, name: str):
    """The literal value of the top-level assignment to `name`."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no top-level {name}")


def _traced_functions() -> set:
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    return {(module, name) for module, names in _assigned(spans, "TARGETS").items()
            for name in names}


def _exported(trees) -> set:
    names, _ = _imports(trees["__init__"])
    return {names[name] for name in _assigned(trees["__init__"], "__all__") if name in names}


def _functions(trees) -> dict:
    return {(module, node.name): node for module, tree in trees.items()
            for node in tree.body if isinstance(node, ast.FunctionDef)}


def unreached_public_functions() -> list:
    trees = _parse_modules()
    functions = _functions(trees)
    imports = {module: _imports(tree) for module, tree in trees.items()}
    reached = set()
    for module, tree in trees.items():
        top = [node for node in tree.body if not isinstance(node, ast.FunctionDef)]
        reached |= _references(module, top, functions, *imports[module])
    exempt = (_exported(trees) | _traced_functions() | ALLOWED) & functions.keys()
    queue = list(reached | exempt)
    reached |= exempt
    while queue:
        module, name = queue.pop()
        for ref in _references(module, [functions[module, name]], functions,
                               *imports[module]) - reached:
            reached.add(ref)
            queue.append(ref)
    return sorted(f"{module}.{name}" for module, name in functions.keys() - reached
                  if not name.startswith("_"))


def test_every_public_function_is_reached():
    unreached = unreached_public_functions()
    assert not unreached, "public functions nothing reaches: " + ", ".join(unreached)


def test_allowed_writers_exist():
    assert ALLOWED <= _functions(_parse_modules()).keys()
