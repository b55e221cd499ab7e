"""No graph search recurses: in the static call graph of the graph modules,
no function reaches itself except the one named below, whose depth is
bounded."""
import ast
from pathlib import Path

import ccswb
from ccswb.lts import on_cycle

_SRC = Path(ccswb.__file__).parent
_MODULES = ("lts", "testing", "usability", "preorders")
# run enumeration's `extend` stops at STEP_BOUND steps
_BOUNDED = {"testing.enumerate_computations.extend"}


def _call_graph() -> dict[str, set[str]]:
    """Function name -> the functions it may call or pass on, by qualified
    name (`module.Class.method`, `module.function.nested`).  A call of a
    class reaches its `__init__`.  A method is found through `self`, through
    a field of `self` whose annotation names a class, or else by its name
    in every class; through `super()`, in none, since no graph class
    derives from another."""
    trees = {m: ast.parse(Path(_SRC, m + ".py").read_text()) for m in _MODULES}
    top: dict[str, dict[str, str]] = {}  # module -> its names that denote graph functions
    methods: dict[str, dict[str, str]] = {}  # class -> method name -> function
    fields: dict[str, dict[str, list[str]]] = {}  # class -> field -> classes its annotation names
    for m, tree in trees.items():
        top[m] = {}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                top[m][node.name] = f"{m}.{node.name}"
            elif isinstance(node, ast.ClassDef):
                cls = f"{m}.{node.name}"
                methods[cls] = {f.name: f"{cls}.{f.name}" for f in node.body
                                if isinstance(f, ast.FunctionDef)}
                fields[cls] = {f.target.id: [n.id for n in ast.walk(f.annotation)
                                             if isinstance(n, ast.Name)]
                               for f in node.body if isinstance(f, ast.AnnAssign)}
                if "__init__" in methods[cls]:
                    top[m][node.name] = methods[cls]["__init__"]
    for m, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in _MODULES:
                top[m].update((a.name, top[node.module][a.name]) for a in node.names
                              if a.name in top[node.module])
    graph: dict[str, set[str]] = {}

    def visit(body: list[ast.stmt], qual: str, m: str, cls: str | None, scope: dict[str, str]) -> None:
        # the nodes of `body` outside the functions it defines, and those functions
        own, nested, todo = [], [], list(body)
        while todo:
            n = todo.pop()
            if isinstance(n, ast.FunctionDef):
                nested.append(n)
            else:
                own.append(n)
                todo.extend(ast.iter_child_nodes(n))
        inner = {**scope, **{f.name: f"{qual}.{f.name}" for f in nested}}
        for f in nested:
            visit(f.body, f"{qual}.{f.name}", m, cls, inner)
        out = graph.setdefault(qual, set())
        for n in own:
            if isinstance(n, ast.Name) and n.id in inner:
                out.add(inner[n.id])
            elif isinstance(n, ast.Attribute):
                recv = n.value
                if isinstance(recv, ast.Call) and getattr(recv.func, "id", None) == "super":
                    continue
                owners = list(methods)
                if cls and getattr(recv, "id", None) == "self":
                    owners = [cls]
                elif cls and getattr(getattr(recv, "value", None), "id", None) == "self":
                    declared = [f"{m}.{c}" for c in fields[cls].get(recv.attr, ())]
                    owners = [c for c in declared if c in methods] or owners
                out.update(methods[c][n.attr] for c in owners if n.attr in methods[c])

    for m, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                visit(node.body, f"{m}.{node.name}", m, None, top[m])
            elif isinstance(node, ast.ClassDef):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef):
                        visit(f.body, f"{m}.{node.name}.{f.name}", m, f"{m}.{node.name}", top[m])
    return graph


def test_no_graph_function_reaches_itself():
    graph = _call_graph()
    assert "usability.usable_set" in graph and "preorders._Engine.nodes" in graph
    recursive = on_cycle(graph, lambda f: graph.get(f, ()))
    assert recursive == _BOUNDED
