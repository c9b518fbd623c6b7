"""Static checks over the opcert sources, with the standard library's ast.

Every name a module imports is read in that module, every public
function of `opcert.autodiff` is called from another module of the
package, and every `RunConfig` field is read as `run.<field>` in `cli`:
an op that only tests reach, or a knob that no code reads, is surface to
delete.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "opcert"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}


def imported_names(tree):
    """{bound name: import line} of every import in the module, at any depth."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_modules_read_every_name_they_import():
    assert "neuralop" in MODULES and "autodiff" in MODULES
    unused = [f"{module}.py:{line} {name}"
              for module, tree in sorted(MODULES.items())
              for name, line in imported_names(tree).items()
              if name not in read_names(tree)]
    assert not unused


def autodiff_calls(tree):
    """Names of the autodiff functions that the module's calls reach."""
    aliases, direct = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "opcert"):
            aliases |= {a.asname or a.name for a in node.names if a.name == "autodiff"}
        elif isinstance(node, ast.ImportFrom) and node.module in ("autodiff", "opcert.autodiff"):
            direct.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name == "opcert.autodiff" and a.asname}
    called = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
                and fn.value.id in aliases):
            called.add(fn.attr)
        elif isinstance(fn, ast.Name) and fn.id in direct:
            called.add(direct[fn.id])
    return called


def test_every_public_autodiff_function_has_a_caller_in_src():
    public = {node.name for node in MODULES["autodiff"].body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = set().union(*(autodiff_calls(tree) for name, tree in MODULES.items()
                           if name != "autodiff"))
    assert "backward" in public and "vsn" in public
    assert sorted(public - called) == []


def test_every_run_config_field_is_read_in_cli():
    cli = MODULES["cli"]
    run_config = next(node for node in cli.body
                      if isinstance(node, ast.ClassDef) and node.name == "RunConfig")
    keys = {node.target.id for node in run_config.body if isinstance(node, ast.AnnAssign)}
    read = {node.attr for node in ast.walk(cli)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "run"}
    assert "seed" in keys and "experiment" in keys
    assert sorted(keys - read) == []
