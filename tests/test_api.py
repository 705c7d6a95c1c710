"""The public surface: no public function or class that only tests use, and
no reader of the Python graph views inside the package."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_definition_has_a_caller_outside_the_tests():
    files = sorted((ROOT / "src" / "pointgraphs").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")
    )
    defined, referenced = {}, set()
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.relative_to(ROOT).as_posix()
        # names and attributes only: a re-export in an import list is no caller
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = {name: where for name, where in defined.items() if name not in referenced}
    assert not unused, unused


def test_every_imported_name_is_used_in_its_module():
    unused = {}
    for path in sorted((ROOT / "src" / "pointgraphs").glob("*.py")):
        if path.name == "__init__.py":  # its imports are the re-exports
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert not unused, unused


def test_the_package_reads_no_python_view():
    # the vertices and edges views serve readers outside the package; inside
    # it, code reads the label, latent and ends columns
    found = []
    for path in sorted((ROOT / "src" / "pointgraphs").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno} .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("vertices", "edges")
        ]
    assert not found, found


BLAS_NAMES = {"@", "linalg", "dot", "matmul", "einsum", "tensordot", "inner", "vdot"}


def test_the_package_calls_no_blas_or_lapack():
    # Artifact bits must not depend on the BLAS kernel the CPU selects, so
    # src/ uses no numpy.linalg, no @ and no numpy product that may reach BLAS.
    found = []
    for path in sorted((ROOT / "src" / "pointgraphs").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                names = ["@"]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Import):
                names = [part for a in node.names for part in a.name.split(".")]
            elif isinstance(node, ast.ImportFrom):
                names = (node.module or "").split(".") + [a.name for a in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in BLAS_NAMES]
    assert not found, found
