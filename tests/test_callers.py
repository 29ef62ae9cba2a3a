"""Every top-level function and class of src/qwell, and every method that
is not a dunder, is referenced by the package or by the benchmark outside
its own definition, so no dead wrapper stays in src/.  References are names,
attributes and imports; among string constants only those of the tracer's
LAYERS count, because it patches its targets by name."""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "qwell").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# test-only references kept in src/ on purpose: name -> why it stays
ORACLES = {
    "series_oracle": "the eigenseries that cross-validates the q-translate formula",
    "special_time_identity_residual": "checks the closed forms at t = T/2, T/4 and T/8",
    "count_local_maxima": "the sampled peak count that checks peak_count",
    "dist_nearest_int": "the distance to the nearest integer the case laws are stated in",
}


def references(node) -> Counter:
    """Counts of ("attribute", name) for attributes and the strings of a
    LAYERS literal, and of ("name", name) for loaded names and imports."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs["name", sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs["attribute", sub.attr] += 1
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            refs.update(("name", alias.name.rpartition(".")[2]) for alias in sub.names)
        elif (isinstance(sub, ast.Assign) and len(sub.targets) == 1
              and getattr(sub.targets[0], "id", None) == "LAYERS"):
            refs.update(("attribute", const.value.rpartition(":")[2])
                        for const in ast.walk(sub.value)
                        if isinstance(const, ast.Constant) and isinstance(const.value, str))
    return refs


def definitions(tree):
    """(name, node, kinds) of each top-level function and class, which a
    name, an import or an attribute reaches, and of each method that is not
    a dunder, which only an attribute reaches (a local variable of the same
    name is no caller)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, ("name", "attribute")
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not (
                        method.name.startswith("__") and method.name.endswith("__")):
                    yield method.name, method, ("attribute",)


def test_every_name_in_src_has_a_caller():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SRC + BENCH}
    used = sum((references(tree) for tree in trees.values()), Counter())
    uncalled = set()
    for path in SRC:
        for name, node, kinds in definitions(trees[path]):
            own = references(node)
            if all(used[kind, name] <= own[kind, name] for kind in kinds):
                uncalled.add(name)
    assert uncalled == set(ORACLES), (
        f"no caller: {sorted(uncalled - set(ORACLES))}; "
        f"called after all, so not an oracle: {sorted(set(ORACLES) - uncalled)}")
