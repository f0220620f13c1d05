"""The benchmark drives and wraps library attributes by name.

``perfbench/tracing.py`` replaces each ``(owner, attribute)`` from
``targets()`` with a timing wrapper, and ``perfbench/workloads.py`` calls
the library through module attributes (``families.gamma_family``,
``el.tate_h_minus1``).  A rename in the library would only surface when the
benchmark runs; these tests fail first.  They import the tracing module and
parse the benchmark's sources read-only, changing nothing under
``perfbench/``.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_every_traced_attribute_is_defined_on_its_owner(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracing.targets()
        if attr not in vars(owner)
    ]
    assert not missing


def _library_reads(tree: ast.Module) -> set[str]:
    """Every dotted read ``module.attr[.attr ...]`` rooted at a galpairs module
    imported by ``from galpairs import ...`` or bound to a local alias of one."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "galpairs":
            modules.update((a.asname or a.name, a.name) for a in node.names)
    for node in ast.walk(tree):  # aliases: ``el = exact_linalg``, ``fam, el = families, exact_linalg``
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = [(target, value)]
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = zip(target.elts, value.elts)
            for t, v in pairs:
                if isinstance(t, ast.Name) and isinstance(v, ast.Name) and v.id in modules:
                    modules[t.id] = modules[v.id]
    reads = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            reads.add(".".join([modules[node.id], *reversed(chain)]))
    return reads


def test_every_library_attribute_the_benchmark_reads_exists():
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        reads |= _library_reads(ast.parse(path.read_text(encoding="utf-8")))
    assert {r.split(".")[0] for r in reads} >= {"families", "exact_linalg", "linalg", "root_data"}
    missing = []
    for read in sorted(reads):
        module, *attrs = read.split(".")
        owner = importlib.import_module(f"galpairs.{module}")
        for attr in attrs:
            if not hasattr(owner, attr):
                missing.append(read)
                break
            owner = getattr(owner, attr)
    assert not missing


def test_library_reads_follow_aliases_and_chains():
    tree = ast.parse(
        "from galpairs import families, exact_linalg\n"
        "el = exact_linalg\n"
        "fam, x = families, 1\n"
        "el.tate_h_minus1(fam.OrthogonalSet.special(s, p).points, x.y)\n"
    )
    assert _library_reads(tree) == {
        "exact_linalg.tate_h_minus1",
        "families.OrthogonalSet",
        "families.OrthogonalSet.special",
    }
