"""Every public function, class, method and constant of the library serves a result.

A public module-level name (a function, a class or an assigned constant)
counts as used when the library or the benchmark
refers to it outside its own definition: as a name, an attribute or an
imported name, or, in ``perfbench/``, as a string constant (the tracer names
the special-function kernels in strings).  A public method of a library class
counts as used only through an attribute (``solver.value``) outside its own
body: a bare name of the same spelling is another object, as ``math.comb`` is
beside a method ``comb``.  The tests do not count: a function only they call
belongs in the tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: public names without a caller yet, each waiting on the ROADMAP item that
#: decides whether it becomes an output or leaves the library
PENDING = {
    "zeta_expansion": "item 4: two-site emits it, or it becomes a test oracle",
    "density_matrix_three_site": "item 1: the three-site density operator as output",
}


def _references(node: ast.AST, with_strings: bool) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif with_strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def _defined_names(stmt: ast.stmt) -> set[str]:
    """The module-level names a statement defines: a function, a class or the
    targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)}


def _attributes(nodes) -> set[str]:
    return {sub.attr for node in nodes for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute)}


def _unreferenced_public_names(library_dir: Path, bench_dir: Path) -> set[str]:
    """Unused public module-level names, and unused public methods as ``Class.name``."""
    library = sorted(library_dir.glob("*.py"))
    bench = [p for p in sorted(bench_dir.glob("*.py"))
             if not p.name.startswith("test_")]
    defined, referenced = set(), set()
    methods, attributes = set(), set()
    for path in library + bench:
        with_strings = path in bench
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            refs = _references(stmt, with_strings)
            # a name used only inside its own definition is not used
            refs -= _defined_names(stmt)
            if path in library:
                defined |= {n for n in _defined_names(stmt) if not n.startswith("_")}
            referenced |= refs
            if not isinstance(stmt, ast.ClassDef):
                attributes |= _attributes([stmt])
                continue
            attributes |= _attributes(stmt.bases + stmt.keywords + stmt.decorator_list)
            for item in stmt.body:
                found = _attributes([item])
                if isinstance(item, ast.FunctionDef):
                    found.discard(item.name)
                    if path in library and not item.name.startswith("_"):
                        methods.add((stmt.name, item.name))
                attributes |= found
    unused_methods = {f"{cls}.{name}" for cls, name in methods if name not in attributes}
    return (defined - referenced) | unused_methods


def test_every_public_name_is_used_or_pending():
    unused = _unreferenced_public_names(ROOT / "src" / "su3chain", ROOT / "perfbench")
    assert not unused - PENDING.keys(), (
        f"public names that no result uses: {sorted(unused - PENDING.keys())}; "
        "call them from the library or move them into the tests"
    )
    # a pending name that gained a caller, or left, is taken off the list
    assert not PENDING.keys() - unused, (
        f"no longer pending: {sorted(PENDING.keys() - unused)}"
    )


_F = "def f():\n    return 0\n"
_C = "class C:\n    def m(self):\n        {}\n\n\n"


@pytest.mark.parametrize(
    "files, flagged",
    [
        # only the benchmark's strings name functions: its tracer does
        ({"src/a.py": _F, "bench/run.py": "KERNELS = ['f']\n"}, set()),
        ({"src/a.py": _F, "src/b.py": "KERNELS = ['f']\n"}, {"f", "KERNELS"}),
        # a call from its own body is no use
        ({"src/a.py": "def f(n):\n    return f(n - 1) if n else 0\n"}, {"f"}),
        # the benchmark's own tests count no more than the library's
        ({"src/a.py": _F, "bench/test_run.py": "import a\n\na.f()\n"}, {"f"}),
        # a method is used through an attribute, and only so
        ({"src/a.py": _C.format("return 0") + "C().m()\n"}, set()),
        ({"src/a.py": "from math import m\n\n" + _C.format("return m(1)") + "C()\n"},
         {"C.m"}),
        ({"src/a.py": _C.format("return self.m()") + "C()\n"}, {"C.m"}),
        # a module-level constant is a public name too, used only by reference
        ({"src/a.py": "X = 1\nY: int = 2\n_Z = Y\n"}, {"X"}),
    ],
    ids=["bench-string", "library-string", "own-body-only", "bench-test-file",
         "method-attribute", "method-bare-name", "method-own-body-only", "constant"],
)
def test_scan_reference_rules(tmp_path, files, flagged):
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
    (tmp_path / "bench").mkdir(exist_ok=True)
    assert _unreferenced_public_names(tmp_path / "src", tmp_path / "bench") == flagged
