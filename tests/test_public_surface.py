"""Every public module-level function and class of the library serves a result.

A public name counts as used when the library or the benchmark refers to it
outside its own definition: as a name, an attribute or an imported name, or,
in ``perfbench/``, as a string constant (the tracer names the special-function
kernels in strings).  The tests do not count: a function only they call
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
    "partial_trace_first_site": "item 1: the three-site density operator as output",
    "partial_trace_last_site": "item 1: the three-site density operator as output",
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


def _unreferenced_public_names(library_dir: Path, bench_dir: Path) -> set[str]:
    library = sorted(library_dir.glob("*.py"))
    bench = [p for p in sorted(bench_dir.glob("*.py"))
             if not p.name.startswith("test_")]
    defined, referenced = set(), set()
    for path in library + bench:
        with_strings = path in bench
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            refs = _references(stmt, with_strings)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                # a name used only inside its own definition is not used
                refs.discard(stmt.name)
                if path in library and not stmt.name.startswith("_"):
                    defined.add(stmt.name)
            referenced |= refs
    return defined - referenced


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


@pytest.mark.parametrize(
    "files, flagged",
    [
        # only the benchmark's strings name functions: its tracer does
        ({"src/a.py": _F, "bench/run.py": "KERNELS = ['f']\n"}, set()),
        ({"src/a.py": _F, "src/b.py": "KERNELS = ['f']\n"}, {"f"}),
        # a call from its own body is no use
        ({"src/a.py": "def f(n):\n    return f(n - 1) if n else 0\n"}, {"f"}),
        # the benchmark's own tests count no more than the library's
        ({"src/a.py": _F, "bench/test_run.py": "import a\n\na.f()\n"}, {"f"}),
    ],
    ids=["bench-string", "library-string", "own-body-only", "bench-test-file"],
)
def test_scan_reference_rules(tmp_path, files, flagged):
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
    (tmp_path / "bench").mkdir(exist_ok=True)
    assert _unreferenced_public_names(tmp_path / "src", tmp_path / "bench") == flagged
