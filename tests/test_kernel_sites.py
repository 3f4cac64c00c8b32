"""The inventory of calls that run a BLAS or LAPACK kernel.

numpy hands these calls to OpenBLAS, which picks its kernels for the CPU when
it loads, and the kernels add in different orders: a report built through
them can differ by an ulp from one CPU to another.  The scan below finds every
such site under ``src/``, keyed by module and enclosing function, and pins
them to today's list, so a new site fails here and a removed one must leave
the list too.
"""

import ast
from pathlib import Path

import finslercheck

KERNELS = {"vecdot", "dot", "matmul", "tensordot", "polyfit"}

# module -> the functions ("Class.method" inside a class) that call a kernel today
ALLOWED = {
    "sampling": {"_accepted", "sample_domain"},
    "metrics": {"invariant_rows", "AmbientBundle.spray", "positive_definite", "cholesky_rows"},
    "geodesics": {"integrate_geodesics", "safe_horizon", "straightness_deviation"},
    "checks": {"check_det_g"},
    "family": {"_CompiledFamily.precheck"},
}


def kernel_sites(source: str) -> set:
    """(enclosing function, what it calls, line) of each kernel site in ``source``:
    a name or attribute in ``KERNELS``, any ``linalg`` attribute or import, the
    ``@`` operator and an ``optimize=`` keyword.  Module level is ""."""
    sites = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        what = None
        if isinstance(node, ast.Attribute) and (node.attr in KERNELS or node.attr == "linalg"):
            what = node.attr
        elif isinstance(node, ast.Name) and node.id in KERNELS:
            what = node.id
        elif isinstance(node, ast.ImportFrom) and (
            "linalg" in (node.module or "") or KERNELS & {a.name for a in node.names}
        ):
            what = f"import from {node.module}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            what = "@"
        elif isinstance(node, ast.keyword) and node.arg == "optimize":
            what = "optimize="
        if what is not None:
            sites.add((".".join(scope), what, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return sites


def test_the_scan_finds_each_kind_of_site():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import solve\n"
        "def f(a, b):\n"
        "    return np.vecdot(a, b) + a @ b + a.dot(b) + np.linalg.det(a)\n"
        "class C:\n"
        "    def g(self, a):\n"
        "        return np.einsum('ij,j->i', a, a, optimize=True), np.polyfit(a, a, 1)\n"
    )
    kinds = {(scope, what) for scope, what, _ in kernel_sites(source)}
    assert kinds == {
        ("", "import from numpy.linalg"),
        ("f", "vecdot"),
        ("f", "@"),
        ("f", "dot"),
        ("f", "linalg"),
        ("C.g", "optimize="),
        ("C.g", "polyfit"),
    }


def test_kernel_calls_stay_at_their_known_sites():
    found = {}
    for path in sorted(Path(finslercheck.__file__).parent.glob("*.py")):
        for scope, what, line in kernel_sites(path.read_text()):
            found.setdefault(path.stem, {}).setdefault(scope, []).append(f"{what} (line {line})")
    new = {
        f"{module}.{scope}": sorted(calls)
        for module, scopes in found.items()
        for scope, calls in scopes.items()
        if scope not in ALLOWED.get(module, ())
    }
    assert not new, f"a call that runs a BLAS/LAPACK kernel outside the known sites: {new}"
    gone = {f"{m}.{s}" for m, scopes in ALLOWED.items() for s in scopes if s not in found.get(m, {})}
    assert not gone, f"no kernel call left here; take it off ALLOWED: {sorted(gone)}"
