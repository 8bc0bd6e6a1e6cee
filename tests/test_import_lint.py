"""Source lint mirrored by CI: eager products stay out of production.

Two invariants (contract 2 of ARCHITECTURE.md):

* no production module outside :mod:`repro.afsa` may name the eager
  product build ``k_intersect`` — its sanctioned users are the ``afsa``
  package itself (its definition in :mod:`repro.afsa.kernel`, the
  object-level :mod:`repro.afsa.product` wrapper, and the documented
  :mod:`repro.afsa.oracle`) and the test suite;
* :mod:`repro.core` — the evolution path — uses neither object-level
  wrapper, :func:`repro.afsa.product.intersect` nor
  :func:`repro.afsa.difference.difference`: Def. 5/6 verdicts are lazy
  emptiness questions on kernels, and the propagation pipeline chains
  kernel operators.

CI enforces both with a grep so a failure is visible even when pytest
is skipped; this module pins them for local runs, names the offender,
and proves the checker catches a re-introduced use.
"""

import ast
import re
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
_PATTERN = re.compile(r"\bk_intersect\b")

#: Object-level wrappers (and their modules) banned from repro.core.
_EAGER_NAMES = {"intersect", "difference"}
_EAGER_MODULES = {"repro.afsa.product", "repro.afsa.difference"}


def eager_wrapper_uses(source: str) -> list[tuple[int, str]]:
    """Return ``(line, what)`` for every use of an object-level eager
    product/difference wrapper in *source*: a call of a bare
    ``intersect``/``difference`` name, or an import of the wrappers or
    their modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _EAGER_NAMES:
                found.append((node.lineno, f"call {func.id}()"))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if module in _EAGER_MODULES or (
                module == "repro.afsa"
                and names & (_EAGER_NAMES | {"product"})
            ):
                found.append((node.lineno, f"import from {module}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _EAGER_MODULES:
                    found.append((node.lineno, f"import {alias.name}"))
    return sorted(found)


def test_k_intersect_is_confined_to_the_afsa_package():
    offenders = []
    for path in sorted(_SRC.rglob("*.py")):
        relative = path.relative_to(_SRC)
        if relative.parts[0] == "afsa":
            continue
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if _PATTERN.search(line):
                offenders.append(f"repro/{relative}:{lineno}: {line.strip()}")
    assert not offenders, (
        "eager product build leaked outside repro.afsa "
        "(use repro.afsa.witness / repro.afsa.lazy instead):\n"
        + "\n".join(offenders)
    )


def test_object_level_eager_wrappers_stay_out_of_core():
    offenders = []
    for path in sorted((_SRC / "core").rglob("*.py")):
        relative = path.relative_to(_SRC)
        for lineno, what in eager_wrapper_uses(
            path.read_text(encoding="utf-8")
        ):
            offenders.append(f"repro/{relative}:{lineno}: {what}")
    assert not offenders, (
        "object-level eager product/difference on the evolution path "
        "(decide with repro.afsa.lazy / k_language_included, chain "
        "kernel operators instead):\n" + "\n".join(offenders)
    )


def test_checker_reports_a_reintroduced_intersect():
    assert eager_wrapper_uses("is_empty(intersect(a, b))\n") == [
        (1, "call intersect()")
    ]


def test_checker_reports_wrapper_imports_and_ignores_kernels():
    source = (
        "from repro.afsa.difference import difference\n"
        "from repro.afsa import (\n    union,\n    intersect,\n)\n"
        "import repro.afsa.product\n"
        "k_difference(a, b)\n"
        "alphabet.difference(other)\n"
    )
    assert eager_wrapper_uses(source) == [
        (1, "import from repro.afsa.difference"),
        (2, "import from repro.afsa"),
        (6, "import repro.afsa.product"),
    ]
