"""Production code never imports the reference simulators.

:mod:`repro.sim.legacy` holds the seed's sweeps and the per-gate worklist
loop, kept only as the parity references the walk kernel is checked
against.  Inside the package only the fuzz oracles may reach them; every
other module must settle through :mod:`repro.sim.engine`.
"""

import ast
from pathlib import Path

import repro

LEGACY = "repro.sim.legacy"
PACKAGE = Path(repro.__file__).resolve().parent
ALLOWED = {"repro/fuzz/oracles.py"}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(PACKAGE.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_modules(path: Path):
    """Every module an import statement in ``path`` names, with relative
    imports resolved and ``from pkg import mod`` read as ``pkg.mod``."""
    package = _module_name(path)
    if path.name != "__init__.py":
        package = package.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


def _importers():
    return {
        path.relative_to(PACKAGE.parent).as_posix()
        for path in sorted(PACKAGE.rglob("*.py"))
        if any(
            name == LEGACY or name.startswith(LEGACY + ".")
            for name in _imported_modules(path)
        )
    }


def test_only_the_fuzz_oracles_import_sim_legacy():
    # Equality, not a subset: finding the sanctioned import shows the
    # scan itself works.
    assert _importers() == ALLOWED
