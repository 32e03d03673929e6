"""The package's public names all resolve, and each one is used."""

import ast
import re
from pathlib import Path

import corrset

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in corrset.__all__ if not hasattr(corrset, name)]
    assert not missing, missing
    assert len(set(corrset.__all__)) == len(corrset.__all__)


def test_star_import():
    namespace = {}
    exec("from corrset import *", namespace)
    assert set(corrset.__all__) <= set(namespace)


def _names_read(path: Path) -> set[str]:
    """Names the code of `path` reads, imports or looks up as attributes;
    a definition alone is none of these."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_exported_name_is_used():
    # a public name only its own tests call is not part of the package
    package = ROOT / "src" / "corrset"
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    sources.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*map(_names_read, sources))
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    unused = [name for name in corrset.__all__ if name not in used]
    assert not unused, unused


def test_package_reads_no_environment_variable():
    # a command's output depends on its flags and seed alone
    reads = {"environ", "environb", "getenv", "getenvb"}
    found = {
        path.name: sorted(_names_read(path) & reads)
        for path in (ROOT / "src" / "corrset").glob("*.py")
    }
    assert {name: names for name, names in found.items() if names} == {}


def test_package_uses_no_cached_property():
    # on Python 3.11 a cached_property's first read takes a lock, about 1 us
    # on the construct path, which reads each such value once per op
    found = [
        path.name
        for path in (ROOT / "src" / "corrset").glob("*.py")
        if "cached_property" in _names_read(path)
    ]
    assert found == []


def _builds_vectors_unchecked(path: Path) -> bool:
    """Whether the code of `path` calls `_unchecked(CorrelationVector, ...)`."""
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_unchecked"
        and node.args
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "CorrelationVector"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    )


def test_only_corrvec_admits_a_vector():
    # one rule admits a CorrelationVector, `validate`'s; every other module
    # goes through it or through the constructor, which runs it
    found = [
        path.name
        for path in (ROOT / "src" / "corrset").glob("*.py")
        if path.name != "corrvec.py"
        and ("_COMPONENT_NAMES" in _names_read(path) or _builds_vectors_unchecked(path))
    ]
    assert found == []
