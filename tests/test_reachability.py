"""Every ``src/repro`` module must be reachable from a front door.

The front doors are the CLI (``repro.__main__``), the ``repro.sweep``
API and the scripts under ``perfbench/``, ``examples/`` and
``benchmarks/``.  This test walks the static ``ast`` import graph from
them and fails on any module that only ``tests/`` reaches (or nothing
reaches): code no user path runs is code to delete, unless
:data:`TEST_ONLY` says why it stays.  The walked files make no
``importlib`` / ``__import__`` calls, so the static walk sees every
import.

``from pkg import name`` resolves through ``pkg/__init__.py`` to the
module that defines ``name``; reaching a package ``__init__`` does not
by itself reach the submodules it re-exports.  Without that rule the
re-exports in ``repro.analysis`` and ``repro.monitor`` would make every
module reachable.
"""

import ast
import pathlib
from typing import Dict, Iterable, List, Optional, Set

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Modules reached from tests alone, each kept on purpose.
TEST_ONLY = {
    # Reference checkers the engine and scenario tests compare against.
    "repro.monitor.invariants": "event-level invariant monitors (reference checker)",
    "repro.monitor.fast": "fast-engine aggregate and sampled-lane checks (reference checker)",
    # Executable lemmas of the lower-bound proofs.
    "repro.lowerbound.covertree": "cover trees of Lemmas 5.4-5.8 (executable lemma)",
    "repro.lowerbound.terminating": "terminating components of Defs 3.4/3.5 (executable lemma)",
    # Statistics the tests run; the home of the planned stats helpers.
    "repro.analysis.stats": "summaries and success rates used by the statistical tests",
}


class ImportGraph:
    """Static import graph of one source root (a directory of packages)."""

    def __init__(self, src: pathlib.Path) -> None:
        self.modules: Dict[str, pathlib.Path] = {}
        for path in src.rglob("*.py"):
            parts = path.relative_to(src).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            self.modules[".".join(parts)] = path
        self.reached: Set[str] = set()
        self._expanded: Set[str] = set()

    def is_package(self, module: str) -> bool:
        return self.modules[module].name == "__init__.py"

    @staticmethod
    def imports(path: pathlib.Path):
        """``(module, name, bound)`` per imported name of one file.

        ``name`` is the imported attribute (None for ``import module``)
        and ``bound`` the name the statement binds.
        """
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name, None, alias.asname or alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                # The tree uses absolute imports only; a relative one
                # resolves to no module, so its target gets flagged.
                for alias in node.names:
                    yield node.module or "", alias.name, alias.asname or alias.name

    def follow(self, path: pathlib.Path) -> None:
        """Reach every import of one file."""
        for module, name, _ in self.imports(path):
            self.reach(module, name)

    def mark_parents(self, module: str) -> None:
        """Reach ``module``'s packages: they run, their imports don't count."""
        parts = module.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix in self.modules:
                self.reached.add(prefix)

    def expand(self, module: str) -> None:
        """Reach ``module``, its parent packages and every import it makes."""
        self.mark_parents(module)
        if module not in self._expanded:
            self._expanded.add(module)
            self.follow(self.modules[module])

    def reach(self, module: str, name: Optional[str] = None) -> None:
        self.mark_parents(module)
        if module not in self.modules:
            return  # stdlib / third party
        if not self.is_package(module):
            self.expand(module)
        elif name is not None and f"{module}.{name}" in self.modules:
            self.reach(f"{module}.{name}")
        elif name is not None:
            # Reach the module that binds ``name`` in the package's __init__.
            for source, original, bound in self.imports(self.modules[module]):
                if bound == name:
                    self.reach(source, original)


def scripts_under(*dirs: pathlib.Path) -> List[pathlib.Path]:
    return sorted(
        path for d in dirs for path in d.rglob("*.py") if "tests" not in path.parts
    )


def unreached_modules(
    src: pathlib.Path, roots: Iterable[str], scripts: Iterable[pathlib.Path]
) -> Set[str]:
    """Modules under ``src`` that no root module or script reaches."""
    graph = ImportGraph(src)
    for root in roots:
        graph.expand(root)
    for script in scripts:
        graph.follow(script)
    return set(graph.modules) - graph.reached


def repro_unreached() -> Set[str]:
    return unreached_modules(
        ROOT / "src",
        ("repro.__main__", "repro.sweep"),
        scripts_under(ROOT / "perfbench", ROOT / "examples", ROOT / "benchmarks"),
    )


class TestReachability:
    def test_no_module_is_reached_from_tests_alone(self):
        unexplained = repro_unreached() - set(TEST_ONLY)
        assert not unexplained, (
            f"modules no front door reaches: {sorted(unexplained)}; delete them, "
            "or add each to TEST_ONLY with its reason"
        )

    def test_allowlist_is_current(self):
        stale = set(TEST_ONLY) - repro_unreached()
        assert not stale, f"TEST_ONLY entries a front door now reaches: {sorted(stale)}"

    def test_allowlisted_modules_are_tested(self):
        graph = ImportGraph(ROOT / "src")
        for path in sorted((ROOT / "tests").glob("*.py")):
            graph.follow(path)
        assert set(TEST_ONLY) <= graph.reached

    def test_the_walk_is_static(self):
        # The walk is complete only while nothing imports by name at run time.
        walked = list((ROOT / "src").rglob("*.py")) + scripts_under(
            ROOT / "perfbench", ROOT / "examples", ROOT / "benchmarks"
        )
        for path in walked:
            for node in ast.walk(ast.parse(path.read_text())):
                assert not (isinstance(node, ast.Name) and node.id == "__import__"), path
            modules = {module for module, _, _ in ImportGraph.imports(path)}
            assert not any(m.split(".")[0] == "importlib" for m in modules), path


class TestWalkerSelfCheck:
    """On a tiny package the walker neither passes nor flags everything."""

    def test_flags_test_only_module_and_follows_reexports(self, tmp_path):
        pkg = tmp_path / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text(
            "from pkg.reexported import api\nfrom pkg.testonly import check\n"
        )
        (pkg / "reexported.py").write_text("from pkg.leaf import value\ndef api(): pass\n")
        (pkg / "leaf.py").write_text("value = 1\n")
        (pkg / "testonly.py").write_text("def check(): pass\n")
        app = tmp_path / "app.py"
        app.write_text("import os\nfrom pkg import api\n")
        test_file = tmp_path / "test_pkg.py"
        test_file.write_text("from pkg.testonly import check\n")

        flagged = unreached_modules(tmp_path / "src", (), [app])
        assert flagged == {"pkg.testonly"}
        assert unreached_modules(tmp_path / "src", (), [app, test_file]) == set()

    @staticmethod
    def package(tmp_path, files):
        src = tmp_path / "src"
        for name, text in files.items():
            path = src / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return src

    def test_package_init_alone_reaches_no_submodule(self, tmp_path):
        src = self.package(
            tmp_path,
            {"pkg/__init__.py": "from pkg.a import f\n", "pkg/a.py": "def f(): pass\n"},
        )
        (tmp_path / "app.py").write_text("import pkg\n")
        assert unreached_modules(src, (), [tmp_path / "app.py"]) == {"pkg.a"}

    def test_aliased_reexport_resolves_to_its_source(self, tmp_path):
        src = self.package(
            tmp_path,
            {
                "pkg/__init__.py": "from pkg.a import f as g\nfrom pkg.b import h\n",
                "pkg/a.py": "def f(): pass\n",
                "pkg/b.py": "def h(): pass\n",
            },
        )
        (tmp_path / "app.py").write_text("from pkg import g\n")
        assert unreached_modules(src, (), [tmp_path / "app.py"]) == {"pkg.b"}

    def test_dotted_import_reaches_module_and_parents(self, tmp_path):
        src = self.package(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/sub/__init__.py": "",
                "pkg/sub/mod.py": "",
                "pkg/other.py": "",
            },
        )
        (tmp_path / "app.py").write_text("import pkg.sub.mod\n")
        assert unreached_modules(src, (), [tmp_path / "app.py"]) == {"pkg.other"}

    def test_from_package_import_submodule(self, tmp_path):
        src = self.package(
            tmp_path,
            {"pkg/__init__.py": "", "pkg/a.py": "", "pkg/b.py": ""},
        )
        (tmp_path / "app.py").write_text("from pkg import a\n")
        assert unreached_modules(src, (), [tmp_path / "app.py"]) == {"pkg.b"}

    def test_import_cycles_terminate(self, tmp_path):
        src = self.package(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "from pkg.b import g\ndef f(): pass\n",
                "pkg/b.py": "from pkg.a import f\ndef g(): pass\n",
            },
        )
        assert unreached_modules(src, ("pkg.a",), []) == set()

    def test_relative_import_is_not_followed(self, tmp_path):
        # The tree imports absolutely; a relative import reaches nothing,
        # so its target is flagged rather than silently passed.
        src = self.package(
            tmp_path,
            {"pkg/__init__.py": "", "pkg/a.py": "from .b import g\n", "pkg/b.py": ""},
        )
        assert unreached_modules(src, ("pkg.a",), []) == {"pkg.b"}
