"""Whole-package instrumentation behind an import hook.

The hand-built subjects are single source files executed into one
namespace.  Real packages are many modules importing each other; this
loader generalises :func:`repro.instrument.tracer.instrument_source` to
that shape while keeping every downstream contract intact:

* **One shared table.**  Every module is transformed up front, in a
  deterministic module order, into a single
  :class:`~repro.core.predicates.PredicateTable`; site indices therefore
  never depend on runtime import laziness, and two builds of the same
  package produce bit-identical tables (and hence shard SHAs).
* **Qualified site names.**  Each module's sites carry a
  ``"<module>:"`` function prefix so same-named functions in different
  modules stay distinct, and ground-truth extraction
  (:func:`repro.core.truth.bug_sites_from_source` with the same prefix)
  aligns exactly.
* **A temporary meta-path finder** serves the precompiled instrumented
  code objects during package execution, injecting the shared runtime
  (``_cbi``) and the ``record_bug`` side channel into every module's
  globals.  ``sys.modules`` entries the package would shadow are saved
  and restored, and the finder is removed before the call returns --
  nothing leaks into the host interpreter.

The result duck-types :class:`~repro.instrument.tracer.InstrumentedProgram`
(it *is* one, plus the module map), so the runner, the store, the serve
daemon, and the analysis engine all work unchanged.
"""

from __future__ import annotations

import importlib
import importlib.abc
import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.predicates import PredicateTable
from repro.instrument.runtime import Runtime
from repro.instrument.sampling import SamplingPlan
from repro.instrument.tracer import InstrumentedProgram
from repro.instrument.transform import RUNTIME_NAME, Instrumenter
from repro.subjects.base import record_bug


def program_filename(package: str) -> str:
    """The pseudo-filename prefix tagging a factory program's frames."""
    return f"<factory:{package}>"


def module_filename(package: str, module: str) -> str:
    """The pseudo-filename one module compiles under (shares the prefix)."""
    return f"<factory:{package}:{module}>"


def function_prefix(module: str) -> str:
    """The site-function prefix qualifying one module's sites."""
    return f"{module}:"


@dataclass
class PackageProgram(InstrumentedProgram):
    """An instrumented multi-module package.

    ``namespace`` is the root module's globals, so ``func(name)`` finds
    the package's entry points exactly as for single-module programs.
    ``modules`` maps every instrumented module name to its executed
    module object.
    """

    modules: Dict[str, object] = field(default_factory=dict)


class _FactoryLoader(importlib.abc.Loader):
    """Serves one precompiled instrumented module."""

    def __init__(self, code, inject: Dict[str, object]) -> None:
        self._code = code
        self._inject = inject

    def create_module(self, spec):  # noqa: D102 - default semantics
        return None

    def exec_module(self, module) -> None:  # noqa: D102
        module.__dict__.update(self._inject)
        exec(self._code, module.__dict__)  # noqa: S102 - running the subject


class _FactoryFinder(importlib.abc.MetaPathFinder):
    """Resolves the package's module names to the instrumented loaders."""

    def __init__(self, loaders: Dict[str, _FactoryLoader], packages) -> None:
        self._loaders = loaders
        self._packages = packages

    def find_spec(self, fullname, path=None, target=None):  # noqa: D102
        loader = self._loaders.get(fullname)
        if loader is None:
            return None
        return importlib.util.spec_from_loader(
            fullname, loader, is_package=fullname in self._packages
        )


def package_modules(package: str) -> Dict[str, str]:
    """Collect ``{module name: source text}`` for an importable package.

    Walks an installed package's pure-python modules (the package root
    first, submodules in sorted name order -- a deterministic
    instrumentation order).  A plain module maps to itself.  Modules
    without python source (extension modules) are skipped.
    """
    spec = importlib.util.find_spec(package)
    if spec is None:
        raise ModuleNotFoundError(f"no importable package {package!r}")
    sources: Dict[str, str] = {}

    def read(origin: str) -> str:
        with open(origin, encoding="utf-8") as fh:
            return fh.read()

    if spec.origin is not None and spec.origin.endswith(".py"):
        sources[package] = read(spec.origin)
    if spec.submodule_search_locations:
        import pkgutil

        names = sorted(
            info.name
            for info in pkgutil.iter_modules(spec.submodule_search_locations)
        )
        for short in names:
            sub = importlib.util.find_spec(f"{package}.{short}")
            if sub is not None and sub.origin and sub.origin.endswith(".py"):
                sources[f"{package}.{short}"] = read(sub.origin)
    if not sources:
        raise ValueError(f"package {package!r} has no pure-python modules")
    return sources


def _exec_under_finder(
    package: str,
    loaders: Dict[str, _FactoryLoader],
    packages,
) -> Dict[str, object]:
    """Import every instrumented module behind a temporary finder."""
    shadowed = {
        name: sys.modules.pop(name) for name in list(loaders) if name in sys.modules
    }
    finder = _FactoryFinder(loaders, packages)
    sys.meta_path.insert(0, finder)
    try:
        modules: Dict[str, object] = {}
        # Root first (its own imports pull submodules in code order),
        # then every remaining module explicitly: all module bodies have
        # executed by the time the program is handed out, so lazily
        # imported modules cannot skew later runs.
        for name in [package] + [n for n in loaders if n != package]:
            modules[name] = importlib.import_module(name)
        return modules
    finally:
        sys.meta_path.remove(finder)
        for name in loaders:
            sys.modules.pop(name, None)
        sys.modules.update(shadowed)


def instrument_package(
    package: str,
    modules: Optional[Dict[str, str]] = None,
    table: Optional[PredicateTable] = None,
) -> PackageProgram:
    """Instrument a whole package into one :class:`PackageProgram`.

    Args:
        package: Root module name; also the subject's frame-filename tag.
        modules: ``{module name: source}`` in instrumentation order.
            Defaults to :func:`package_modules` on the installed package.
            Callers injecting mutated sources pass this explicitly.
        table: Optional existing predicate table to extend.

    Returns:
        A :class:`PackageProgram` whose namespace is the root module's
        globals and whose table spans every module.
    """
    if modules is None:
        modules = package_modules(package)
    if package not in modules:
        raise ValueError(f"module map must contain the root module {package!r}")
    table = table if table is not None else PredicateTable()
    codes: Dict[str, object] = {}
    texts: Dict[str, str] = {}
    for name, source in modules.items():
        inst = Instrumenter(table=table, function_prefix=function_prefix(name))
        filename = module_filename(package, name)
        tree = inst.instrument(source, filename=filename)
        codes[name] = compile(tree, filename, "exec")
        try:
            import ast as _ast

            texts[name] = _ast.unparse(tree)
        except Exception:  # pragma: no cover - unparse failure fallback
            texts[name] = source

    runtime = Runtime(table)
    runtime.refresh()
    # Arm a throwaway full-sampling run so module-level instrumented code
    # can execute during import (mirrors instrument_source).
    runtime.begin_run(SamplingPlan.full(), seed=0)

    packages = {
        name
        for name in codes
        if any(other.startswith(name + ".") for other in codes)
    }
    inject = {RUNTIME_NAME: runtime, "record_bug": record_bug}
    loaders = {name: _FactoryLoader(codes[name], inject) for name in codes}
    module_objs = _exec_under_finder(package, loaders, packages)
    runtime.end_run()

    source_text = "\n".join(
        f"# === {name} ===\n{texts[name]}" for name in modules
    )
    return PackageProgram(
        namespace=module_objs[package].__dict__,
        runtime=runtime,
        table=table,
        filename=program_filename(package),
        source=source_text,
        modules=module_objs,
    )


#: Per-process cache of pristine (uninstrumented) package namespaces,
#: keyed by ``(package, source digest)`` -- reference executions for
#: differential oracles.
_PRISTINE_CACHE: Dict[object, Dict[str, object]] = {}


def pristine_namespace(
    package: str, modules: Optional[Dict[str, str]] = None
) -> Dict[str, object]:
    """Execute a package *without* instrumentation; return root globals.

    Used by factory subjects as the reference implementation for their
    differential oracle.  Cached per process: reference behaviour is
    deterministic, so one execution serves every trial.
    """
    if modules is None:
        modules = package_modules(package)
    key = (package, tuple(sorted(modules.items())))
    cached = _PRISTINE_CACHE.get(key)
    if cached is not None:
        return cached
    codes = {
        name: compile(source, module_filename(package, name) + " (pristine)", "exec")
        for name, source in modules.items()
    }
    packages = {
        name
        for name in codes
        if any(other.startswith(name + ".") for other in codes)
    }
    loaders = {
        name: _FactoryLoader(codes[name], {"record_bug": record_bug})
        for name in codes
    }
    module_objs = _exec_under_finder(package, loaders, packages)
    namespace = module_objs[package].__dict__
    _PRISTINE_CACHE[key] = namespace
    return namespace
