"""Transform fuzz/regression suite over real stdlib sources.

The hand-built subjects exercise a narrow slice of Python syntax; the
subject factory feeds the instrumenter arbitrary package code.  This
suite pins the transform against the syntax real packages use:

* targeted differential regressions for the constructs the transform
  historically left dark or mishandled (``match`` statements, ``async
  for``/``async with`` bodies, ``try``/``except*`` groups, class-body
  assignments leaking a ``_cbi_prev`` class attribute);
* a transform+compile fuzz sweep over genuine stdlib module sources
  (a fixed subset in the tier-1 lane, the whole stdlib in the slow
  lane);
* exec-and-call differentials on instrumented stdlib modules, proving
  behaviour is unchanged end to end.
"""

import ast
import os
import sys
import sysconfig

import pytest

from repro.core.predicates import PredicateTable, Scheme
from repro.instrument.sampling import SamplingPlan
from repro.instrument.tracer import instrument_source
from repro.instrument.transform import Instrumenter


def _run_both(source, func, *args):
    plain = {}
    exec(compile(source, "<plain>", "exec"), plain)
    expected = plain[func](*args)

    prog = instrument_source(source, "t")
    prog.begin_run(SamplingPlan.full(), seed=1)
    actual = prog.func(func)(*args)
    prog.end_run()
    return expected, actual, prog


class TestMatchStatements:
    SRC = """
def classify(x):
    out = []
    match x:
        case int() as n if n > 10:
            out.append(n * 2)
        case [a, *rest]:
            total = a
            for r in rest:
                total += r
            out.append(total)
        case {"k": v, **extra}:
            out.append(v + len(extra))
        case str() | bytes():
            out.append(len(x))
        case _:
            out.append(-1)
    return out
"""

    @pytest.mark.parametrize(
        "value",
        [15, 3, [1, 2, 3], {"k": 5, "z": 0}, "hello", None],
        ids=["guard-hit", "guard-miss", "sequence", "mapping", "or-pattern", "wildcard"],
    )
    def test_match_semantics_preserved(self, value):
        expected, actual, _ = _run_both(self.SRC, "classify", value)
        assert expected == actual

    def test_match_bodies_and_guards_get_sites(self):
        prog = instrument_source(self.SRC, "t")
        sites = [s for s in prog.table.sites if s.function == "classify"]
        # The guard is a branch site; the case bodies carry return and
        # scalar-pair sites.  Before the fix the whole statement was dark.
        assert any(
            s.scheme is Scheme.BRANCHES and "n > 10" in s.description for s in sites
        )
        assert any(s.scheme is Scheme.SCALAR_PAIRS for s in sites)
        assert any(s.scheme is Scheme.RETURNS for s in sites)

    def test_patterns_not_rewritten(self):
        # Patterns are not expressions: a literal pattern must survive
        # the rewrite as a plain MatchValue, never a runtime call.
        prog = instrument_source(self.SRC, "t")
        tree = ast.parse(prog.source) if prog.source else None
        if tree is None:  # pragma: no cover - source always kept
            pytest.skip("instrumented source not retained")
        for node in ast.walk(tree):
            if isinstance(node, ast.MatchValue):
                assert isinstance(node.value, (ast.Constant, ast.Attribute))


class TestAsyncConstructs:
    SRC = """
async def agen(items):
    for i in items:
        yield i

class Ctx:
    async def __aenter__(self):
        return 100
    async def __aexit__(self, *a):
        return False

async def consume(items):
    acc = 0
    async for i in agen(items):
        if i % 2 == 0:
            acc += i
    async with Ctx() as c:
        acc += c
    return acc

def run(items):
    import asyncio
    return asyncio.run(consume(items))
"""

    def test_async_for_and_with_semantics(self):
        expected, actual, _ = _run_both(self.SRC, "run", [1, 2, 3, 4])
        assert expected == actual

    def test_async_bodies_get_sites(self):
        prog = instrument_source(self.SRC, "t")
        consume_sites = [s for s in prog.table.sites if s.function == "consume"]
        assert any(
            s.scheme is Scheme.BRANCHES and "i % 2" in s.description
            for s in consume_sites
        ), "async for body must be instrumented"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="except* is 3.11+")
class TestTryStar:
    SRC = """
def f(xs):
    acc = 0
    try:
        for x in xs:
            if x < 0:
                raise ExceptionGroup("neg", [ValueError(str(x))])
            acc += x
    except* ValueError:
        acc = -1
    return acc
"""

    def test_trystar_semantics(self):
        for xs in ([1, 2, 3], [1, -2, 3]):
            expected, actual, _ = _run_both(self.SRC, "f", xs)
            assert expected == actual

    def test_trystar_bodies_get_sites(self):
        prog = instrument_source(self.SRC, "t")
        sites = [s for s in prog.table.sites if s.function == "f"]
        assert any(
            s.scheme is Scheme.BRANCHES and "x < 0" in s.description for s in sites
        ), "try body under except* must be instrumented"


class TestClassBodyHygiene:
    def test_no_cbi_prev_class_attribute(self):
        src = """
class Config:
    retries = 3
    timeout = retries * 10
    def total(self):
        return self.retries + self.timeout
"""
        prog = instrument_source(src, "t")
        cls = prog.namespace["Config"]
        assert not hasattr(cls, "_cbi_prev"), (
            "old-value capture must not survive as a class attribute"
        )
        assert cls().total() == 33

    def test_slots_class_unbroken(self):
        src = """
class Point:
    __slots__ = ("x", "y")
    def __init__(self, x, y):
        self.x = x
        self.y = y
    def norm1(self):
        d = abs(self.x) + abs(self.y)
        return d
"""
        expected, actual, prog = _run_both(src, "Point", 3, -4)
        assert prog.namespace["Point"](3, -4).norm1() == 7
        assert not hasattr(prog.namespace["Point"], "_cbi_prev")


class TestScopingRegressions:
    def test_walrus_in_while_and_comprehension(self):
        src = """
def f(xs):
    out = [y for x in xs if (y := x * 2) > 4]
    i = 0
    total = 0
    while (i := i + 1) < len(xs):
        total += i
    return out, total
"""
        expected, actual, _ = _run_both(src, "f", [1, 2, 3, 4])
        assert expected == actual

    def test_lambda_bodies_left_alone_but_defaults_work(self):
        src = """
def f(xs):
    key = lambda p, scale=len(xs): p * scale
    return sorted(xs, key=key)
"""
        expected, actual, prog = _run_both(src, "f", [3, 1, 2])
        assert expected == actual
        # Lambdas are deliberately skipped (no statement anchors for
        # pairs); their bodies must carry no sites.
        assert all("lambda" not in s.description for s in prog.table.sites)

    def test_class_scope_comprehension(self):
        src = """
def make():
    class Table:
        names = ["a", "b", "c"]
        index = {n: i for i, n in enumerate(names)}
    return Table.index
"""
        expected, actual, _ = _run_both(src, "make")
        assert expected == actual


# ----------------------------------------------------------------------
# Stdlib sweep
# ----------------------------------------------------------------------

#: Pure-python stdlib modules the tier-1 sweep transforms and compiles.
#: Chosen for syntax breadth: dataclasses (heavy decorators + class
#: bodies), typing (3.12 generics usage), asyncio pieces (async
#: everything), plus the factory's own corpus ancestors.
TIER1_SWEEP = [
    "textwrap",
    "csv",
    "json.scanner",
    "json.decoder",
    "json.encoder",
    "fnmatch",
    "bisect",
    "heapq",
    "shlex",
    "difflib",
    "statistics",
    "dataclasses",
    "string",
    "colorsys",
    "quopri",
    "uuid",
    "ipaddress",
    "argparse",
    "selectors",
    "queue",
    "tokenize",
    "ast",
    "enum",
    "functools",
    "contextlib",
]


def _module_source(name):
    import importlib.util

    spec = importlib.util.find_spec(name)
    if spec is None or spec.origin is None or not spec.origin.endswith(".py"):
        pytest.skip(f"{name} has no python source here")
    with open(spec.origin, encoding="utf-8") as fh:
        return fh.read(), spec.origin


@pytest.mark.parametrize("name", TIER1_SWEEP)
def test_stdlib_transform_and_compile(name):
    source, origin = _module_source(name)
    table = PredicateTable()
    inst = Instrumenter(table=table)
    tree = inst.instrument(source, filename=origin)
    compile(tree, origin, "exec")
    assert len(table.sites) > 0


@pytest.mark.parametrize(
    "name,func,args",
    [
        ("textwrap", "wrap", ("the quick brown fox jumps over the lazy dog", 10)),
        ("fnmatch", "fnmatch", ("data_001.csv", "data_*.csv")),
        ("bisect", "bisect_left", ([1, 3, 5, 7, 9], 6)),
        ("shlex", "split", ("a 'b c' d",)),
        ("colorsys", "rgb_to_hsv", (0.2, 0.4, 0.4)),
    ],
)
def test_stdlib_exec_and_call_differential(name, func, args):
    source, _ = _module_source(name)
    import importlib

    plain = getattr(importlib.import_module(name), func)(*args)

    prog = instrument_source(source, name)
    prog.begin_run(SamplingPlan.full(), seed=7)
    instrumented = prog.func(func)(*args)
    prog.end_run()
    assert instrumented == plain


@pytest.mark.slow
def test_whole_stdlib_transform_fuzz():
    """Transform + compile every parseable pure-python stdlib file."""
    stdlib = sysconfig.get_paths()["stdlib"]
    failures = []
    count = 0
    for root, dirs, files in os.walk(stdlib):
        dirs[:] = [
            d
            for d in dirs
            if d
            not in ("test", "tests", "idle_test", "site-packages", "turtledemo")
        ]
        for fn in sorted(files):
            if not fn.endswith(".py"):
                continue
            path = os.path.join(root, fn)
            try:
                with open(path, encoding="utf-8", errors="replace") as fh:
                    src = fh.read()
                ast.parse(src)
            except (SyntaxError, ValueError):
                continue  # not source for this interpreter version
            count += 1
            try:
                inst = Instrumenter()
                tree = inst.instrument(src, filename=path)
                compile(tree, path, "exec")
            except Exception as exc:  # noqa: BLE001 - collecting evidence
                failures.append((os.path.relpath(path, stdlib), repr(exc)))
    assert count > 200, f"suspiciously small stdlib sweep: {count}"
    assert not failures, failures[:10]
