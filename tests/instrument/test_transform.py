"""Tests for the source-to-source instrumenter.

The central property: instrumentation must preserve program semantics.
We check it on hand-written programs covering every rewritten construct
and on randomly generated programs (hypothesis).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predicates import Scheme
from repro.instrument.sampling import SamplingPlan
from repro.instrument.tracer import instrument_source
from repro.instrument.transform import Instrumenter


def _run_both(source, func, *args):
    """Execute ``func(*args)`` in the plain and the instrumented module."""
    plain = {}
    exec(compile(source, "<plain>", "exec"), plain)
    expected = plain[func](*args)

    prog = instrument_source(source, "t")
    prog.begin_run(SamplingPlan.full(), seed=1)
    actual = prog.func(func)(*args)
    prog.end_run()
    return expected, actual, prog


def _descriptions(prog, scheme):
    """Descriptions of the program's sites of one scheme, in order."""
    return [s.description for s in prog.table.sites if s.scheme is scheme]


class TestSemanticPreservation:
    def test_branches_and_loops(self):
        src = """
def f(n):
    total = 0
    i = 0
    while i < n:
        if i % 3 == 0 and i % 2 == 0:
            total += i
        elif i % 5 == 0 or i > 12:
            total -= 1
        i += 1
    return total
"""
        expected, actual, _ = _run_both(src, "f", 30)
        assert expected == actual

    def test_ternary_and_comprehension(self):
        src = """
def f(xs):
    ys = [x * 2 for x in xs if x > 0]
    return ys if len(ys) > 1 else []
"""
        expected, actual, _ = _run_both(src, "f", [3, -1, 4])
        assert expected == actual

    def test_call_wrapping_preserves_values(self):
        src = """
def g(x):
    return x - 10

def f(x):
    return g(abs(x)) + len([x])
"""
        expected, actual, _ = _run_both(src, "f", -5)
        assert expected == actual

    def test_short_circuit_evaluation_preserved(self):
        src = """
CALLS = []

def effect(tag, value):
    CALLS.append(tag)
    return value

def f():
    r = effect('a', False) and effect('b', True)
    s = effect('c', True) or effect('d', True)
    return (r, s, CALLS)
"""
        expected, actual, _ = _run_both(src, "f")
        assert expected == actual  # 'b' and 'd' never evaluated

    def test_augmented_and_annotated_assignments(self):
        src = """
def f(n):
    x: int = 3
    x += n
    x *= 2
    return x
"""
        expected, actual, _ = _run_both(src, "f", 4)
        assert expected == actual

    def test_try_except_with_and_nested_functions(self):
        src = """
def f(n):
    def inner(k):
        return k * 3
    out = []
    try:
        out.append(inner(n))
        if n < 0:
            raise ValueError("neg")
    except ValueError:
        out.append(-1)
    finally:
        out.append(99)
    return out
"""
        for arg in (2, -2):
            expected, actual, _ = _run_both(src, "f", arg)
            assert expected == actual

    def test_classes_and_methods(self):
        src = """
class Counter:
    def __init__(self, start):
        self.value = start

    def bump(self, by):
        self.value += by
        return self.value

def f(n):
    c = Counter(n)
    for i in range(3):
        c.bump(i)
    return c.value
"""
        expected, actual, _ = _run_both(src, "f", 10)
        assert expected == actual

    def test_unbound_variable_paths_do_not_break(self):
        """Scalar-pair capture of a maybe-unbound variable must not
        change behaviour."""
        src = """
def f(flag):
    if flag:
        y = 10
    z = 5
    return z
"""
        expected, actual, _ = _run_both(src, "f", False)
        assert expected == actual

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.integers(-20, 20),
        b=st.integers(-20, 20),
        ops=st.lists(st.sampled_from(["+", "-", "*"]), min_size=1, max_size=4),
    )
    def test_random_arithmetic_programs(self, a, b, ops):
        body = ["    r = a"]
        for i, op in enumerate(ops):
            body.append(f"    r = r {op} (b + {i}) if r > {i} else r {op} a")
        src = "def f(a, b):\n" + "\n".join(body) + "\n    return r\n"
        expected, actual, _ = _run_both(src, "f", a, b)
        assert expected == actual


class TestSiteRegistration:
    def test_branch_sites_for_if_and_while(self):
        src = """
def f(x):
    while x > 0:
        if x % 2:
            x -= 1
        x -= 1
    return x
"""
        prog = instrument_source(src, "t")
        branch_sites = [s for s in prog.table.sites if s.scheme is Scheme.BRANCHES]
        assert len(branch_sites) == 2
        descs = {s.description for s in branch_sites}
        assert descs == {"x > 0", "x % 2"}

    def test_descriptions_do_not_leak_instrumentation(self):
        src = """
def f(x):
    if g(x) > 0 and h(x):
        return 1
    return 0

def g(x):
    return x

def h(x):
    return x
"""
        prog = instrument_source(src, "t")
        for pred in prog.table.predicates:
            assert "_cbi" not in pred.name

    def test_returns_sites_per_call(self):
        src = """
def f(x):
    a = g(x)
    return g(a) + h(x)

def g(x):
    return x

def h(x):
    return x
"""
        prog = instrument_source(src, "t")
        ret_sites = [s for s in prog.table.sites if s.scheme is Scheme.RETURNS]
        assert len(ret_sites) == 3
        assert {s.description for s in ret_sites} == {"g", "h"}

    def test_scalar_pair_sites_include_old_value(self):
        src = """
def f(a):
    x = a + 1
    x = x * 2
    return x
"""
        descs = _descriptions(instrument_source(src, "t"), Scheme.SCALAR_PAIRS)
        assert "new value of x __ old value of x" in descs
        assert any(d == "x __ a" for d in descs)

    def test_for_loop_target_gets_pairs(self):
        src = """
def f(n):
    total = 0
    for i in range(n):
        total += i
    return total
"""
        descs = _descriptions(instrument_source(src, "t"), Scheme.SCALAR_PAIRS)
        assert any(d.startswith("i __ ") for d in descs)

    def test_constants_appear_as_pair_candidates(self):
        src = """
def f(a):
    limit = 500
    count = a
    return count
"""
        prog = instrument_source(src, "t")
        names = [
            p.name
            for p in prog.table.predicates
            if prog.table.site_of(p.index).scheme is Scheme.SCALAR_PAIRS
        ]
        assert "count > 500" in names


B, R, P = Scheme.BRANCHES, Scheme.RETURNS, Scheme.SCALAR_PAIRS

#: (id, source, expected sites as (scheme, description) in table order).
#: Each program isolates one rewritten (or deliberately skipped) construct.
_CONSTRUCT_SITES = [
    ("if", "def f(x):\n    if x > 0:\n        pass\n", [(B, "x > 0")]),
    ("while", "def f(x):\n    while x < 3:\n        break\n", [(B, "x < 3")]),
    ("ternary", "def f(x):\n    return 1 if x else 2\n", [(B, "x")]),
    ("comprehension-guard", "def f(x):\n    return [v for v in x if v]\n", [(B, "v")]),
    ("and-operands", "def f(x):\n    return x and not x\n", [(B, "x"), (B, "not x")]),
    (
        "or-operand-call",
        "def f(x):\n    return g(x) or x\n",
        [(R, "g"), (B, "g(x)"), (B, "x")],
    ),
    (
        "match-guard",
        "def f(x):\n    match x:\n        case int() if x > 1:\n            pass\n",
        [(B, "x > 1")],
    ),
    ("if-test-call", "def f(x):\n    if g(x):\n        pass\n", [(R, "g"), (B, "g(x)")]),
    ("dotted-call", "def f(x):\n    return x.strip()\n", [(R, "x.strip")]),
    ("computed-call", "def f(x):\n    return x[0](1)\n", [(R, "x[0]")]),
    ("nested-calls", "def f(x):\n    return g(h(x))\n", [(R, "h"), (R, "g")]),
    ("assert", "def f(x):\n    assert g(x)\n", [(R, "g")]),
    ("raise", "def f(x):\n    raise g(x)\n", [(R, "g")]),
    ("with", "def f(x):\n    with g(x):\n        pass\n", [(R, "g")]),
    (
        "assign",
        "def f(x):\n    y = x\n",
        [(P, "new value of y __ old value of y"), (P, "y __ x")],
    ),
    (
        "aug-assign",
        "def f(x):\n    x += 1\n",
        [(P, "new value of x __ old value of x"), (P, "x __ 1")],
    ),
    (
        "ann-assign",
        "def f(x):\n    y: int = x\n",
        [(P, "new value of y __ old value of y"), (P, "y __ x")],
    ),
    ("ann-without-value", "def f(x):\n    y: int\n", []),
    ("for-target", "def f(x):\n    for v in x:\n        pass\n", [(P, "v __ x")]),
    ("tuple-unpacking", "def f(x):\n    a, b = x\n", []),
    ("attribute-assign", "def f(x):\n    x.a = x\n", []),
    ("lambda-body", "def f(x):\n    return lambda v: g(v) if v else 0\n", []),
    (
        "class-body",
        "class C:\n    k = 2\n",
        [(P, "new value of k __ old value of k"), (P, "k __ 2")],
    ),
]


class TestSitesPerConstruct:
    """Every program registers sites of the three paper schemes only, and
    each construct registers exactly the sites the transform documents."""

    @pytest.mark.parametrize(
        "src, expected",
        [pytest.param(src, exp, id=name) for name, src, exp in _CONSTRUCT_SITES],
    )
    def test_construct_registers_its_sites(self, src, expected):
        inst = Instrumenter()
        inst.instrument(src)
        assert [(s.scheme, s.description) for s in inst.table.sites] == expected


class TestExclusions:
    def test_excluded_call_prefixes_not_wrapped(self):
        src = """
def record_bug(x):
    return 1

def f():
    return record_bug("id")
"""
        descs = _descriptions(instrument_source(src, "t"), Scheme.RETURNS)
        assert "record_bug" not in descs

    @pytest.mark.parametrize(
        "call",
        [
            "record_bug('id')",
            "self.record_bug('id')",
            "record_bug_detail()",
            "_cbi_log()",
            "x._cbi.branch()",
        ],
    )
    def test_call_with_excluded_part_is_not_a_site(self, call):
        """A call is left alone when any part of its dotted name starts
        with ``_cbi`` or ``record_bug``."""
        inst = Instrumenter()
        inst.instrument(f"def f(x, self):\n    {call}\n")
        assert inst.table.n_sites == 0

    @pytest.mark.parametrize(
        "call, name", [("recorder()", "recorder"), ("x.bug_record()", "x.bug_record")]
    )
    def test_other_calls_are_sites(self, call, name):
        inst = Instrumenter()
        inst.instrument(f"def f(x):\n    {call}\n")
        assert [(s.scheme, s.description) for s in inst.table.sites] == [
            (Scheme.RETURNS, name)
        ]


class TestPairCaps:
    def test_pair_sites_are_capped(self):
        """An assignment pairs with the 8 most recently assigned names,
        the function's first 6 constants, and its own old value."""
        params = ", ".join(f"v{i}" for i in range(10))
        consts = ", ".join(str(c) for c in range(10, 18))
        src = f"def f({params}):\n    k = ({consts})\n    k = v0\n    return k\n"
        inst = Instrumenter()
        inst.instrument(src)
        descs = [
            s.description
            for s in inst.table.sites
            if s.scheme is Scheme.SCALAR_PAIRS and s.line == 3
        ]
        assert descs == (
            ["new value of k __ old value of k"]
            + [f"k __ v{i}" for i in range(2, 10)]
            + [f"k __ {c}" for c in range(10, 16)]
        )

    @staticmethod
    def _pairs_on_line(src, line):
        inst = Instrumenter()
        inst.instrument(src)
        return [
            s.description
            for s in inst.table.sites
            if s.scheme is Scheme.SCALAR_PAIRS and s.line == line
        ]

    @pytest.mark.parametrize("n", [0, 1, 8, 9, 12])
    def test_pair_vars_cap_boundary(self, n):
        """With ``n`` names in scope and no constants, an assignment pairs
        with the last ``min(n, 8)`` of them."""
        params = ", ".join(f"v{i}" for i in range(n))
        src = f"def f({params}):\n    k = None\n"
        assert self._pairs_on_line(src, 2) == (
            ["new value of k __ old value of k"]
            + [f"k __ v{i}" for i in range(max(0, n - 8), n)]
        )

    @pytest.mark.parametrize("m", [0, 1, 6, 7, 10])
    def test_pair_consts_cap_boundary(self, m):
        """With ``m`` constants and no other names, an assignment pairs
        with the first ``min(m, 6)`` of them."""
        consts = [100 + c for c in range(m)]
        src = f"def f():\n    k = {consts!r}\n"
        assert self._pairs_on_line(src, 2) == (
            ["new value of k __ old value of k"] + [f"k __ {c}" for c in consts[:6]]
        )
