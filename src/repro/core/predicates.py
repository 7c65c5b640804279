"""Static model of instrumentation sites and predicates.

Terminology follows Section 2 of the paper:

* An *instrumentation site* is a program point at which a fixed family of
  predicates is checked.  All predicates at a site are sampled jointly: one
  dynamic *observation* of the site observes every predicate it carries.
* A *predicate* is a single boolean property checked at a site.  The three
  schemes yield fixed-size predicate families:

  - ``branches``: 2 predicates (branch taken true / taken false);
  - ``returns``: 6 sign predicates on a call's scalar return value
    (``< 0``, ``== 0``, ``> 0``, ``>= 0``, ``!= 0``, ``<= 0``);
  - ``scalar-pairs``: 6 order predicates relating a freshly assigned
    scalar ``x`` to another in-scope scalar or constant ``y``
    (``x < y``, ``x == y``, ``x > y``, ``x >= y``, ``x != y``, ``x <= y``).

Predicates come in complementary pairs (e.g. ``< 0`` / ``>= 0``); Section 5
of the paper reasons about a predicate and its complement, so the table
exposes :meth:`PredicateTable.complement`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


class Scheme(enum.Enum):
    """The instrumentation scheme an observation site belongs to."""

    BRANCHES = "branches"
    RETURNS = "returns"
    SCALAR_PAIRS = "scalar-pairs"
    #: Hand-rolled families registered with
    #: :meth:`PredicateTable.add_custom_site`; the transform never emits
    #: them.
    CUSTOM = "custom"


class PredicateKind(enum.Enum):
    """Which member of a site's predicate family a predicate is.

    The ``value`` is the human-readable operator; ``offset`` is the
    predicate's fixed position within its site's family.
    """

    BRANCH_TRUE = ("is TRUE", 0)
    BRANCH_FALSE = ("is FALSE", 1)
    LT = ("< 0", 0)
    EQ = ("== 0", 1)
    GT = ("> 0", 2)
    GE = (">= 0", 3)
    NE = ("!= 0", 4)
    LE = ("<= 0", 5)
    CUSTOM = ("", 0)

    def __init__(self, label: str, offset: int) -> None:
        self.label = label
        self.offset = offset


#: Complementary-pair structure of each predicate family.  Selecting the
#: complement of ``BRANCH_TRUE`` yields ``BRANCH_FALSE``; the sign
#: predicates pair ``< / >=``, ``== / !=``, ``> / <=``.
_COMPLEMENTS: Dict[PredicateKind, PredicateKind] = {
    PredicateKind.BRANCH_TRUE: PredicateKind.BRANCH_FALSE,
    PredicateKind.BRANCH_FALSE: PredicateKind.BRANCH_TRUE,
    PredicateKind.LT: PredicateKind.GE,
    PredicateKind.GE: PredicateKind.LT,
    PredicateKind.EQ: PredicateKind.NE,
    PredicateKind.NE: PredicateKind.EQ,
    PredicateKind.GT: PredicateKind.LE,
    PredicateKind.LE: PredicateKind.GT,
}

#: Family layout per scheme, in site-local offset order.
SCHEME_KINDS: Dict[Scheme, Tuple[PredicateKind, ...]] = {
    Scheme.BRANCHES: (PredicateKind.BRANCH_TRUE, PredicateKind.BRANCH_FALSE),
    Scheme.RETURNS: (
        PredicateKind.LT,
        PredicateKind.EQ,
        PredicateKind.GT,
        PredicateKind.GE,
        PredicateKind.NE,
        PredicateKind.LE,
    ),
    Scheme.SCALAR_PAIRS: (
        PredicateKind.LT,
        PredicateKind.EQ,
        PredicateKind.GT,
        PredicateKind.GE,
        PredicateKind.NE,
        PredicateKind.LE,
    ),
}

#: Comparison labels used for scalar-pair predicate names, per offset.
_PAIR_OPS: Tuple[str, ...] = ("<", "==", ">", ">=", "!=", "<=")


@dataclass(frozen=True)
class Site:
    """A static instrumentation site.

    Attributes:
        index: Dense site index within its :class:`PredicateTable`.
        scheme: Which instrumentation scheme produced the site.
        function: Enclosing function name (``"<module>"`` at top level).
        line: 1-based source line of the instrumented construct.
        description: Human-readable text, e.g. the branch condition source
            or the ``x = f(...)`` call expression.
    """

    index: int
    scheme: Scheme
    function: str
    line: int
    description: str

    def __str__(self) -> str:
        return f"{self.scheme.value}@{self.function}:{self.line} {self.description}"


@dataclass(frozen=True)
class Predicate:
    """One predicate at a site.

    Attributes:
        index: Dense predicate index within its :class:`PredicateTable`.
        site_index: Index of the owning :class:`Site`.
        kind: Member of the site's predicate family.
        name: Full human-readable predicate text as shown in the paper's
            tables, e.g. ``"filesindex >= 25"`` or ``"tmp == 0 is FALSE"``.
    """

    index: int
    site_index: int
    kind: PredicateKind
    name: str

    def __str__(self) -> str:
        return self.name


class PredicateTable:
    """Registry of every site and predicate in an instrumented program.

    The table assigns dense indices so feedback reports can be stored as
    matrices.  It is append-only: sites registered during instrumentation
    keep their indices for the lifetime of the experiment.
    """

    def __init__(self) -> None:
        self.sites: List[Site] = []
        self.predicates: List[Predicate] = []
        self._site_preds: List[List[int]] = []
        # Memo of signature(): reset by the registration methods, seeded
        # by archive loaders with the signature the archive recorded.
        self._signature: Optional[str] = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_site(
        self,
        scheme: Scheme,
        function: str,
        line: int,
        description: str,
        predicate_names: Optional[Sequence[str]] = None,
    ) -> Site:
        """Register a site and its full predicate family.

        Args:
            scheme: Instrumentation scheme; determines the family layout.
            function: Enclosing function name.
            line: Source line number.
            description: Text for the instrumented construct.
            predicate_names: Optional explicit names, one per family
                member.  Defaults derive names from ``description`` and the
                family operators.

        Returns:
            The newly registered :class:`Site`.
        """
        self._signature = None
        site = Site(len(self.sites), scheme, function, line, description)
        self.sites.append(site)
        kinds = SCHEME_KINDS.get(scheme, (PredicateKind.CUSTOM,))
        if predicate_names is None:
            predicate_names = [self._default_name(scheme, description, k) for k in kinds]
        if len(predicate_names) != len(kinds):
            raise ValueError(
                f"scheme {scheme.value} needs {len(kinds)} predicate names, "
                f"got {len(predicate_names)}"
            )
        indices: List[int] = []
        for kind, name in zip(kinds, predicate_names):
            pred = Predicate(len(self.predicates), site.index, kind, name)
            self.predicates.append(pred)
            indices.append(pred.index)
        self._site_preds.append(indices)
        return site

    def add_custom_site(
        self,
        function: str,
        line: int,
        description: str,
        predicate_names: Sequence[str],
    ) -> Site:
        """Register a site carrying an arbitrary predicate family.

        Used for hand-rolled instrumentation (Section 5 notes the approach
        extends to any predicate one can evaluate at a program point).
        """
        self._signature = None
        site = Site(len(self.sites), Scheme.CUSTOM, function, line, description)
        self.sites.append(site)
        indices: List[int] = []
        for name in predicate_names:
            pred = Predicate(len(self.predicates), site.index, PredicateKind.CUSTOM, name)
            self.predicates.append(pred)
            indices.append(pred.index)
        self._site_preds.append(indices)
        return site

    @staticmethod
    def _default_name(scheme: Scheme, description: str, kind: PredicateKind) -> str:
        if scheme is Scheme.SCALAR_PAIRS:
            # description is "x __ y"; splice the operator in.
            return description.replace("__", _PAIR_OPS[kind.offset], 1)
        if kind.label:
            return f"{description} {kind.label}"
        return description

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def n_sites(self) -> int:
        """Number of registered sites."""
        return len(self.sites)

    @property
    def n_predicates(self) -> int:
        """Number of registered predicates."""
        return len(self.predicates)

    def site_of(self, predicate_index: int) -> Site:
        """Return the :class:`Site` owning the given predicate."""
        return self.sites[self.predicates[predicate_index].site_index]

    def predicates_at(self, site_index: int) -> List[Predicate]:
        """Return the predicate family of a site, in offset order."""
        return [self.predicates[i] for i in self._site_preds[site_index]]

    def predicate_indices_at(self, site_index: int) -> List[int]:
        """Return the dense predicate indices of a site's family."""
        return list(self._site_preds[site_index])

    def complement(self, predicate_index: int) -> Optional[int]:
        """Return the index of the logical complement of a predicate.

        Returns ``None`` for ``CUSTOM`` predicates, which have no declared
        complement.
        """
        pred = self.predicates[predicate_index]
        comp_kind = _COMPLEMENTS.get(pred.kind)
        if comp_kind is None:
            return None
        for idx in self._site_preds[pred.site_index]:
            if self.predicates[idx].kind is comp_kind:
                return idx
        return None

    def find(self, name_fragment: str) -> List[Predicate]:
        """Return predicates whose name contains ``name_fragment``."""
        return [p for p in self.predicates if name_fragment in p.name]

    def signature(self) -> str:
        """Return a stable content hash of the site/predicate layout.

        Two tables with the same signature assign identical meaning to
        every column index, so report sets carrying them can be merged.
        Shard manifests and archives store the signature to detect mixing
        reports from different instrumentations (or different subject
        versions), which would silently mis-attribute counters.

        The hash is memoised (the table is append-only, and registering a
        site resets the memo), so the per-shard checks of merging and
        committing cost a string compare rather than a re-hash.  A table
        decoded from an archive starts with the signature the
        archive recorded (see ``repro.core.io.load_reports``).
        """
        if self._signature is not None:
            return self._signature
        import hashlib
        import json as _json

        spec = [
            (
                s.scheme.value,
                s.function,
                s.line,
                s.description,
                [self.predicates[i].name for i in self._site_preds[s.index]],
            )
            for s in self.sites
        ]
        blob = _json.dumps(spec, separators=(",", ":"), sort_keys=True)
        self._signature = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        return self._signature

    def __len__(self) -> int:
        return len(self.predicates)

    def __repr__(self) -> str:
        return f"PredicateTable(sites={self.n_sites}, predicates={self.n_predicates})"
