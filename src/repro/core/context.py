"""Shared state of one query's access-area extraction.

Tracks the relations of the universal relation, the alias scopes used to
resolve column references (including correlated references from nested
subqueries, Section 4.4), and diagnostic notes about approximations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..algebra.predicates import ColumnRef
from ..schema.database import Schema


@dataclass
class ExtractionContext:
    """Mutable extraction state threaded through the conversion passes."""

    schema: Optional[Schema]
    #: real relation names of the universal relation, insertion-ordered
    relations: list[str] = field(default_factory=list)
    #: binding (alias or bare table name, lower-cased) -> real relation name
    aliases: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    parent: Optional["ExtractionContext"] = None
    #: number of widening approximations recorded (root-stored)
    widenings: int = 0
    #: records where the statement's literals went, for the extractor's
    #: memo of statement shapes; shared by every scope; None when
    #: nothing records
    shape: Optional[Any] = None

    # -- relation bookkeeping ---------------------------------------------------

    def canonical_relation(self, name: str) -> str:
        """Schema capitalization when known, lowercase otherwise.

        Relation names are canonicalized exactly once, here at
        extraction: resolve against the schema catalog when possible,
        fall back to lowercase for unknown relations.  A log mixing
        ``PhotoObj``/``photoobj`` therefore always produces the same
        :attr:`AccessArea.table_set` — the value ``d_tables`` compares
        *and* the partition key of the clustering decomposition — so the
        two sites can never disagree on case.
        """
        if self.schema is not None and self.schema.has_relation(name):
            return self.schema.canonical_name(name)
        return name.lower()

    def register_table(self, name: str, alias: Optional[str] = None) -> str:
        """Add a FROM occurrence to the universal relation; returns the
        real relation name.

        Two occurrences of the same relation merge into one — the paper
        excludes self-joins (none occur in the SkyServer log), so the
        universal relation contains each relation once.
        """
        real = self.canonical_relation(name)
        root = self._root()
        if real.lower() not in (r.lower() for r in root.relations):
            root.relations.append(real)
        self.aliases[(alias or name).lower()] = real
        if alias is None:
            self.aliases[name.lower()] = real
        return real

    def _root(self) -> "ExtractionContext":
        ctx: ExtractionContext = self
        while ctx.parent is not None:
            ctx = ctx.parent
        return ctx

    def child(self) -> "ExtractionContext":
        """A nested scope for a subquery: new alias namespace, shared
        relation list and notes (both live on the root)."""
        return ExtractionContext(
            schema=self.schema,
            relations=self._root().relations,
            aliases={},
            notes=self._root().notes,
            parent=self,
            shape=self.shape,
        )

    def note(self, message: str) -> None:
        self._root().notes.append(message)

    def approx(self, message: str) -> None:
        """Record a note for an approximation that *widens* the area.

        Widening keeps extraction sound (the area stays an over-set of
        every influencing tuple) but gives up exactness: the constraint
        no longer pins down the minimal access area, so canonical
        fingerprints of semantically equal queries may differ.  The
        differential oracle reads :attr:`exact` to skip equality checks
        while still enforcing soundness.
        """
        self._root().widenings += 1
        self.note(message)

    @property
    def widening_count(self) -> int:
        """Widenings recorded so far, on any scope of this extraction."""
        return self._root().widenings

    @property
    def exact(self) -> bool:
        """True when no widening approximation was applied."""
        return self._root().widenings == 0

    # -- column resolution ---------------------------------------------------------

    def resolve_column(self, table: Optional[str],
                       column: str) -> ColumnRef | None:
        """Resolve a column reference to a qualified :class:`ColumnRef`.

        Qualified references follow the alias scope chain.  Unqualified
        references are searched in the current scope's relations via the
        schema; with no schema, they resolve only when the scope has
        exactly one relation.  Unresolvable references return ``None``
        (the caller widens the constraint and records a note).
        """
        if table is not None:
            ctx: Optional[ExtractionContext] = self
            while ctx is not None:
                real = ctx.aliases.get(table.lower())
                if real is not None:
                    return ColumnRef(real, column)
                ctx = ctx.parent
            # Unknown qualifier: treat it as a relation name outright
            # (queries sometimes qualify by table without declaring it).
            return ColumnRef(self.canonical_relation(table), column)

        ctx = self
        while ctx is not None:
            match = ctx._find_in_scope(column)
            if match is not None:
                return match
            ctx = ctx.parent
        return None

    def _find_in_scope(self, column: str) -> ColumnRef | None:
        scope_relations = list(dict.fromkeys(self.aliases.values()))
        if self.schema is not None:
            for relation in scope_relations:
                if (self.schema.has_relation(relation)
                        and self.schema.relation(relation)
                        .has_column(column)):
                    return ColumnRef(relation, column)
        # Single-relation fallback — but only when the schema cannot rule
        # the binding out (otherwise the search must continue outward to
        # the enclosing scope, which is where a correlated column lives).
        if len(scope_relations) == 1:
            relation = scope_relations[0]
            if self.schema is None or not self.schema.has_relation(relation):
                return ColumnRef(relation, column)
        return None

    def scope_relations(self) -> list[str]:
        """Real relation names visible in this scope only."""
        return list(dict.fromkeys(self.aliases.values()))
