"""Column-oriented relation (table) implementation.

The HypeR algorithms repeatedly slice tables by boolean masks, read whole
columns for regression features, and update single columns under hypothetical
interventions.  A small column store over ``numpy`` object/float arrays serves
those access patterns well without any external dataframe dependency.

A :class:`Relation` is immutable from the caller's perspective: every
transforming operation (``filter``, ``project``, ``with_column`` …) returns a
new relation.  Stored column arrays are never written (so relations share
them), which keeps possible worlds and pre/post snapshots safe side by side.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..exceptions import SchemaError
from .columnar import Column, ColumnStore
from .schema import AttributeSpec, RelationSchema
from .types import Domain, infer_domain

__all__ = ["Relation", "changed_attributes"]


def _as_column(values: Sequence[Any]) -> np.ndarray:
    """Store a column as float64 when purely numeric, else as an object array."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        return values.astype(float, copy=False)
    values = list(values)
    # Sniff the set of types, not every value: a 60 000-row commit holds a
    # handful of types, and building the set runs at C speed.
    if values and all(
        issubclass(t, (int, float, np.integer, np.floating)) and not issubclass(t, bool)
        for t in set(map(type, values))
    ):
        return np.asarray(values, dtype=float)
    return np.asarray(values, dtype=object)


class Relation:
    """A named, schema-typed set of tuples stored column-wise.

    Predicates, joins and group-bys run over its typed
    :class:`~repro.relational.columnar.ColumnStore` (built lazily, cached),
    with the semantics documented in :mod:`repro.relational`.
    """

    def __init__(
        self,
        schema: RelationSchema,
        columns: Mapping[str, Sequence[Any]] | None = None,
        *,
        validate: bool = True,
    ) -> None:
        self.schema = schema
        self._colstore: ColumnStore | None = None
        self._colstore_lock = threading.Lock()
        columns = columns or {name: [] for name in schema.attribute_names}
        missing = [a for a in schema.attribute_names if a not in columns]
        extra = [c for c in columns if c not in schema.attribute_names]
        if missing:
            raise SchemaError(f"relation {schema.name!r} is missing columns {missing}")
        if extra:
            raise SchemaError(f"relation {schema.name!r} received unknown columns {extra}")
        self._columns: dict[str, np.ndarray] = {
            name: _as_column(columns[name]) for name in schema.attribute_names
        }
        lengths = {name: len(col) for name, col in self._columns.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"columns of {schema.name!r} have unequal lengths: {lengths}")
        self._length = next(iter(lengths.values())) if lengths else 0
        if validate:
            self._validate_domains()
            self._validate_key()

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: RelationSchema,
        rows: Iterable[Mapping[str, Any]],
        *,
        validate: bool = True,
    ) -> "Relation":
        """Build a relation from an iterable of row dictionaries."""
        rows = list(rows)
        columns = {
            name: [row.get(name) for row in rows] for name in schema.attribute_names
        }
        return cls(schema, columns, validate=validate)

    @classmethod
    def from_columns(
        cls,
        name: str,
        columns: Mapping[str, Sequence[Any]],
        key: Iterable[str],
        *,
        immutable: Iterable[str] = (),
        domains: Mapping[str, Domain] | None = None,
    ) -> "Relation":
        """Build a relation and infer its schema from the column data."""
        schema = RelationSchema.from_columns(
            name, columns, key, immutable=immutable, domains=domains
        )
        return cls(schema, columns)

    # -- pickling ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle without the colstore lock (shard workers receive relations).

        The typed column store itself is carried along when already built, so
        a worker process does not redo the materialisation.
        """
        state = self.__dict__.copy()
        del state["_colstore_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._colstore_lock = threading.Lock()

    def columnar_store(self) -> ColumnStore:
        """The typed :class:`ColumnStore` of this relation (built lazily, cached).

        Safe to call from concurrent threads: the first materialisation is
        built under a lock so parallel executor workers all observe the same
        store instead of racing on the lazy build.
        """
        store = self._colstore
        if store is None:
            with self._colstore_lock:
                if self._colstore is None:
                    self._colstore = ColumnStore.from_arrays(self._columns)
                store = self._colstore
        return store

    def _derive(
        self,
        schema: RelationSchema,
        columns: dict[str, np.ndarray],
        colstore: ColumnStore | None,
    ) -> "Relation":
        """Internal constructor for transformations: skip re-validation/re-sniffing."""
        out = Relation(schema, columns, validate=False)
        if colstore is not None:
            out._colstore = colstore
        return out

    @classmethod
    def from_colstore(cls, schema: RelationSchema, colstore: ColumnStore) -> "Relation":
        """Build a relation directly from typed columns (kernel outputs).

        Trusts the :class:`ColumnStore` types: the legacy per-column arrays
        are derived with :meth:`Column.raw_array` instead of re-sniffing every
        value, so vectorized operators can materialise results cheaply.
        """
        columns = {name: colstore.columns[name].raw_array() for name in schema.attribute_names}
        return cls._assemble(schema, columns, colstore.length, colstore)

    @classmethod
    def _assemble(
        cls,
        schema: RelationSchema,
        columns: dict[str, np.ndarray],
        length: int,
        colstore: ColumnStore | None,
    ) -> "Relation":
        """A relation over columns already typed by ``_as_column``: nothing re-sniffed."""
        out = cls.__new__(cls)
        out.schema = schema
        out._columns = columns
        out._length = length
        out._colstore = colstore
        out._colstore_lock = threading.Lock()
        return out

    def _validate_domains(self) -> None:
        for name, column in self._columns.items():
            domain = self.schema.domain(name)
            for value in column:
                if value is None:
                    continue
                if not domain.contains(value):
                    raise SchemaError(
                        f"value {value!r} of attribute {self.schema.name}.{name} "
                        f"violates its domain {domain}"
                    )

    def _validate_key(self) -> None:
        keys = list(self.iter_keys())
        if len(set(keys)) != len(keys):
            raise SchemaError(f"relation {self.schema.name!r} contains duplicate key values")

    # -- basic accessors -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self.schema.attribute_names

    def __len__(self) -> int:
        return self._length

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._columns

    def column(self, attribute: str) -> np.ndarray:
        """Return a copy of the named column."""
        if attribute not in self._columns:
            raise SchemaError(
                f"relation {self.name!r} has no column {attribute!r}; "
                f"columns: {list(self._columns)}"
            )
        return self._columns[attribute].copy()

    def column_view(self, attribute: str) -> np.ndarray:
        """Return the underlying column array without copying (read-only use)."""
        if attribute not in self._columns:
            raise SchemaError(f"relation {self.name!r} has no column {attribute!r}")
        return self._columns[attribute]

    def row(self, index: int) -> dict[str, Any]:
        """Return the row at ``index`` as an attribute → value dictionary."""
        if not 0 <= index < self._length:
            raise IndexError(f"row index {index} out of range for {self.name!r}")
        return {name: self._columns[name][index] for name in self.attribute_names}

    def rows(self) -> Iterator[dict[str, Any]]:
        """Iterate over rows as dictionaries."""
        for i in range(self._length):
            yield self.row(i)

    def key_of(self, index: int) -> tuple[Any, ...]:
        """Return the key tuple of the row at ``index``."""
        return tuple(self._columns[k][index] for k in self.schema.key)

    def iter_keys(self) -> Iterator[tuple[Any, ...]]:
        for i in range(self._length):
            yield self.key_of(i)

    # -- transformations -----------------------------------------------------------

    def filter(self, mask: Sequence[bool] | np.ndarray) -> "Relation":
        """Return the sub-relation of rows where ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._length,):
            raise SchemaError(
                f"filter mask has shape {mask.shape}, expected ({self._length},)"
            )
        columns = {name: col[mask] for name, col in self._columns.items()}
        colstore = self._colstore.filter(mask) if self._colstore is not None else None
        return self._derive(self.schema, columns, colstore)

    def take(self, indices: Sequence[int]) -> "Relation":
        """Return the relation containing exactly the rows at ``indices`` (in order)."""
        idx = np.asarray(indices, dtype=int)
        if idx.size and (
            int(idx.min()) < -self._length or int(idx.max()) >= self._length
        ):
            raise IndexError(
                f"take indices out of range for {self.name!r} ({self._length} rows)"
            )
        # Normalise numpy-style negative indices up front: the derived
        # ColumnStore reserves -1 for left-join null padding.
        idx = np.where(idx < 0, idx + self._length, idx)
        columns = {name: col[idx] for name, col in self._columns.items()}
        colstore = self._colstore.take(idx) if self._colstore is not None else None
        return self._derive(self.schema, columns, colstore)

    def head(self, n: int) -> "Relation":
        return self.take(list(range(min(n, self._length))))

    def sample(self, n: int, rng: np.random.Generator) -> "Relation":
        """Uniform random sample (without replacement) of ``n`` rows."""
        n = min(n, self._length)
        idx = rng.choice(self._length, size=n, replace=False)
        return self.take(sorted(idx.tolist()))

    def project(self, attributes: Iterable[str], name: str | None = None) -> "Relation":
        """Project onto ``attributes`` (key attributes must be retained; columns shared).

        The typed columns are this relation's own, built once here, so every
        projection of it reads the same ones.
        """
        keep = list(attributes)
        schema = self.schema.project(keep, name=name)
        columns = {a: self._columns[a] for a in keep}
        store = self.columnar_store()
        store = ColumnStore({a: store.columns[a] for a in keep}, store.length)
        return Relation._assemble(schema, columns, self._length, store)

    def with_column(
        self,
        attribute: str,
        values: Sequence[Any],
        *,
        domain: Domain | None = None,
        mutable: bool = True,
    ) -> "Relation":
        """Return a relation with ``attribute`` added or replaced by ``values`` (rest shared)."""
        if not isinstance(values, np.ndarray):
            values = list(values)
        if len(values) != self._length:
            raise SchemaError(
                f"column {attribute!r} has {len(values)} values, expected {self._length}"
            )
        if attribute in self.schema:
            spec = self.schema[attribute]
            new_spec = AttributeSpec(attribute, domain or spec.domain, mutable=spec.mutable)
        else:
            new_spec = AttributeSpec(attribute, domain or infer_domain(values), mutable=mutable)
        schema = self.schema.with_attribute(new_spec)
        columns = dict(self._columns)
        columns[attribute] = _as_column(values)
        ordered = {name: columns[name] for name in schema.attribute_names}
        colstore = None
        if self._colstore is not None:
            colstore = self._colstore.with_column(
                attribute, Column.from_values(ordered[attribute]), schema.attribute_names
            )
        return Relation._assemble(schema, ordered, self._length, colstore)

    # -- conversions -----------------------------------------------------------------

    def to_dict(self) -> dict[str, list[Any]]:
        """Return the relation as plain column lists."""
        return {name: list(col) for name, col in self._columns.items()}

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {self._length} rows, {len(self.attribute_names)} cols)"

    def pretty(self, limit: int = 10) -> str:
        """Human-readable rendering of up to ``limit`` rows (for examples/CLI)."""
        header = " | ".join(self.attribute_names)
        sep = "-" * len(header)
        body = []
        for i, row in enumerate(self.rows()):
            if i >= limit:
                body.append(f"... ({self._length - limit} more rows)")
                break
            body.append(" | ".join(str(row[a]) for a in self.attribute_names))
        return "\n".join([header, sep, *body])


def changed_attributes(old: Relation | None, new: Relation) -> tuple[str, ...]:
    """The attributes of ``new`` whose column ``old`` does not hold, by identity:
    :meth:`Relation.with_column` shares each untouched stored array and typed
    column.  All of them without an ``old`` of the same length and key.  What
    a service commit bumps the generations of, and what a shard pool ships."""
    if old is None or len(old) != len(new) or old.schema.key != new.schema.key:
        return new.attribute_names
    before, after = old.columnar_store().columns, new.columnar_store().columns
    return tuple(
        a for a in new.attribute_names
        if a not in old or old.schema[a] != new.schema[a]
        or (old.column_view(a) is not new.column_view(a) and before[a] is not after[a])
    )
