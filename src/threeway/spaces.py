"""Finite universes, equivalence partitions, concepts, and inclusion ratios.

The central object is the :class:`ApproximationSpace`: a finite set of
element identifiers together with an equivalence partition into blocks.  All
set sizes are compared through exact integer fractions; nothing here touches
floating point, so threshold comparisons downstream never suffer rounding
ties.  Spaces are immutable after construction and safe to share; all a space
adds later is a store of block tables, which :mod:`.regions` fills and replaces.

A partition can be given explicitly (a list of blocks) or derived from an
attribute table: two elements share a block exactly when their key-column
tuples are equal.  Both paths normalize to the same canonical form, blocks
ordered by their lexicographically smallest element, each label kept with its
block.  :func:`load_table` reads a CSV once into a :class:`Table`, immutable
and column-major, whose rows are read-only mappings; the table keeps each
concept read from one of its columns.  One column reader takes the id column
and the requested columns, straight from a table's columns or from the rows a
caller passes, and refuses an empty table or an unknown column in one place.
"""

from __future__ import annotations

import csv
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from itertools import compress
from operator import eq, itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .records import Record


class DataError(ValueError):
    """Input data violates its contract (bad table, unknown id/column, ...)."""


class Concept(Record):
    """A subset of the universe under study, with a display label."""

    members: frozenset[str]
    label: str = "X"

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))


def relative_cardinality(part: Iterable[str], whole: Iterable[str]) -> Fraction:
    """Share of ``whole`` that also lies in ``part``, as an exact fraction.

    With ``whole`` = the universe this is the normalized size measure used
    throughout: it is 0 on the empty set, 1 on the universe, and monotone
    under inclusion.
    """
    whole = frozenset(whole)
    if not whole:
        raise DataError("relative cardinality against an empty set is undefined")
    part = frozenset(part)
    return Fraction(len(part & whole), len(whole))


class ApproximationSpace:
    """A finite universe plus an equivalence partition of it.

    ``elements`` keeps the caller's order (e.g. CSV row order); ``blocks``
    are canonical: each block sorted, blocks ordered by smallest element.
    Every element belongs to exactly one block, blocks are non-empty and
    pairwise disjoint, their union is the universe, and no two blocks share
    a label; construction rejects anything else.
    """

    __slots__ = ("elements", "blocks", "labels", "_block_of", "_tables", "_members")

    def __init__(
        self,
        elements: Sequence[str],
        blocks: Iterable[Iterable[str]],
        labels: Optional[Sequence[str]] = None,
    ) -> None:
        elements = tuple(elements)
        if not elements:
            raise DataError("the universe must be non-empty")
        universe = frozenset(elements)
        if len(universe) != len(elements):
            dupes = sorted(e for e, count in Counter(elements).items() if count > 1)
            raise DataError(f"duplicate element id(s): {', '.join(dupes)}")

        raw_blocks = [tuple(sorted(b)) for b in blocks]
        if labels is not None and len(labels) != len(raw_blocks):
            raise DataError("one label per block is required")
        pairs = sorted(zip(raw_blocks, labels or [None] * len(raw_blocks)), key=itemgetter(0))

        seen: dict[str, int] = {}
        for idx, (block, _) in enumerate(pairs):
            if not block:
                raise DataError("partition blocks must be non-empty")
            for e in block:
                if e not in universe:
                    raise DataError(f"block element {e!r} is not in the universe")
                if e in seen:
                    raise DataError(f"element {e!r} appears in more than one block")
                seen[e] = idx
        if len(seen) != len(universe):
            missing = sorted(universe - seen.keys())
            raise DataError(f"partition does not cover: {', '.join(missing)}")

        self.elements: tuple[str, ...] = elements
        self.blocks: tuple[tuple[str, ...], ...] = tuple(block for block, _ in pairs)
        self.labels: tuple[str, ...] = tuple(f"B{i + 1}" if label is None else label for i, (_, label) in enumerate(pairs))
        if len(set(self.labels)) != len(self.labels):
            shared = sorted(label for label, count in Counter(self.labels).items() if count > 1)
            raise DataError(f"duplicate block label(s): {', '.join(map(repr, shared))}")
        self._block_of: dict[str, int] = seen
        self._tables: dict[tuple, tuple] = {}  # kept tri-partitions, which regions.linguistic_regions fills
        self._members: tuple = (None, None)  # the last member set asked for, and its kept equal

    # -- queries ------------------------------------------------------------

    def block_index(self, element: str) -> int:
        try:
            return self._block_of[element]
        except KeyError:
            raise DataError(f"unknown element {element!r}") from None

    def block_of(self, element: str) -> tuple[str, ...]:
        """The equivalence class of an element."""
        return self.blocks[self.block_index(element)]

    def label_of(self, element: str) -> str:
        return self.labels[self.block_index(element)]

    def check_concept(self, concept: Concept) -> Concept:
        """Validate that a concept's members all belong to this universe."""
        stray = concept.members.difference(self._block_of)
        if stray:
            raise DataError(
                f"concept {concept.label!r} has members outside the universe: "
                f"{', '.join(sorted(stray))}"
            )
        return concept

    def inclusion_ratio(self, concept: Concept, element: str) -> Fraction:
        """Share of the element's block that lies in the concept.

        Blocks are non-empty (every element belongs to its own class), so the
        ratio is always defined.
        """
        block = self.block_of(element)
        return relative_cardinality(concept.members, block)

    def block_ratios(self, concept: Concept) -> dict[int, Fraction]:
        """Inclusion ratio per block index; constant across a block by construction."""
        self.check_concept(concept)
        return {
            i: Fraction(len(concept.members.intersection(block)), len(block))
            for i, block in enumerate(self.blocks)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ApproximationSpace({len(self.elements)} elements, {len(self.blocks)} blocks)"


Row = Mapping[str, str]


class Table(Sequence):
    """A CSV table read once, held as one tuple of values per column; it never changes.

    ``header`` names the columns and ``columns`` holds them in header order.
    As a sequence its items are the rows, each a read-only mapping from column
    name to value, built on each read and equal to the dict of the same items,
    so a table equals the list of those dicts.  Setting an attribute raises.
    As the table cannot change, :func:`concept_from_column` keeps the concept
    it reads per (column, id column) on it.
    """

    __slots__ = ("header", "columns", "_concepts")

    def __init__(self, header: Sequence[str], columns: Iterable[Sequence[str]]) -> None:
        header, columns = tuple(header), tuple(map(tuple, columns))
        if len(set(header)) != len(header) or len(columns) != len(header) or len(set(map(len, columns))) > 1:
            raise DataError("a table needs distinct column names and one column per name, all of one length")
        object.__setattr__(self, "header", header)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "_concepts", {})  # (column, id column) -> the Concept read from it

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def __getitem__(self, index):
        rows = range(len(self))[index]  # IndexError past either end; a range for a slice
        if isinstance(rows, range):
            return [self[i] for i in rows]
        return MappingProxyType(dict(zip(self.header, [column[rows] for column in self.columns])))

    def __iter__(self):
        header = self.header
        return (MappingProxyType(dict(zip(header, values))) for values in zip(*self.columns))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # equal to a list of dicts, which has no hash

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"Table is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # pickle and copy rebuild the table, as they cannot set its slots
        return Table, (self.header, self.columns)

    def __repr__(self) -> str:
        return f"Table({list(self.header)!r}, {len(self)} rows)"


def _read_columns(rows: Sequence[Row], id_column: Optional[str], columns: Sequence[str]) -> list[Sequence[str]]:
    """The id column (``id_column``, else the table's first), then each of ``columns``.

    A :class:`Table` gives its own column tuples; other rows are read a column
    at a time into lists.  The id column is read first, so an unknown one is
    named before any other.
    """
    if not rows:
        raise DataError("the table is empty")
    if isinstance(rows, Table):
        read = dict(zip(rows.header, rows.columns)).__getitem__
        id_column = rows.header[0] if id_column is None else id_column
    else:
        if id_column is None:
            if not rows[0]:
                raise DataError("the table has no columns")
            id_column = next(iter(rows[0]))
        read = lambda column: list(map(itemgetter(column), rows))
    try:
        return [read(column) for column in (id_column, *columns)]
    except KeyError as exc:
        raise DataError(f"unknown column {exc.args[0]!r}") from None


def from_attribute_table(
    rows: Sequence[Row],
    key_columns: Sequence[str],
    id_column: Optional[str] = None,
) -> ApproximationSpace:
    """Derive a space from a row-per-element table.

    Two elements land in the same block exactly when their ``key_columns``
    tuples are equal.  A single "community" column yields its values as block
    labels, like ``C3``; a multi-column key is labelled as one CSV record, a
    value that holds ``,`` or ``"`` quoted with its quotes doubled, so two
    keys never share a label.
    """
    elements, *keys = _read_columns(rows, id_column, key_columns)
    if not keys:
        raise DataError("at least one key column is required")
    groups: dict[tuple[str, ...], list[str]] = {}
    for element, key in zip(elements, zip(*keys)):
        groups.setdefault(key, []).append(element)
    labels = [k[0] if len(k) == 1 else ",".join(map(_csv_field, k)) for k in groups]
    return ApproximationSpace(elements, groups.values(), labels=labels)


def _csv_field(value: str) -> str:
    if "," in value or '"' in value:
        return '"' + value.replace('"', '""') + '"'
    return value


_TRUE_WORDS = {"1", "true", "yes", "y"}
_FALSE_WORDS = {"0", "false", "no", "n", ""}


def concept_from_column(rows: Sequence[Row], column: str, id_column: Optional[str] = None) -> Concept:
    """Read a concept from a boolean column of the table.

    On a :class:`Table` the concept is kept per (column, id column), and a
    repeated call returns the kept object; a refused column is not kept, so it
    is refused again on every call.
    """
    if not isinstance(rows, Table):
        return _read_concept(rows, column, id_column)
    kept = rows._concepts.get((column, id_column))
    if kept is None:
        kept = rows._concepts[column, id_column] = _read_concept(rows, column, id_column)
    return kept


def _read_concept(rows: Sequence[Row], column: str, id_column: Optional[str]) -> Concept:
    elements, values = _read_columns(rows, id_column, [column])
    words = {value: value.strip().lower() for value in set(values)}
    unknown = {value for value, word in words.items() if word not in _TRUE_WORDS and word not in _FALSE_WORDS}
    if unknown:
        row = next(i for i, value in enumerate(values) if value in unknown)  # the first in row order
        raise DataError(f"column {column!r} is not boolean: {values[row]!r} for {elements[row]!r}")
    true_values = {value for value, word in words.items() if word in _TRUE_WORDS}
    members = set(compress(elements, map(true_values.__contains__, values)))
    return Concept(frozenset(members), label=column)  # copied from a set, its hash table is sized to fit


def load_table(path: str) -> Table:
    """Read a CSV table into a :class:`Table`: header row required, first column is the element id.

    A leading byte-order mark is dropped and blank lines are skipped; a header
    that names a column twice is refused, and so is a row whose field count
    differs from the header's, a file that is not UTF-8, or one the csv module
    cannot parse (such as a field over its 131,072-character limit).  The rows
    are turned into columns once, and no dict is built per row.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path} has no header row")
            repeated = sorted(name for name, count in Counter(header).items() if count > 1)
            if repeated:
                raise DataError(f"{path} header repeats the column(s) {', '.join(map(repr, repeated))}")
            rows = []
            for fields in filter(None, reader):
                if len(fields) != len(header):
                    raise DataError(f"{path} line {reader.line_num} has {len(fields)} fields; "
                                    f"the header has {len(header)}")
                rows.append(fields)
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise DataError(f"{path} is not UTF-8 text: it holds the byte 0x{bad:02x}") from None
    except csv.Error as exc:  # e.g. a field past the csv module's size limit
        raise DataError(f"{path} line {reader.line_num} is not readable CSV: {exc}") from None
    if not rows:
        raise DataError(f"{path} has no data rows")
    return Table(header, zip(*rows))
