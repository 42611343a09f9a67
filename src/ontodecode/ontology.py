"""Class hierarchy storage and queries.

The ontology is a DAG of classes connected by parent edges, each class
optionally carrying And/Or restriction properties that point at other
classes. Everything is loaded from a single JSON document and is
immutable afterwards, so one instance can be shared freely across
threads and decode sessions.
"""

from __future__ import annotations

import gc
import json
import logging
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from pathlib import Path

from .lm import check_count

logger = logging.getLogger(__name__)

ClassId = str

RESTRICTION_KINDS = ("and", "or")

# Item checks for JSON arrays; all(map(_IS_STR, v)) is the fastest form.
_IS_STR = str.__instancecheck__
_IS_DICT = dict.__instancecheck__


class OntologyError(ValueError):
    """Raised when an ontology document fails validation."""


class UnknownClassError(KeyError):
    """Raised when a query references a class id that does not exist."""

    __str__ = Exception.__str__  # KeyError's would quote the message


@dataclass(frozen=True, slots=True)
class Restriction:
    """And/Or-combined (property, value-class) constraints on a class."""

    kind: str  # "and" | "or"
    pairs: tuple[tuple[str, ClassId], ...]

    def value_ids(self) -> tuple[ClassId, ...]:
        return tuple(value for _, value in self.pairs)


@dataclass(frozen=True, slots=True)
class OntologyClass:
    id: ClassId
    label: str
    synonyms: tuple[str, ...] = ()
    parents: tuple[ClassId, ...] = ()
    restrictions: tuple[Restriction, ...] = ()


@dataclass
class Ontology:
    """Immutable class graph with hierarchy and restriction queries, checked when built."""

    classes: dict[ClassId, OntologyClass]
    _children: dict[ClassId, tuple[ClassId, ...]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._children = _children_map(self.classes)

    def __contains__(self, class_id: ClassId) -> bool:
        return class_id in self.classes

    def __len__(self) -> int:
        return len(self.classes)

    def _require(self, class_id: ClassId) -> OntologyClass:
        try:
            return self.classes[class_id]
        except KeyError:
            raise UnknownClassError(f"unknown class id: {class_id!r}") from None

    def label(self, class_id: ClassId) -> str:
        return self._require(class_id).label

    def ancestors(self, class_id: ClassId) -> set[ClassId]:
        """All classes reachable via parent edges, excluding the class itself."""
        return self.closure(self._require(class_id).parents)

    def closure(self, class_ids: Iterable[ClassId]) -> set[ClassId]:
        """The given classes and every class reachable from them via parent edges."""
        closed = set(class_ids)
        for class_id in closed:
            self._require(class_id)
        classes = self.classes
        stack = list(closed)
        while stack:
            for parent in classes[stack.pop()].parents:
                if parent not in closed:
                    closed.add(parent)
                    stack.append(parent)
        return closed

    def descendants_within(self, class_id: ClassId, alpha: int) -> set[ClassId]:
        """Classes reachable via child edges in at most ``alpha`` hops.

        The class itself is excluded; ``alpha=0`` therefore yields the
        empty set.
        """
        check_count("alpha", alpha, low=0)
        self._require(class_id)
        seen: set[ClassId] = set()
        frontier = [class_id]
        for _ in range(alpha):
            nxt: list[ClassId] = []
            for current in frontier:
                for child in self._children[current]:
                    if child not in seen and child != class_id:
                        seen.add(child)
                        nxt.append(child)
            if not nxt:
                break
            frontier = nxt
        return seen

    def restriction_classes(self, class_id: ClassId) -> set[ClassId]:
        """Union of value classes over all restrictions of the class."""
        cls = self._require(class_id)
        values: set[ClassId] = set()
        for restriction in cls.restrictions:
            values.update(restriction.value_ids())
        return values

    def verbalize_restrictions(self, class_id: ClassId) -> str:
        """Render a class's restrictions as a natural-language string.

        Value labels of an And restriction are joined with single spaces,
        those of an Or restriction with " or ". Multiple restrictions are
        joined with " AND " in file order. No restrictions yields "".
        """
        cls = self._require(class_id)
        parts: list[str] = []
        for restriction in cls.restrictions:
            labels = [self.label(value) for value in restriction.value_ids()]
            if restriction.kind == "or":
                parts.append(" or ".join(labels))
            else:
                parts.append(" ".join(labels))
        return " AND ".join(parts)

    @classmethod
    def from_dict(cls, data: dict) -> "Ontology":
        """Build and check an ontology from the JSON interchange structure."""
        if not isinstance(data, dict) or "classes" not in data:
            raise OntologyError("document must be an object with a 'classes' array")
        raw_classes = data["classes"]
        if not isinstance(raw_classes, list):
            raise OntologyError("'classes' must be an array")

        classes: dict[ClassId, OntologyClass] = {}
        for entry in raw_classes:
            parsed = _parse_class(entry)
            if parsed.id in classes:
                raise OntologyError(f"duplicate class id: {parsed.id!r}")
            classes[parsed.id] = parsed

        onto = cls(classes=classes)
        excluded = data.get("excluded_roots", [])
        if not (isinstance(excluded, list) and all(map(_IS_STR, excluded))):
            raise OntologyError("'excluded_roots' must be an array of strings")
        removed: set[ClassId] = set()
        for root in excluded:
            if root not in classes:
                logger.warning("excluded root %r not present in ontology, skipping", root)
                continue
            removed |= {root} | onto.descendants_within(root, len(classes))
        return cls(classes=_drop_classes(classes, removed)) if removed else onto


def load_ontology(path: str | Path) -> Ontology:
    """Load, check, and prune an ontology from a JSON file.

    Cyclic garbage collection is paused while the document is parsed and
    built, and the caller's setting is restored afterwards.
    """
    path = Path(path)
    # The load allocates about ten containers per class and frees none of
    # them, so collector passes during it find nothing and cost a third of it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise OntologyError(f"{path}: not valid JSON: {exc}") from exc
        return Ontology.from_dict(data)
    finally:
        if enabled:
            gc.enable()


def _parse_class(entry: dict) -> OntologyClass:
    if not isinstance(entry, dict):
        raise OntologyError(f"class entry must be an object, got {type(entry).__name__}")
    class_id = entry.get("id")
    if not class_id or not isinstance(class_id, str):
        raise OntologyError(f"class entry missing non-empty 'id': {entry!r}")
    label = entry.get("label")
    if not label or not isinstance(label, str):
        raise OntologyError(f"class {class_id!r} missing non-empty 'label'")

    synonyms = entry.get("synonyms", [])
    if not (isinstance(synonyms, list) and all(map(_IS_STR, synonyms))):
        raise _not_an_array(class_id, "synonyms", "strings")
    parents = entry.get("parents", [])
    if not (isinstance(parents, list) and all(map(_IS_STR, parents))):
        raise _not_an_array(class_id, "parents", "strings")
    raw_restrictions = entry.get("restrictions", [])
    if not (isinstance(raw_restrictions, list) and all(map(_IS_DICT, raw_restrictions))):
        raise _not_an_array(class_id, "restrictions", "objects")

    restrictions: list[Restriction] = []
    for raw in raw_restrictions:
        kind = str(raw.get("kind", "")).lower()
        if kind not in RESTRICTION_KINDS:
            logger.warning("class %s: ignoring restriction with kind %r", class_id, raw.get("kind"))
            continue
        raw_pairs = raw.get("pairs", [])
        if not (isinstance(raw_pairs, list) and all(map(_is_pair, raw_pairs))):
            raise _not_an_array(class_id, "pairs", "objects with string 'property' and 'value'")
        if not raw_pairs:
            raise OntologyError(f"class {class_id!r}: restriction with empty 'pairs'")
        pairs = tuple((pair["property"], pair["value"]) for pair in raw_pairs)
        restrictions.append(Restriction(kind=kind, pairs=pairs))

    return OntologyClass(
        id=class_id,
        label=label,
        synonyms=tuple(synonyms),
        parents=tuple(parents),
        restrictions=tuple(restrictions),
    )


def _not_an_array(class_id: ClassId, key: str, items: str) -> OntologyError:
    return OntologyError(f"class {class_id!r}: {key!r} must be an array of {items}")


def _is_pair(pair: object) -> bool:
    return (isinstance(pair, dict) and isinstance(pair.get("property"), str)
            and isinstance(pair.get("value"), str))


def _children_map(classes: dict[ClassId, OntologyClass]) -> dict[ClassId, tuple[ClassId, ...]]:
    """Parent id -> child ids, in class order; every class has an entry.

    The walk that links the classes checks every parent reference and
    restriction value; then Kahn's algorithm checks for a cycle.
    """
    children: dict[ClassId, list[ClassId]] = {cid: [] for cid in classes}
    for cls in classes.values():
        for parent in cls.parents:
            if parent not in children:
                raise OntologyError(f"class {cls.id!r}: dangling parent reference {parent!r}")
            children[parent].append(cls.id)
        for restriction in cls.restrictions:
            for _, value in restriction.pairs:
                if value not in children:
                    raise OntologyError(f"class {cls.id!r}: dangling restriction value {value!r}")

    # A class is placed once every parent edge into it is.
    waiting = {cid: len(cls.parents) for cid, cls in classes.items()}
    placed = [cid for cid, count in waiting.items() if not count]
    for cid in placed:
        for child in children[cid]:
            waiting[child] -= 1
            if not waiting[child]:
                placed.append(child)
    if len(placed) < len(classes):
        # Each unplaced class has an unplaced parent: following them repeats a class on a cycle.
        cid = next(cid for cid, count in waiting.items() if count)
        seen: set[ClassId] = set()
        while cid not in seen:
            seen.add(cid)
            cid = next(parent for parent in classes[cid].parents if waiting[parent])
        raise OntologyError(f"cycle detected through class {cid!r}")
    return {cid: tuple(kids) for cid, kids in children.items()}


def _drop_classes(
    classes: dict[ClassId, OntologyClass], removed: set[ClassId]
) -> dict[ClassId, OntologyClass]:
    survivors: dict[ClassId, OntologyClass] = {}
    for cls in classes.values():
        if cls.id in removed:
            continue
        parents = tuple(p for p in cls.parents if p not in removed)
        restrictions: list[Restriction] = []
        for restriction in cls.restrictions:
            pairs = tuple(pair for pair in restriction.pairs if pair[1] not in removed)
            if len(pairs) < len(restriction.pairs):
                logger.warning(
                    "class %s: dropped restriction pairs pointing into an excluded branch",
                    cls.id,
                )
            if pairs:
                restrictions.append(Restriction(kind=restriction.kind, pairs=pairs))
        survivors[cls.id] = replace(cls, parents=parents, restrictions=tuple(restrictions))
    return survivors
