"""Class hierarchy storage and queries.

The ontology is a DAG of classes connected by parent edges, each class
optionally carrying And/Or restriction properties that point at other
classes. Everything is loaded from a single JSON document and is
immutable afterwards, so one instance can be shared freely across
threads and decode sessions.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

logger = logging.getLogger(__name__)

ClassId = str

RESTRICTION_KINDS = ("and", "or")


class OntologyError(ValueError):
    """Raised when an ontology document fails validation."""


class UnknownClassError(KeyError):
    """Raised when a query references a class id that does not exist."""


@dataclass(frozen=True)
class Restriction:
    """And/Or-combined (property, value-class) constraints on a class."""

    kind: str  # "and" | "or"
    pairs: tuple[tuple[str, ClassId], ...]

    def value_ids(self) -> tuple[ClassId, ...]:
        return tuple(value for _, value in self.pairs)


@dataclass(frozen=True)
class OntologyClass:
    id: ClassId
    label: str
    synonyms: tuple[str, ...] = ()
    parents: tuple[ClassId, ...] = ()
    restrictions: tuple[Restriction, ...] = ()


@dataclass
class Ontology:
    """Immutable class graph with hierarchy and restriction queries."""

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
        self._require(class_id)
        seen: set[ClassId] = set()
        queue = deque(self.classes[class_id].parents)
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            queue.extend(self.classes[current].parents)
        return seen

    def descendants_within(self, class_id: ClassId, alpha: int) -> set[ClassId]:
        """Classes reachable via child edges in at most ``alpha`` hops.

        The class itself is excluded; ``alpha=0`` therefore yields the
        empty set.
        """
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
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
        """Build and validate an ontology from the JSON interchange structure."""
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

        _check_references(classes)
        _check_acyclic(classes)

        onto = cls(classes=classes)
        removed: set[ClassId] = set()
        for root in data.get("excluded_roots", []):
            if root not in classes:
                logger.warning("excluded root %r not present in ontology, skipping", root)
                continue
            removed |= {root} | onto.descendants_within(root, len(classes))
        return cls(classes=_drop_classes(classes, removed)) if removed else onto


def load_ontology(path: str | Path) -> Ontology:
    """Load, validate, and prune an ontology from a JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise OntologyError(f"{path}: not valid JSON: {exc}") from exc
    return Ontology.from_dict(data)


def _parse_class(entry: dict) -> OntologyClass:
    if not isinstance(entry, dict):
        raise OntologyError(f"class entry must be an object, got {type(entry).__name__}")
    class_id = entry.get("id")
    if not class_id or not isinstance(class_id, str):
        raise OntologyError(f"class entry missing non-empty 'id': {entry!r}")
    label = entry.get("label")
    if not label or not isinstance(label, str):
        raise OntologyError(f"class {class_id!r} missing non-empty 'label'")

    restrictions: list[Restriction] = []
    for raw in entry.get("restrictions", []):
        kind = str(raw.get("kind", "")).lower()
        if kind not in RESTRICTION_KINDS:
            logger.warning("class %s: ignoring restriction with kind %r", class_id, raw.get("kind"))
            continue
        pairs = tuple(
            (str(pair["property"]), str(pair["value"])) for pair in raw.get("pairs", [])
        )
        if not pairs:
            raise OntologyError(f"class {class_id!r}: restriction with empty 'pairs'")
        restrictions.append(Restriction(kind=kind, pairs=pairs))

    return OntologyClass(
        id=class_id,
        label=label,
        synonyms=tuple(str(s) for s in entry.get("synonyms", [])),
        parents=tuple(str(p) for p in entry.get("parents", [])),
        restrictions=tuple(restrictions),
    )


def _check_references(classes: dict[ClassId, OntologyClass]) -> None:
    for cls in classes.values():
        for parent in cls.parents:
            if parent not in classes:
                raise OntologyError(f"class {cls.id!r}: dangling parent reference {parent!r}")
        for restriction in cls.restrictions:
            for value in restriction.value_ids():
                if value not in classes:
                    raise OntologyError(
                        f"class {cls.id!r}: dangling restriction value {value!r}"
                    )


def _check_acyclic(classes: dict[ClassId, OntologyClass]) -> None:
    # Iterative three-color DFS over parent edges.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {cid: WHITE for cid in classes}
    for start in classes:
        if color[start] != WHITE:
            continue
        stack: list[tuple[ClassId, int]] = [(start, 0)]
        color[start] = GRAY
        while stack:
            node, idx = stack[-1]
            parents = classes[node].parents
            if idx < len(parents):
                stack[-1] = (node, idx + 1)
                nxt = parents[idx]
                if color[nxt] == GRAY:
                    raise OntologyError(f"cycle detected through class {nxt!r}")
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, 0))
            else:
                color[node] = BLACK
                stack.pop()


def _children_map(classes: dict[ClassId, OntologyClass]) -> dict[ClassId, tuple[ClassId, ...]]:
    """Parent id -> child ids, in class order; every class has an entry."""
    children: dict[ClassId, list[ClassId]] = {cid: [] for cid in classes}
    for cls in classes.values():
        for parent in cls.parents:
            children[parent].append(cls.id)
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
