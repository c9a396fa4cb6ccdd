"""Tree-form logical queries over knowledge graphs.

This module is purely symbolic (no embeddings): it defines the query ASTs,
the fourteen benchmark query structures, the rewrite to disjunctive normal
form, a brute-force set-semantics answerer used as the ground-truth oracle,
and deterministic dataset generation from a triple store.

Queries are trees built from five node types:

    Nominal(entity)             -- the singleton set {entity}
    Projection(relation, child) -- { y : (x, relation, y) in G, x in child }
    Intersection(children)      -- set intersection, >= 2 children
    Union(children)             -- set union, >= 2 children
    Negation(child)             -- complement within the known entity set

The same node classes double as *templates*: in a template, ``Nominal.entity``
is an anchor slot index and ``Projection.relation`` a relation slot index.
``ground`` substitutes concrete ids into the slots.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Nominal",
    "Projection",
    "Intersection",
    "Union",
    "Negation",
    "ALL_STRUCTURES",
    "TRAIN_STRUCTURES",
    "EVAL_ONLY_STRUCTURES",
    "STRUCTURE_TEMPLATES",
    "structure_slots",
    "ground",
    "validate_ast",
    "to_dnf",
    "dnf_disjuncts",
    "KnowledgeGraph",
    "answer_symbolic",
    "one_hop_instances",
    "QueryInstance",
    "DatasetBundle",
    "random_split",
    "sample_instance",
    "generate_dataset",
    "write_queries_jsonl",
    "read_queries_jsonl",
    "write_triples_tsv",
    "read_triples_tsv",
    "write_id_map",
    "read_id_map",
]


# ---------------------------------------------------------------------------
# AST node types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Nominal:
    """Singleton set {entity}.  In templates, ``entity`` is an anchor slot."""

    entity: int


@dataclass(frozen=True)
class Projection:
    """Existential edge traversal: all entities reachable from the child set
    by one edge labeled ``relation``.  In templates, ``relation`` is a slot."""

    relation: int
    child: "Node"


@dataclass(frozen=True)
class Intersection:
    children: tuple


@dataclass(frozen=True)
class Union:
    children: tuple


@dataclass(frozen=True)
class Negation:
    child: "Node"


Node = Nominal | Projection | Intersection | Union | Negation


def _n(slot: int) -> Nominal:
    return Nominal(slot)


def _p(slot: int, child: Node) -> Projection:
    return Projection(slot, child)


def _i(*children: Node) -> Intersection:
    return Intersection(tuple(children))


def _u(*children: Node) -> Union:
    return Union(tuple(children))


# ---------------------------------------------------------------------------
# The fourteen benchmark structures
# ---------------------------------------------------------------------------

#: Structures used for both training and evaluation.
TRAIN_STRUCTURES = ("1p", "2p", "3p", "2i", "3i", "2in", "3in", "inp", "pin", "pni")

#: Structures held out of training and used for evaluation only.
EVAL_ONLY_STRUCTURES = ("pi", "ip", "2u", "up")

#: Canonical presentation order for reports.
ALL_STRUCTURES = (
    "1p", "2p", "3p", "2i", "3i", "pi", "ip", "2u", "up",
    "2in", "3in", "inp", "pin", "pni",
)

#: Slot-indexed templates.  Anchor slots and relation slots are numbered
#: independently, each 0..n-1 in left-to-right order of first appearance.
STRUCTURE_TEMPLATES: dict[str, Node] = {
    # projection chains
    "1p": _p(0, _n(0)),
    "2p": _p(1, _p(0, _n(0))),
    "3p": _p(2, _p(1, _p(0, _n(0)))),
    # intersections of edge constraints
    "2i": _i(_p(0, _n(0)), _p(1, _n(1))),
    "3i": _i(_p(0, _n(0)), _p(1, _n(1)), _p(2, _n(2))),
    # chain combined with an edge constraint
    "pi": _i(_p(1, _p(0, _n(0))), _p(2, _n(1))),
    # intersection followed by a projection
    "ip": _p(2, _i(_p(0, _n(0)), _p(1, _n(1)))),
    # unions
    "2u": _u(_p(0, _n(0)), _p(1, _n(1))),
    "up": _p(2, _u(_p(0, _n(0)), _p(1, _n(1)))),
    # negation variants
    "2in": _i(_p(0, _n(0)), Negation(_p(1, _n(1)))),
    "3in": _i(_p(0, _n(0)), _p(1, _n(1)), Negation(_p(2, _n(2)))),
    "inp": _p(2, _i(_p(0, _n(0)), Negation(_p(1, _n(1))))),
    "pin": _i(_p(1, _p(0, _n(0))), Negation(_p(2, _n(1)))),
    "pni": _i(Negation(_p(1, _p(0, _n(0)))), _p(2, _n(1))),
}


def _count_slots(node: Node) -> tuple[int, int]:
    if isinstance(node, Nominal):
        return node.entity + 1, 0
    if isinstance(node, Projection):
        a, r = _count_slots(node.child)
        return a, max(r, node.relation + 1)
    if isinstance(node, Negation):
        return _count_slots(node.child)
    a = r = 0
    for child in node.children:
        ca, cr = _count_slots(child)
        a, r = max(a, ca), max(r, cr)
    return a, r


_SLOTS: dict[str, tuple[int, int]] = {
    tag: _count_slots(template) for tag, template in STRUCTURE_TEMPLATES.items()
}


def structure_slots(tag: str) -> tuple[int, int]:
    """Return (number of anchor slots, number of relation slots) for a tag."""
    return _SLOTS[tag]


def ground(template: Node, anchors: Sequence[int], relations: Sequence[int]) -> Node:
    """Substitute concrete entity/relation ids into a slot-indexed template."""
    if isinstance(template, Nominal):
        return Nominal(int(anchors[template.entity]))
    if isinstance(template, Projection):
        return Projection(int(relations[template.relation]),
                          ground(template.child, anchors, relations))
    if isinstance(template, Negation):
        return Negation(ground(template.child, anchors, relations))
    cls = type(template)
    return cls(tuple(ground(c, anchors, relations) for c in template.children))


def validate_ast(node: Node, allow_root_negation: bool = False) -> None:
    """Raise ValueError on malformed trees (wrong node types, arity < 2 for
    intersection/union, or negation at the root unless explicitly allowed)."""
    if isinstance(node, Negation) and not allow_root_negation:
        raise ValueError("negation at the query root is not supported")
    _validate(node)


def _validate(node: Node) -> None:
    if isinstance(node, Nominal):
        if not isinstance(node.entity, int):
            raise ValueError("nominal entity must be an int id")
        return
    if isinstance(node, Projection):
        if not isinstance(node.relation, int):
            raise ValueError("projection relation must be an int id")
        _validate(node.child)
        return
    if isinstance(node, Negation):
        _validate(node.child)
        return
    if isinstance(node, (Intersection, Union)):
        if len(node.children) < 2:
            raise ValueError(f"{type(node).__name__} needs >= 2 children")
        for child in node.children:
            _validate(child)
        return
    raise ValueError(f"unknown AST node: {node!r}")


# ---------------------------------------------------------------------------
# Disjunctive normal form
# ---------------------------------------------------------------------------


def dnf_disjuncts(node: Node) -> list[Node]:
    """Return the list of union-free disjuncts equivalent to ``node``.

    Unions are pulled to the top by distributing projections and
    intersections over them and pushing negations through with De Morgan.
    """
    if isinstance(node, Nominal):
        return [node]
    if isinstance(node, Projection):
        return [Projection(node.relation, d) for d in dnf_disjuncts(node.child)]
    if isinstance(node, Negation):
        ds = dnf_disjuncts(node.child)
        if len(ds) == 1:
            return [Negation(ds[0])]
        # not (A or B)  ==  (not A) and (not B)
        return [Intersection(tuple(Negation(d) for d in ds))]
    if isinstance(node, Union):
        out: list[Node] = []
        for child in node.children:
            out.extend(dnf_disjuncts(child))
        return out
    if isinstance(node, Intersection):
        lists = [dnf_disjuncts(c) for c in node.children]
        out = []
        for combo in product(*lists):
            flat: list[Node] = []
            for part in combo:
                if isinstance(part, Intersection):
                    flat.extend(part.children)
                else:
                    flat.append(part)
            out.append(Intersection(tuple(flat)))
        return out
    raise ValueError(f"unknown AST node: {node!r}")


def to_dnf(node: Node) -> Node:
    """Rewrite so that Union appears only at the root (or not at all)."""
    ds = dnf_disjuncts(node)
    return ds[0] if len(ds) == 1 else Union(tuple(ds))


# ---------------------------------------------------------------------------
# Knowledge graph and the symbolic answerer
# ---------------------------------------------------------------------------


class KnowledgeGraph:
    """Immutable triple store with forward and backward adjacency indexes.

    Triples are (head, relation, tail) integer tuples.  All derived indexes
    use sorted tuples so that random sampling against them is deterministic
    under a seeded generator.
    """

    def __init__(self, triples: Iterable[tuple[int, int, int]],
                 n_entities: int, n_relations: int):
        tl = sorted({(int(h), int(r), int(t)) for h, r, t in triples})
        for h, r, t in tl:
            if not (0 <= h < n_entities and 0 <= t < n_entities):
                raise ValueError(f"entity id out of range in triple {(h, r, t)}")
            if not (0 <= r < n_relations):
                raise ValueError(f"relation id out of range in triple {(h, r, t)}")
        self.triples: tuple[tuple[int, int, int], ...] = tuple(tl)
        self.n_entities = int(n_entities)
        self.n_relations = int(n_relations)

        out: dict[tuple[int, int], list[int]] = {}
        incoming: dict[int, list[tuple[int, int]]] = {}
        for h, r, t in tl:
            out.setdefault((h, r), []).append(t)
            incoming.setdefault(t, []).append((h, r))
        self._out = {k: tuple(v) for k, v in out.items()}
        self._incoming = {k: tuple(v) for k, v in incoming.items()}
        #: entities that have at least one incoming edge (sorted)
        self.reachable: tuple[int, ...] = tuple(sorted(self._incoming))

    def successors(self, head: int, relation: int) -> tuple[int, ...]:
        return self._out.get((head, relation), ())

    def incoming(self, tail: int) -> tuple[tuple[int, int], ...]:
        """All (head, relation) pairs with an edge into ``tail``."""
        return self._incoming.get(tail, ())


#: A compiled answerer: maps (anchors, relations, graph) to the answer set.
Answerer = Callable[[Sequence[int], Sequence[int], KnowledgeGraph], frozenset[int]]


def _checked_entity(e: int, graph: KnowledgeGraph) -> int:
    if not (0 <= e < graph.n_entities):
        raise ValueError(f"unknown entity id {e}")
    return e


def _checked_relation(r: int, graph: KnowledgeGraph) -> int:
    if not (0 <= r < graph.n_relations):
        raise ValueError(f"unknown relation id {r}")
    return r


def _compile(node: Node) -> Answerer:
    """Compile a query tree into a closure that answers it by bottom-up set
    evaluation; ``Nominal.entity`` and ``Projection.relation`` index the
    closure's ``anchors`` and ``relations``.  Children are answered in
    order, so the first out-of-range id is the one reported.  The set
    semantics are those of ``answer_symbolic``."""
    if isinstance(node, Nominal):
        slot = node.entity

        def nominal(anchors, relations, graph):
            return frozenset((_checked_entity(anchors[slot], graph),))
        return nominal
    if isinstance(node, Projection):
        slot = node.relation
        if isinstance(node.child, Nominal):
            head = node.child.entity

            def edge(anchors, relations, graph):
                r = _checked_relation(relations[slot], graph)
                return frozenset(graph.successors(_checked_entity(anchors[head], graph), r))
            return edge
        child = _compile(node.child)

        def project(anchors, relations, graph):
            r = _checked_relation(relations[slot], graph)
            out: set[int] = set()
            for e in child(anchors, relations, graph):
                out.update(graph.successors(e, r))
            return frozenset(out)
        return project
    if isinstance(node, Intersection):
        subtract = not all(isinstance(c, Negation) for c in node.children)
        parts = []
        for c in node.children:
            negated = subtract and isinstance(c, Negation)
            parts.append((negated, _compile(c.child if negated else c)))

        def intersect(anchors, relations, graph):
            kept, removed = [], []
            for negated, answer in parts:
                (removed if negated else kept).append(answer(anchors, relations, graph))
            acc = kept[0]
            for p in kept[1:]:
                acc &= p
            for p in removed:
                acc -= p
            return acc
        return intersect
    if isinstance(node, Union):
        children = [_compile(c) for c in node.children]

        def union(anchors, relations, graph):
            acc = frozenset()
            for answer in children:
                acc |= answer(anchors, relations, graph)
            return acc
        return union
    if isinstance(node, Negation):
        inner = _compile(node.child)

        def complement(anchors, relations, graph):
            return frozenset(range(graph.n_entities)) - inner(anchors, relations, graph)
        return complement
    raise ValueError(f"unknown AST node: {node!r}")


class _OwnIds:
    """The slot table of a grounded tree: slot i holds id i."""

    def __getitem__(self, i: int) -> int:
        return i


#: Each structure template compiled once; answers a grounding directly from
#: its anchor and relation ids, without building the grounded tree.
_ANSWERERS: dict[str, Answerer] = {
    tag: _compile(template) for tag, template in STRUCTURE_TEMPLATES.items()
}


def answer_symbolic(node: Node, graph: KnowledgeGraph) -> frozenset[int]:
    """Exact answer set by bottom-up set evaluation.

    Negation is the complement within the graph's known entity ids
    (the closed-domain reading: every individual is one of the known ids).
    An intersection with at least one non-negated child never builds that
    complement: every answer set lies inside the known ids, so it subtracts
    the negated children's answers from the intersection of the others.
    A projection of a nominal reads the successor index directly.
    """
    ids = _OwnIds()
    return _compile(node)(ids, ids, graph)


# ---------------------------------------------------------------------------
# Query instances and dataset generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryInstance:
    """A grounded query plus its answer split.

    ``easy`` answers are derivable on the smaller (observed) graph; ``hard``
    answers require the held-out edges.  For training instances ``hard`` is
    empty and ``easy`` holds the supervision targets.
    """

    structure: str
    anchors: tuple[int, ...]
    relations: tuple[int, ...]
    easy: tuple[int, ...]
    hard: tuple[int, ...]

    def ast(self) -> Node:
        return ground(STRUCTURE_TEMPLATES[self.structure], self.anchors, self.relations)


def _choice(rng: np.random.Generator, seq: Sequence) -> object:
    return seq[int(rng.integers(len(seq)))]


#: Raw 32-bit words ``_DrawStream`` takes from its generator per call.
_BLOCK = 4096
_SPAN = 1 << 32
_LOW = _SPAN - 1


class _DrawStream:
    """A generator's bounded draws, taken from a buffer of its raw words.

    ``integers(n)`` returns exactly what ``Generator.integers(n)`` returns
    for 1 <= n <= 2**32.  numpy draws such a bound from one 32-bit word x at
    a time by Lemire's rule: m = x*n, draw again while (m mod 2**32) <
    (2**32 - n) mod n, return m >> 32; n == 1 draws nothing.  The buffer
    holds ``_BLOCK`` words from one ``integers(0, 2**32, dtype=uint32)``
    call, the same 32-bit stream, so the draws are the same numbers at
    about a fifth of a scalar call's cost.  The generator ends up to one
    block further on than the scalar calls would leave it.
    """

    __slots__ = ("_rng", "_pop")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._pop = [].pop

    def _refill(self) -> int:
        words = self._rng.integers(0, _SPAN, size=_BLOCK, dtype=np.uint32).tolist()
        words.reverse()
        self._pop = words.pop
        return self._pop()

    def integers(self, n: int) -> int:
        if not 1 < n <= _SPAN:
            if n == 1:
                return 0
            raise ValueError(f"bound {n} outside [1, 2**32]")
        while True:
            try:
                m = self._pop() * n
            except IndexError:
                m = self._refill() * n
            low = m & _LOW
            # the rejection threshold is below n, so most words skip the modulo
            if low >= n or low >= (_SPAN - n) % n:
                return m >> 32


#: A compiled walk: (rng, target, graph, anchors, relations) -> bool.
Walker = Callable[[np.random.Generator, int, KnowledgeGraph, dict, dict], bool]


def _compile_walk(node: Node) -> Walker:
    """Compile a template into a closure that grounds its slots so that
    ``target`` is among its answers, writing slot -> id into ``anchors`` and
    ``relations``; the rng is drawn in the tree's left-to-right order.

    Negated children are grounded *freely*, at a random reachable target (no
    target constraint); the caller re-checks the combined answer set
    afterwards.  The closure returns False when the graph cannot support the
    walk from ``target``.
    """
    if isinstance(node, Nominal):
        slot = node.entity

        def nominal(rng, target, graph, anchors, relations):
            anchors[slot] = target
            return True
        return nominal
    if isinstance(node, Projection):
        slot, child = node.relation, _compile_walk(node.child)

        def project(rng, target, graph, anchors, relations):
            edges = graph.incoming(target)
            if not edges:
                return False
            head, rel = _choice(rng, edges)
            relations[slot] = rel
            return child(rng, head, graph, anchors, relations)
        return project
    if isinstance(node, Intersection):
        parts = []
        for c in node.children:
            free = isinstance(c, Negation)
            parts.append((free, _compile_walk(c.child if free else c)))

        def intersect(rng, target, graph, anchors, relations):
            for free, walk in parts:
                if free:
                    if not graph.reachable:
                        return False
                    at = int(_choice(rng, graph.reachable))
                else:
                    at = target
                if not walk(rng, at, graph, anchors, relations):
                    return False
            return True
        return intersect
    if isinstance(node, Union):
        # Ground every branch at the target: the union then surely contains it.
        children = [_compile_walk(c) for c in node.children]

        def union(rng, target, graph, anchors, relations):
            return all(walk(rng, target, graph, anchors, relations) for walk in children)
        return union

    def unsupported(rng, target, graph, anchors, relations):
        raise ValueError(f"cannot sample structure node {node!r}")
    return unsupported


#: Each structure template's walk, compiled once.
_WALKERS: dict[str, Walker] = {
    tag: _compile_walk(template) for tag, template in STRUCTURE_TEMPLATES.items()
}


def one_hop_instances(graph: KnowledgeGraph) -> list[QueryInstance]:
    """One 1p training instance per distinct (head, relation) pair, covering
    every edge of the graph exactly once (easy answers = all tails)."""
    by_pair: dict[tuple[int, int], list[int]] = {}
    for h, r, t in graph.triples:
        by_pair.setdefault((h, r), []).append(t)
    return [
        QueryInstance("1p", (h,), (r,), tuple(sorted(tails)), ())
        for (h, r), tails in sorted(by_pair.items())
    ]


#: Walks ``sample_instance`` tries before it gives up on one instance.
MAX_ATTEMPTS = 100


def sample_instance(rng: np.random.Generator, structure: str,
                    small_graph: KnowledgeGraph,
                    full_graph: KnowledgeGraph | None = None) -> QueryInstance | None:
    """Sample one grounded instance of ``structure``.

    Without ``full_graph`` the instance needs easy answers on the small
    graph (a training instance); with it, hard answers, those on the full
    graph but not on the small one.  Anchors are walked backward from a
    target answer drawn on the graph whose answers must be nonempty, the
    full one when given (so held-out edges can be reached).  Returns None if
    no valid instance is found within ``MAX_ATTEMPTS`` walks.
    """
    walk = _WALKERS[structure]
    answer = _ANSWERERS[structure]
    n_anchor, n_rel = structure_slots(structure)
    walk_graph = small_graph if full_graph is None else full_graph
    if not walk_graph.reachable:
        return None
    for _ in range(MAX_ATTEMPTS):
        anchors: dict[int, int] = {}
        relations: dict[int, int] = {}
        target = int(_choice(rng, walk_graph.reachable))
        if not walk(rng, target, walk_graph, anchors, relations):
            continue
        if len(anchors) != n_anchor or len(relations) != n_rel:
            continue
        anc = tuple(anchors[i] for i in range(n_anchor))
        rel = tuple(relations[i] for i in range(n_rel))
        easy = answer(anc, rel, small_graph)
        if full_graph is None:
            if not easy:
                continue
            hard: frozenset[int] = frozenset()
        else:
            hard = answer(anc, rel, full_graph) - easy
            if not hard:
                continue
        return QueryInstance(structure, anc, rel,
                             tuple(sorted(easy)), tuple(sorted(hard)))
    return None


@dataclass
class DatasetBundle:
    """Everything produced by one generation run."""

    train: list[QueryInstance]
    valid: list[QueryInstance]
    test: list[QueryInstance]
    train_graph: KnowledgeGraph
    valid_graph: KnowledgeGraph  # train + valid triples
    full_graph: KnowledgeGraph   # train + valid + test triples
    shortfalls: dict[str, dict[str, int]]  # split -> {structure: missing count}


def random_split(triples: Sequence[tuple[int, int, int]],
                 ratios: tuple[float, float, float],
                 seed: int) -> tuple[list, list, list]:
    """Shuffle-split triples into train/valid/test by the given ratios."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("split ratios must sum to 1")
    rng = np.random.default_rng(seed)
    tl = sorted({(int(h), int(r), int(t)) for h, r, t in triples})
    order = rng.permutation(len(tl))
    n_train = int(round(ratios[0] * len(tl)))
    n_valid = int(round(ratios[1] * len(tl)))
    train = [tl[i] for i in order[:n_train]]
    valid = [tl[i] for i in order[n_train:n_train + n_valid]]
    test = [tl[i] for i in order[n_train + n_valid:]]
    return train, valid, test


def generate_dataset(train_triples: Sequence[tuple[int, int, int]],
                     valid_triples: Sequence[tuple[int, int, int]],
                     test_triples: Sequence[tuple[int, int, int]],
                     n_entities: int, n_relations: int,
                     counts: dict[str, int],
                     seed: int = 0) -> DatasetBundle:
    """Generate query instances for every requested structure and split.

    Train queries are answered on the train graph alone.  Valid instances
    must have a nonempty hard-answer set against train+valid; test instances
    against train+valid+test (easy answers coming from train+valid).
    Structures that cannot be instantiated often enough are reported in
    ``shortfalls`` rather than failing the run.  Deterministic under ``seed``.
    """
    train_graph = KnowledgeGraph(train_triples, n_entities, n_relations)
    valid_graph = KnowledgeGraph(list(train_triples) + list(valid_triples),
                                 n_entities, n_relations)
    full_graph = KnowledgeGraph(list(train_triples) + list(valid_triples)
                                + list(test_triples), n_entities, n_relations)
    # its own generator, whose final state nobody reads, so it may draw ahead
    rng = _DrawStream(np.random.default_rng(seed))
    shortfalls: dict[str, dict[str, int]] = {"train": {}, "valid": {}, "test": {}}

    def fill(split: str, small: KnowledgeGraph, full: KnowledgeGraph | None,
             structures: Sequence[str]) -> list[QueryInstance]:
        out: list[QueryInstance] = []
        for tag in structures:
            want = counts.get(tag, 0)
            got = 0
            for _ in range(want):
                inst = sample_instance(rng, tag, small, full)
                if inst is not None:
                    out.append(inst)
                    got += 1
            if got < want:
                shortfalls[split][tag] = want - got
        return out

    train = fill("train", train_graph, None, TRAIN_STRUCTURES)
    valid = fill("valid", train_graph, valid_graph, ALL_STRUCTURES)
    test = fill("test", valid_graph, full_graph, ALL_STRUCTURES)
    return DatasetBundle(train, valid, test, train_graph, valid_graph,
                         full_graph, shortfalls)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


#: The keys of one JSONL query record, in the order they are written.
_RECORD_KEYS = ("structure", "anchors", "relations", "easy", "hard")


def write_queries_jsonl(path: str, instances: Iterable[QueryInstance]) -> None:
    """One instance per line:
    {"structure":"pi","anchors":[...],"relations":[...],"easy":[...],"hard":[...]}
    """
    with open(path, "w", encoding="utf-8") as fh:
        for q in instances:
            rec = {
                "structure": q.structure,
                "anchors": list(q.anchors),
                "relations": list(q.relations),
                "easy": list(q.easy),
                "hard": list(q.hard),
            }
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def read_queries_jsonl(path: str) -> list[QueryInstance]:
    """Instances as ``write_queries_jsonl`` writes them.  A line that is not
    JSON or not an object, or a record that misses a key, names an unknown
    structure, holds an id that is not a JSON integer, or whose anchors and
    relations do not fill its structure's slots, raises ValueError naming
    ``path:line``."""
    out: list[QueryInstance] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: not JSON ({exc})") from None
            if not isinstance(rec, dict):
                raise ValueError(f"{where}: expected a JSON object, got {line!r}")
            for key in _RECORD_KEYS:
                if key not in rec:
                    raise ValueError(f"{where}: record misses key {key!r}")
            tag = rec["structure"]
            if not isinstance(tag, str) or tag not in STRUCTURE_TEMPLATES:
                raise ValueError(f"{where}: unknown structure tag {tag!r}")
            for key in _RECORD_KEYS[1:]:
                if not isinstance(rec[key], list) or any(type(i) is not int for i in rec[key]):
                    raise ValueError(f"{where}: {key} must be a list of integer ids, "
                                     f"got {rec[key]!r}")
            n_anchors, n_relations = _SLOTS[tag]
            got = len(rec["anchors"]), len(rec["relations"])
            if got != (n_anchors, n_relations):
                raise ValueError(f"{where}: {tag} needs {n_anchors} anchors and {n_relations} "
                                 f"relations, got {got[0]} and {got[1]}")
            out.append(QueryInstance(tag, *(tuple(rec[key]) for key in _RECORD_KEYS[1:])))
    return out


def write_triples_tsv(path: str, triples: Iterable[tuple[int, int, int]],
                      entity_names: Sequence[str],
                      relation_names: Sequence[str]) -> None:
    """head<TAB>relation<TAB>tail with string names."""
    with open(path, "w", encoding="utf-8") as fh:
        for h, r, t in triples:
            fh.write(f"{entity_names[h]}\t{relation_names[r]}\t{entity_names[t]}\n")


def read_triples_tsv(path: str,
                     entity_ids: dict[str, int] | None = None,
                     relation_ids: dict[str, int] | None = None,
                     ) -> tuple[list[tuple[int, int, int]], dict[str, int], dict[str, int]]:
    """Read a named-triple TSV.

    When id maps are not supplied, ids are assigned in order of first
    appearance.  Returns (triples, entity_ids, relation_ids).
    """
    own_e = entity_ids is None
    own_r = relation_ids is None
    ents: dict[str, int] = {} if own_e else dict(entity_ids)
    rels: dict[str, int] = {} if own_r else dict(relation_ids)
    triples: list[tuple[int, int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{ln}: expected 3 tab-separated fields")
            h, r, t = parts
            for name, table, own in ((h, ents, own_e), (r, rels, own_r), (t, ents, own_e)):
                if name not in table:
                    if not own:
                        raise ValueError(f"{path}:{ln}: unknown name {name!r}")
                    table[name] = len(table)
            triples.append((ents[h], rels[r], ents[t]))
    return triples, ents, rels


def write_id_map(path: str, names: Sequence[str]) -> None:
    """id<TAB>name lines, ids 0..n-1 in order."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, name in enumerate(names):
            fh.write(f"{i}\t{name}\n")


def read_id_map(path: str) -> list[str]:
    """Names as ``write_id_map`` writes them, one ``id<TAB>name`` per line.
    A line with no tab, an id that is not an integer or an id seen before
    raises ValueError naming ``path:line``; the ids must be exactly 0..n-1."""
    names: dict[int, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            where = f"{path}:{ln}"
            idx, tab, name = line.partition("\t")
            if not tab:
                raise ValueError(f"{where}: expected id<TAB>name, got {line!r}")
            try:
                i = int(idx)
            except ValueError:
                raise ValueError(f"{where}: id {idx!r} is not an integer") from None
            if i in names:
                raise ValueError(f"{where}: repeats id {i} (already {names[i]!r})")
            names[i] = name
    if sorted(names) != list(range(len(names))):
        raise ValueError(f"{path}: ids must be exactly 0..n-1")
    return [names[i] for i in range(len(names))]
