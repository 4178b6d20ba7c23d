"""The seeded bibliographic data exchange and its independent oracles.

A source instance lists who wrote which paper (``Wrote(author,
paper)``) and, for most papers, where it appeared (``InVenue(paper,
venue)``).  The target rules are those of a dblp-style exchange::

    r1: Wrote(a, p) -> Paper(p, v), Author(a)
    e1: Paper(p, v), InVenue(p, w) -> v = w
    r2: Wrote(a, p), Wrote(b, p) -> Coauth(a, b)

Everything the checks compare against is computed here directly from
the generated source data, never with the library under test: the
co-author pairs, the venue-resolved ``Paper`` facts, and the answers
of the seeded conjunctive queries (a small hash join of its own).
Derived-fact counts are never compared: how many ``Paper(p, null)``
facts a venue-less paper keeps depends on trigger order, and every
such count is a correct chase result.
"""

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

SIGMA_TEXT = """\
r1: Wrote(a, p) -> Paper(p, v), Author(a)
e1: Paper(p, v), InVenue(p, w) -> v = w
r2: Wrote(a, p), Wrote(b, p) -> Coauth(a, b)
"""

#: Authors per paper and their weights (mean 2.3).
AUTHORS_PER_PAPER = ((1, 2), (2, 4), (3, 3), (4, 1))
VENUES = 60
#: Share of papers whose venue the source knows.
VENUE_SHARE = 0.9


@dataclass
class Exchange:
    """One generated source instance and what its chase must contain."""

    text: str
    source_facts: int
    wrote: List[Tuple[str, str]]
    venue: Dict[str, str]          # paper -> venue, for papers with one
    papers: FrozenSet[str]
    authors: FrozenSet[str]
    coauth: FrozenSet[Tuple[str, str]]


def generate(seed: int, index: int, papers: int) -> Exchange:
    """The ``index``-th exchange of the ``seed`` stream (pure function
    of its arguments; string seeds hash identically in every
    process)."""
    rng = random.Random(f"perfbench-exchange:{seed}:{index}")
    n_authors = max(2, papers // 2)
    sizes = [size for size, _ in AUTHORS_PER_PAPER]
    weights = [weight for _, weight in AUTHORS_PER_PAPER]
    lines: List[str] = []
    wrote: List[Tuple[str, str]] = []
    venue: Dict[str, str] = {}
    by_paper: Dict[str, List[str]] = {}
    for number in range(papers):
        paper = f"p{number}"
        size = rng.choices(sizes, weights)[0]
        names = [f"a{a}" for a in rng.sample(range(n_authors), size)]
        by_paper[paper] = names
        for author in names:
            wrote.append((author, paper))
            lines.append(f"Wrote({author}, {paper})")
        if rng.random() < VENUE_SHARE:
            venue[paper] = f"v{rng.randrange(VENUES)}"
            lines.append(f"InVenue({paper}, {venue[paper]})")
    coauth = frozenset((a, b) for names in by_paper.values()
                       for a in names for b in names)
    return Exchange(text="\n".join(lines) + "\n", source_facts=len(lines),
                    wrote=wrote, venue=venue,
                    papers=frozenset(by_paper),
                    authors=frozenset(a for a, _ in wrote), coauth=coauth)


def check_chase(exchange: Exchange, facts_by_relation) -> List[str]:
    """Mismatches between a chased target and the exchange's
    definition.  ``facts_by_relation`` maps a relation name to a set
    of argument tuples in which constants are ``str`` and labeled
    nulls are any other value."""
    errors: List[str] = []

    def rel(name):
        return facts_by_relation.get(name, set())

    coauth = rel("Coauth")
    if coauth != exchange.coauth:
        missing = len(exchange.coauth - coauth)
        extra = len(coauth - exchange.coauth)
        errors.append(f"Coauth: {missing} pairs missing, {extra} extra")
    authors = {row[0] for row in rel("Author")}
    if authors != exchange.authors:
        errors.append(f"Author: {len(authors ^ exchange.authors)} "
                      "authors differ")
    resolved = {(p, v) for p, v in rel("Paper") if isinstance(v, str)}
    expected = set(exchange.venue.items())
    if resolved != expected:
        errors.append(f"Paper: {len(expected - resolved)} venue-resolved "
                      f"facts missing, {len(resolved - expected)} extra")
    open_papers = {p for p, v in rel("Paper") if not isinstance(v, str)}
    if open_papers != exchange.papers - set(exchange.venue):
        errors.append("Paper: the papers left with an unknown venue are "
                      "not exactly those without an InVenue fact")
    if rel("Wrote") != set(exchange.wrote):
        errors.append("Wrote: source facts changed")
    if rel("InVenue") != expected:
        errors.append("InVenue: source facts changed")
    return errors


# ----------------------------------------------------------------------
# Seeded conjunctive queries and their reference answers
# ----------------------------------------------------------------------
#: name -> query template; ``{A}`` is a seeded author, ``{V}`` a venue.
QUERY_SHAPES = {
    "coauth_2hop": "q(b) <- Coauth('{A}', x), Coauth(x, b)",
    "coauth_3hop": "q(c) <- Coauth('{A}', x), Coauth(x, y), Coauth(y, c)",
    "venue_authors": "q(a) <- Paper(p, '{V}'), Wrote(a, p)",
    "venue_coauthors": "q(a, b) <- Paper(p, '{V}'), Wrote(a, p), "
                       "Coauth(a, b), Author(b)",
    "path_4atom": "q(v) <- Coauth('{A}', x), Coauth(x, y), Wrote(y, p), "
                  "Paper(p, v)",
}


def generate_queries(seed: int, exchange: Exchange, count: int
                     ) -> List[Tuple[str, str]]:
    """``count`` (shape, query text) pairs cycling the shapes, each
    anchored at a seeded author or venue.

    The anchors are a stratified sample: a shape's ``n`` queries take
    one anchor from each of ``n`` equal slices of the authors (venues)
    ordered by how many co-authors (papers) they have, at a seeded
    place within the slice.  A query's cost follows its anchor's
    degree, so a plain random sample moved the slowest tenth of the
    queries, and ``op_p90_ms`` with it, by a sixth from seed to seed."""
    rng = random.Random(f"perfbench-queries:{seed}")
    degree: Dict[str, int] = {}
    for a, _ in exchange.coauth:
        degree[a] = degree.get(a, 0) + 1
    papers: Dict[str, int] = {}
    for venue in exchange.venue.values():
        papers[venue] = papers.get(venue, 0) + 1
    authors = sorted(exchange.authors, key=lambda a: (degree[a], a))
    venues = sorted(papers, key=lambda v: (papers[v], v))
    shapes = sorted(QUERY_SHAPES)
    per_shape = [len(range(number, count, len(shapes)))
                 for number in range(len(shapes))]

    def anchor(pool, stratum, strata):
        low = stratum * len(pool) // strata
        high = max(low + 1, (stratum + 1) * len(pool) // strata)
        return pool[rng.randrange(low, high)]

    queries = []
    for number in range(count):
        shape = number % len(shapes)
        stratum, strata = number // len(shapes), per_shape[shape]
        text = QUERY_SHAPES[shapes[shape]].format(
            A=anchor(authors, stratum, strata),
            V=anchor(venues, stratum, strata))
        queries.append((shapes[shape], text))
    rng.shuffle(queries)
    return queries


class ReferenceDatabase:
    """The chased target, built from the source data alone, with a
    backtracking hash join for conjunctive queries.

    A venue-less paper carries one private marker in place of the
    unknown venue; answers containing a marker are dropped, which is
    exactly the constants-only certain-answer semantics."""

    def __init__(self, exchange: Exchange) -> None:
        relations: Dict[str, Set[tuple]] = {
            "Wrote": set(exchange.wrote),
            "InVenue": set(exchange.venue.items()),
            "Paper": {(p, exchange.venue.get(p) or object())
                      for p in exchange.papers},
            "Author": {(a,) for a in exchange.authors},
            "Coauth": set(exchange.coauth),
        }
        # relation -> position -> value -> rows
        self._index: Dict[str, Dict[int, Dict[object, List[tuple]]]] = {}
        self._rows = relations
        for name, rows in relations.items():
            per_position: Dict[int, Dict[object, List[tuple]]] = {}
            for row in rows:
                for position, value in enumerate(row):
                    per_position.setdefault(position, {}) \
                        .setdefault(value, []).append(row)
            self._index[name] = per_position

    def answers(self, head: List[str], body: List[Tuple[str, List[str]]]
                ) -> Set[tuple]:
        """Answers of ``head <- body``; variables are lower-case names
        listed in ``head`` or ``body``, constants carry a leading
        ``=``."""
        results: Set[tuple] = set()

        def candidates(relation, args, binding):
            for position, arg in enumerate(args):
                value = (arg[1:] if arg.startswith("=")
                         else binding.get(arg))
                if value is not None:
                    return self._index[relation].get(position, {}) \
                        .get(value, [])
            return self._rows[relation]

        def extend(depth, binding):
            if depth == len(body):
                row = tuple(binding[var] for var in head)
                if all(isinstance(value, str) for value in row):
                    results.add(row)
                return
            relation, args = body[depth]
            for row in candidates(relation, args, binding):
                added = []
                ok = True
                for arg, value in zip(args, row):
                    if arg.startswith("="):
                        ok = arg[1:] == value
                    elif arg in binding:
                        ok = binding[arg] == value
                    else:
                        binding[arg] = value
                        added.append(arg)
                    if not ok:
                        break
                if ok:
                    extend(depth + 1, binding)
                for arg in added:
                    del binding[arg]

        extend(0, {})
        return results


def parse_query_text(text: str
                     ) -> Tuple[List[str], List[Tuple[str, List[str]]]]:
    """Split ``q(x, y) <- R(x, 'c'), S(y)`` into head variables and body
    atoms for :meth:`ReferenceDatabase.answers`; quoted arguments are
    constants."""
    head_text, body_text = text.split("<-")
    head = _args(head_text[head_text.index("(") + 1:head_text.rindex(")")])
    body = []
    for chunk in body_text.split(")"):
        chunk = chunk.strip().lstrip(",").strip()
        if not chunk:
            continue
        relation, args = chunk.split("(")
        body.append((relation.strip(), [
            ("=" + arg[1:-1]) if arg.startswith("'") else arg
            for arg in _args(args)]))
    return head, body


def _args(text: str) -> List[str]:
    return [arg.strip() for arg in text.split(",") if arg.strip()]
