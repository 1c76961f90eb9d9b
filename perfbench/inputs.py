"""Seeded input generation for the xmlprop benchmark.

Documents follow the paper's book/chapter/section schema
(data/paper_keys.txt, data/paper_transformation.rules). Every document
comes with its known answers, computed here from what was written:

  - nodes: elements + attributes + non-blank text nodes, the count the
    `index:` stats line prints;
  - violations: the number of key violations planted (0 for a clean
    document), each one a pair of nodes that collide on one key;
  - rows: per-relation row counts of `shred`, i.e. the number of distinct
    tuples the paper's transformation yields (a variable with no match
    binds null; the relation is a set).

The same (seed, books, violations) always yields the same bytes.
"""

import random

# Small vocabularies make the `section` relation deduplicate heavily
# across books (its tuple is chapter number, section number, name).
_WORDS = [
    "alpha", "binding", "cursor", "delta", "euler", "fragment", "graph",
    "hash", "index", "join", "key", "label", "merge", "node", "order",
    "path", "query", "relation", "schema", "tuple", "union", "value",
    "walk", "xpath", "yield", "zone",
]
_SECTION_NAMES = ["Overview of the problem", "Technical details",
                  "Worked examples", "Exercises for the reader",
                  "Bibliographic notes", "Summary and outlook",
                  "Proofs of the main results", "Background material"]
_FIRST = ["Ada", "Alan", "Barbara", "Edgar", "Grace", "Jim", "Leslie",
          "Michael", "Peter", "Serge", "Susan", "Wenfei"]
_LAST = ["Abiteboul", "Bernstein", "Codd", "Davidson", "Fan", "Gray",
         "Hara", "Lamport", "Liskov", "Qin", "Stonebraker", "Ullman"]

# Planted violation kinds, cycled in this order. Each plants exactly one
# colliding pair, hence exactly one reported violation.
_PLANTS = ("dup_isbn", "dup_chapter", "dup_title", "dup_section",
           "dup_chapter_name")


def _book(rng, index, seed):
    """One book as nested plain data (no XML yet)."""
    authors = []
    for a in range(rng.choice((1, 1, 2))):
        name = rng.choice(_FIRST) + " " + rng.choice(_LAST)
        # K7 allows at most one author/contact per book.
        contact = (name.split()[0].lower() + "@example.org"
                   if a == 0 and rng.random() < 0.7 else None)
        authors.append([name, contact])
    if len(authors) == 2 and authors[0][1] is None and rng.random() < 0.5:
        authors[1] = [authors[0][0], None]  # a duplicate row to dedup
    chapters = []
    for c in range(1, rng.randint(3, 7) + 1):
        sections = []
        for s in range(1, rng.randint(0, 5) + 1):
            sections.append([s, [rng.choice(_SECTION_NAMES)]])
        names = [] if rng.random() < 0.05 else [
            " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 7)))]
        chapters.append({"number": c, "names": names, "sections": sections})
    title = " ".join(rng.choice(_WORDS).capitalize()
                     for _ in range(rng.randint(3, 8)))
    return {
        "isbn": "%d-%06d" % (seed % 1000003, index),
        "titles": [title],
        "authors": authors,
        "chapters": chapters,
    }


def _plant(rng, books, kind):
    """Plants one violation of `kind`; returns False if the drawn book
    has no room for it (the caller draws again)."""
    i = rng.randrange(len(books))
    b = books[i]
    if kind == "dup_isbn":
        j = rng.randrange(len(books))
        if j == i or any(sum(1 for x in books if x["isbn"] == y["isbn"]) > 1
                         for y in (b, books[j])):
            return False
        books[j]["isbn"] = b["isbn"]
        return True
    if kind == "dup_title":
        if len(b["titles"]) > 1:
            return False
        b["titles"].append(b["titles"][0] + " Revisited")
        return True
    chapters = b["chapters"]
    if kind == "dup_chapter":
        numbers = [c["number"] for c in chapters]
        if len(chapters) < 2 or len(set(numbers)) != len(numbers):
            return False
        chapters[-1]["number"] = chapters[0]["number"]
        return True
    c = rng.choice(chapters)
    if kind == "dup_chapter_name":
        if len(c["names"]) != 1:
            return False
        c["names"].append(c["names"][0] + " again")
        return True
    # dup_section
    secs = c["sections"]
    numbers = [s[0] for s in secs]
    if len(secs) < 2 or len(set(numbers)) != len(numbers):
        return False
    secs[-1][0] = secs[0][0]
    return True


def _or_none(values):
    return values if values else [None]


def _expected(books):
    """Known answers of a document: node count and shred row counts."""
    nodes = 1  # the <r> root
    book_rows, chapter_rows, section_rows = set(), set(), set()
    for b in books:
        nodes += 2  # <book> + @isbn
        nodes += 2 * len(b["titles"])
        for name, contact in b["authors"]:
            nodes += 3 + (2 if contact is not None else 0)
        authors = b["authors"] or [[None, None]]
        for title in _or_none(b["titles"]):
            for name, contact in authors:
                book_rows.add((b["isbn"], title, name, contact))
        for c in b["chapters"]:
            nodes += 2 + 2 * len(c["names"])
            for name in _or_none(c["names"]):
                chapter_rows.add((b["isbn"], c["number"], name))
            if not c["sections"]:
                section_rows.add((c["number"], None, None))
            for number, names in c["sections"]:
                nodes += 2 + 2 * len(names)
                for name in _or_none(names):
                    section_rows.add((c["number"], number, name))
        if not b["chapters"]:
            chapter_rows.add((b["isbn"], None, None))
    return nodes, {"book": len(book_rows), "chapter": len(chapter_rows),
                   "section": len(section_rows)}


def _render(books):
    out = ["<r>\n"]
    for b in books:
        out.append('<book isbn="%s">' % b["isbn"])
        for name, contact in b["authors"]:
            out.append("<author><name>%s</name>" % name)
            if contact is not None:
                out.append("<contact>%s</contact>" % contact)
            out.append("</author>")
        for t in b["titles"]:
            out.append("<title>%s</title>" % t)
        for c in b["chapters"]:
            out.append('<chapter number="%d">' % c["number"])
            for n in c["names"]:
                out.append("<name>%s</name>" % n)
            for number, names in c["sections"]:
                out.append('<section number="%d">' % number)
                for n in names:
                    out.append("<name>%s</name>" % n)
                out.append("</section>")
            out.append("</chapter>")
        out.append("</book>\n")
    out.append("</r>\n")
    return "".join(out).encode()


def make_document(seed, books, violations=0):
    """Returns (xml_bytes, answers) for a seeded book document.

    answers = {"nodes", "violations", "rows": {relation: count}}.
    """
    rng = random.Random(seed)
    data = [_book(rng, i, seed) for i in range(books)]
    planted = 0
    while planted < violations:
        if _plant(rng, data, _PLANTS[planted % len(_PLANTS)]):
            planted += 1
    nodes, rows = _expected(data)
    return _render(data), {"nodes": nodes, "violations": planted,
                           "rows": rows}


def fd_pool(pool, seed, count):
    """Draws `count` (fd text, propagated?) pairs, alternating verdicts,
    from the FD pool `pblayers gen-schema` writes to fds.json:
    {"true": [...], "false": [...]}. The draw always starts with the
    first of each list, MakeWorkload's own true_fd and false_fd.
    """
    rng = random.Random(seed)
    trues, falses = pool["true"], pool["false"]
    draw = [(trues[0], True), (falses[0], False)]
    while len(draw) < count:
        if len(draw) % 2 == 0:
            draw.append((rng.choice(trues), True))
        else:
            draw.append((rng.choice(falses), False))
    return draw
