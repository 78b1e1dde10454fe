"""JSON serialization and DOT export.

Complexes serialize as

    {"top_dim": d,
     "simplices": {"<dim>": {"count": n, "faces": [[...], ...]}},
     "labels": {"<dim>:<idx>": <encoded label>}}

where each face is ``[[word letters], base_dim, base_idx]``.  Labels are
encoded with small type tags so tuples and frozensets survive the round
trip exactly.
"""

from __future__ import annotations

import functools
import json

from .. import check_cap
from .complex import SimplicialSet
from .poset import Poset
from .simplex import Simplex, nondeg


# the exact types of the atoms a label is built from, as JSON reads them
_ATOMS = frozenset({int, str, bool, type(None)})


def encode_label(lab, memo: dict | None = None):
    """The JSON form of a label.  ``memo``, one per document, maps each
    tuple of atoms already encoded to its encoding, which is then
    shared; it is keyed with the atoms' types too, because 1 == True."""
    if lab is None or isinstance(lab, (int, str, bool)):
        return lab
    if isinstance(lab, tuple):
        memo = {} if memo is None else memo
        kinds = tuple(map(type, lab))
        if not _ATOMS.issuperset(kinds):
            return {"t": [encode_label(x, memo) for x in lab]}
        out = memo.get((lab, kinds))
        if out is None:
            out = memo[lab, kinds] = {"t": list(lab)}
        return out
    if isinstance(lab, frozenset):
        return {"s": sorted((encode_label(x, memo) for x in lab),
                            key=lambda v: json.dumps(v, sort_keys=True))}
    raise TypeError(f"label of type {type(lab).__name__} is not serializable")


def decode_label(obj, memo: dict | None = None):
    """Inverse of encode_label; ``memo`` shares each tuple of atoms read
    in one document, keyed the same way."""
    if obj is None or isinstance(obj, (int, str, bool)):
        return obj
    if isinstance(obj, dict) and "t" in obj:
        items = obj["t"]
        memo = {} if memo is None else memo
        kinds = tuple(map(type, items))
        if not _ATOMS.issuperset(kinds):
            return tuple([decode_label(x, memo) for x in items])
        lab = tuple(items)
        return memo.setdefault((lab, kinds), lab)
    if isinstance(obj, dict) and "s" in obj:
        return frozenset(decode_label(x, memo) for x in obj["s"])
    raise TypeError(f"cannot decode label {obj!r}")


def are_ints(values) -> bool:
    """Whether each of ``values`` is of type int exactly.  JSON reads
    2.0 as a float and true as a bool, and neither is a count, an index
    or a word letter, so the readers refuse both."""
    return {int}.issuperset(map(type, values))


def key_ints(key: str, parts: int, doc: str, what: str) -> tuple[int, ...]:
    """The ints of a key that reads back exactly as the writers write it,
    ``parts`` of them joined by ':' (``str(d)``, ``f"{d}:{i}"``).  Any
    other spelling, even one int() reads (' 1 ', '01', '1_0'), is
    refused with a ValueError that names the key and the document."""
    try:
        ints = tuple(map(int, key.split(":")))
    except ValueError:
        ints = ()
    if len(ints) != parts or ":".join(map(str, ints)) != key:
        form = ":".join(("<dim>", "<idx>")[:parts])
        raise ValueError(f"{doc} document: {what} {key!r} is not written "
                         f"as {form}")
    return ints


def reader(what: str):
    """Decorate the reader of a JSON document so that a document of the
    wrong shape (not an object, an entry missing or of the wrong type,
    nested too deeply) fails with a ValueError that names the
    problem."""
    def wrap(fn):
        @functools.wraps(fn)
        def read(obj):
            if not isinstance(obj, dict):
                raise ValueError(f"a {what} document is a JSON object, "
                                 f"not {type(obj).__name__}")
            try:
                return fn(obj)
            except KeyError as e:
                raise ValueError(f"{what} document lacks the "
                                 f"{e.args[0]!r} entry") from None
            except (AttributeError, IndexError, TypeError) as e:
                raise ValueError(f"malformed {what} document: {e}") from None
            except RecursionError:
                raise ValueError(
                    f"{what} document nested too deeply") from None
        return read
    return wrap


def complex_to_json(X: SimplicialSet) -> dict:
    simplices = {}
    for d in sorted(X.counts):
        entry = {"count": X.counts[d]}
        if d >= 1:
            entry["faces"] = [
                [[list(w), bd, bi] for w, (bd, bi) in X.faces[(d, i)]]
                for i in range(X.counts[d])]
        simplices[str(d)] = entry
    memo: dict = {}
    labels = {f"{d}:{i}": encode_label(lab, memo)
              for (d, i), lab in sorted(X.labels.items())}
    out = {"top_dim": X.top_dim, "simplices": simplices}
    if labels:
        out["labels"] = labels
    return out


def _share(f: Simplex) -> Simplex:
    """The face entry f on the shared handle of its base cell."""
    h = nondeg(*f.base)
    return Simplex(f.word, h.base) if f.word else h


@reader("complex")
def complex_from_json(obj: dict) -> SimplicialSet:
    simplices = {key_ints(d, 1, "complex", "dimension key")[0]: entry
                 for d, entry in obj["simplices"].items()}
    counts = {d: entry["count"] for d, entry in simplices.items()}
    for d, n in counts.items():
        if not are_ints([n]):
            raise TypeError(f"count {n!r} of dimension {d} is not an "
                            f"integer")
        check_cap("HANDLE_CAP", n, f"complex document, dimension {d}")
    faces, labels, memo = {}, {}, {}
    for d, entry in simplices.items():
        if d >= 1:
            for i, row in enumerate(entry["faces"]):
                fs = []
                for f in row:
                    w, bd, bi = f
                    if not are_ints((bd, bi, *w)):
                        raise TypeError(f"face entry {f!r} of cell {(d, i)} "
                                        f"is not all integers")
                    fs.append(Simplex(tuple(w), (bd, bi)))
                faces[(d, i)] = tuple(fs)
    for key, lab in obj.get("labels", {}).items():
        d, i = key_ints(key, 2, "complex", "label key")
        if not 0 <= i < counts.get(d, 0):
            raise ValueError(f"label key {key!r} names no cell")
        labels[(d, i)] = decode_label(lab, memo)
    X = SimplicialSet(counts, faces, labels)
    X.validate()
    # only a complex that passed every check takes shared handles, so a
    # refused document leaves the handle table as it was
    X.faces = {c: tuple(map(_share, row)) for c, row in X.faces.items()}
    return X


def complexes_equal(X: SimplicialSet, Y: SimplicialSet) -> bool:
    return (X.counts == Y.counts and X.faces == Y.faces and
            X.labels == Y.labels)


def _digraph(name: str, labels, arcs) -> str:
    """Graphviz digraph with node v<k> labelled by the k-th of
    ``labels`` and one line per arc (tail, head, attributes)."""
    lines = [f"digraph {json.dumps(name)} {{"]
    lines += [f"  v{k} [label={json.dumps(text)}];"
              for k, text in enumerate(labels)]
    lines += [f"  v{tail} -> v{head}{attrs};" for tail, head, attrs in arcs]
    lines.append("}")
    return "\n".join(lines)


def dot_skeleton(X: SimplicialSet, marked=frozenset(), name="complex") -> str:
    """Graphviz digraph of the 1-skeleton; the edge cells in ``marked``
    are drawn bold."""
    labels = (X.labels.get((0, i)) for i in range(X.n_cells(0)))
    bold = ' [penwidth=2, color="firebrick"]'
    arcs = ((X.faces[(1, i)][1].base[1], X.faces[(1, i)][0].base[1],
             bold if (1, i) in marked else "") for i in range(X.n_cells(1)))
    return _digraph(name, (f"v{i}" if lab is None else str(lab)
                           for i, lab in enumerate(labels)), arcs)


def hasse_dot(P: Poset, name: str = "poset") -> str:
    """Graphviz digraph of the covering relation."""
    arcs = ((i, j, "") for i, j in P.covers())
    return _digraph(name, map(str, P.elements), arcs) + "\n"
