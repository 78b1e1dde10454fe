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
from .simplex import Simplex, nondeg


# the exact types of the atoms a label is built from, as JSON reads them
_ATOMS = frozenset({int, str, bool, type(None)})


def encode_label(lab):
    if lab is None or isinstance(lab, (int, str, bool)):
        return lab
    if isinstance(lab, tuple):
        if _ATOMS.issuperset(map(type, lab)):
            return {"t": list(lab)}
        return {"t": [encode_label(x) for x in lab]}
    if isinstance(lab, frozenset):
        return {"s": sorted((encode_label(x) for x in lab),
                            key=lambda v: json.dumps(v, sort_keys=True))}
    raise TypeError(f"label of type {type(lab).__name__} is not serializable")


def decode_label(obj):
    if obj is None or isinstance(obj, (int, str, bool)):
        return obj
    if isinstance(obj, dict) and "t" in obj:
        items = obj["t"]
        if _ATOMS.issuperset(map(type, items)):
            return tuple(items)
        return tuple(map(decode_label, items))
    if isinstance(obj, dict) and "s" in obj:
        return frozenset(decode_label(x) for x in obj["s"])
    raise TypeError(f"cannot decode label {obj!r}")


def are_ints(values) -> bool:
    """Whether each of ``values`` is of type int exactly.  JSON reads
    2.0 as a float and true as a bool, and neither is a count, an index
    or a word letter, so the readers refuse both."""
    return {int}.issuperset(map(type, values))


def reader(what: str):
    """Decorate the reader of a JSON document so that a document of the
    wrong shape (not an object, an entry missing or of the wrong type)
    fails with a ValueError that names the problem."""
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
    labels = {f"{d}:{i}": encode_label(lab) for (d, i), lab in sorted(X.labels.items())}
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
    simplices = {int(d): entry for d, entry in obj["simplices"].items()}
    counts = {d: entry["count"] for d, entry in simplices.items()}
    for d, n in counts.items():
        if not are_ints([n]):
            raise TypeError(f"count {n!r} of dimension {d} is not an "
                            f"integer")
        check_cap("HANDLE_CAP", n, f"complex document, dimension {d}")
    faces, labels = {}, {}
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
        d, i = map(int, key.split(":"))
        if not 0 <= i < counts.get(d, 0):
            raise ValueError(f"label key {key!r} names no cell")
        labels[(d, i)] = decode_label(lab)
    X = SimplicialSet(counts, faces, labels)
    X.validate()
    # only a complex that passed every check takes shared handles, so a
    # refused document leaves the handle table as it was
    X.faces = {c: tuple(map(_share, row)) for c, row in X.faces.items()}
    return X


def complexes_equal(X: SimplicialSet, Y: SimplicialSet) -> bool:
    return (X.counts == Y.counts and X.faces == Y.faces and
            X.labels == Y.labels)


def dot_skeleton(X: SimplicialSet, marked=frozenset(), name="complex") -> str:
    """Graphviz digraph of the 1-skeleton; the edge cells in ``marked``
    are drawn bold."""
    lines = [f"digraph {json.dumps(name)} {{"]
    for i in range(X.n_cells(0)):
        lab = X.labels.get((0, i))
        text = str(lab) if lab is not None else f"v{i}"
        lines.append(f"  v{i} [label={json.dumps(text)}];")
    for i in range(X.n_cells(1)):
        tail = X.faces[(1, i)][1].base[1]
        head = X.faces[(1, i)][0].base[1]
        style = ' [penwidth=2, color="firebrick"]' if (1, i) in marked else ""
        lines.append(f"  v{tail} -> v{head}{style};")
    lines.append("}")
    return "\n".join(lines)
