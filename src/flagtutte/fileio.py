"""JSON schemas for matroids, polymatroids, flag matroids and polynomials.

Input files carry a "type" tag; elements are 0-indexed unless the document
sets "indexing": "1", in which case labels are shifted down on load (handy
for transcribing 1-indexed worked examples).  Polynomial output is sorted
and stringifies coefficients so arbitrary precision survives any consumer.
"""

import json
from fractions import Fraction

from .errors import ParseError, SchemaError
from .matroid import Matroid, matroid_from_bases, matroid_from_graph, \
    matroid_from_matrix
from .polyflag import FlagMatroid, Polymatroid, flag_from_constituents, \
    polymatroid_from_matroid, polymatroid_from_rank, polymatroid_of_flag


def load_document(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _one_indexed(doc):
    return str(doc.get("indexing", "0")) == "1"


def _require(doc, key, kind):
    if key not in doc:
        raise SchemaError(f"{kind} document is missing '{key}'")
    return doc[key]


def _is_int(x):
    return isinstance(x, int)


def _is_rational(x):
    """An int, a finite float or a string such as "-3/4"."""
    if not isinstance(x, (int, float, str)):
        return False
    try:
        Fraction(x)
    except (ValueError, OverflowError, ZeroDivisionError):
        return False
    return True


def _is_object(x):
    return isinstance(x, dict)


def _list_of(is_item, length=None):
    def check(x):
        return (isinstance(x, list) and all(map(is_item, x))
                and length in (None, len(x)))
    return check


def _field(doc, key, kind, is_valid, what):
    """A required field's value; SchemaError if it has the wrong type."""
    value = _require(doc, key, kind)
    if not is_valid(value):
        raise SchemaError(f"{kind} field '{key}' must be {what}")
    return value


def parse_object(doc):
    """Dispatch a document on its "type" tag to a validated object."""
    if not isinstance(doc, dict):
        raise SchemaError("top-level JSON value must be an object")
    kind = doc.get("type")
    if kind == "matroid":
        n = _field(doc, "n", kind, _is_int, "an integer")
        bases = _field(doc, "bases", kind, _list_of(_list_of(_is_int)),
                       "a list of integer lists")
        if _one_indexed(doc):
            bases = [[e - 1 for e in b] for b in bases]
        return matroid_from_bases(n, bases)
    if kind == "matrix":
        return matroid_from_matrix(_field(
            doc, "rows", kind, _list_of(_list_of(_is_rational)),
            "a list of rows of rationals"))
    if kind == "graph":
        edges = _field(doc, "edges", kind, _list_of(_list_of(_is_int, 2)),
                       "a list of integer pairs")
        vertices = doc.get("vertices")
        if vertices is not None:
            _field(doc, "vertices", kind, _is_int, "an integer")
        if _one_indexed(doc):
            edges = [[u - 1, v - 1] for u, v in edges]
        return matroid_from_graph(edges, vertices)
    if kind == "polymatroid":
        return polymatroid_from_rank(
            _field(doc, "n", kind, _is_int, "an integer"),
            _field(doc, "rank", kind, _list_of(_is_int), "a list of integers"))
    if kind == "flag_matroid":
        subs = _field(doc, "constituents", kind, _list_of(_is_object),
                      "a list of objects")
        constituents = [parse_object(sub if "type" in sub
                                     else {"type": "matroid", **sub,
                                           "indexing": doc.get("indexing", "0")})
                        for sub in subs]
        _require_matroids(constituents, "flag constituents")
        flag = flag_from_constituents(constituents)
        ranks = doc.get("ranks")
        if ranks is not None and (not isinstance(ranks, list)
                                  or tuple(ranks) != flag.ranks):
            raise SchemaError(
                f"declared ranks {ranks} do not match constituents "
                f"{flag.ranks}")
        return flag
    if kind == "matroid_pair":
        pair = tuple(parse_object(_field(doc, key, kind, _is_object,
                                         "an object"))
                     for key in ("N", "M"))
        _require_matroids(pair, "matroid_pair members")
        return pair
    if kind == "matroid_list":
        subs = _field(doc, "matroids", kind, _list_of(_is_object),
                      "a list of objects")
        matroids = [parse_object(sub) for sub in subs]
        _require_matroids(matroids, "matroid_list members")
        return matroids
    raise SchemaError(f"unknown document type {kind!r}")


def _require_matroids(objects, what):
    if not all(isinstance(obj, Matroid) for obj in objects):
        raise SchemaError(f"{what} must be matroids")


def load_object(path):
    return parse_object(load_document(path))


def as_matroid(obj):
    if isinstance(obj, Matroid):
        return obj
    raise SchemaError(f"expected a matroid input, got {type(obj).__name__}")


def as_flag_matroid(obj):
    if isinstance(obj, FlagMatroid):
        return obj
    if isinstance(obj, Matroid):
        return flag_from_constituents([obj])
    raise SchemaError(
        f"expected a flag matroid input, got {type(obj).__name__}")


def as_polymatroid(obj):
    if isinstance(obj, Polymatroid):
        return obj
    if isinstance(obj, Matroid):
        return polymatroid_from_matroid(obj)
    if isinstance(obj, FlagMatroid):
        return polymatroid_of_flag(obj)
    raise SchemaError(
        f"expected a polymatroid input, got {type(obj).__name__}")


# -------------------------------------------------------------- writers

def matroid_to_json(m):
    return {"type": "matroid", "n": m.n, "bases": [list(b) for b in m.bases]}


def polymatroid_to_json(p):
    return {"type": "polymatroid", "n": p.n, "rank": list(p.rank_table)}


def laurent_to_json(p):
    return {"vars": p.nvars,
            "terms": [{"exp": list(e), "coeff": str(c)}
                      for e, c in p.sorted_terms()]}


def krational_to_json(kr):
    out = laurent_to_json(kr.num)
    out["denominator"] = [list(a) for a in kr.den]
    return out


def bivar_to_json(p, names=("x", "y")):
    return {"vars": list(names),
            "terms": [{"exp": list(k), "coeff": str(c)}
                      for k, c in p.sorted_terms()]}


def univar_to_json(coeffs, name="lambda"):
    return {"vars": [name],
            "terms": [{"exp": [k], "coeff": str(c)}
                      for k, c in enumerate(coeffs) if c]}
