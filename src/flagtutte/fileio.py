"""JSON schemas for matroids, polymatroids, flag matroids and polynomials.

Input files carry a "type" tag; elements are 0-indexed unless the document
sets "indexing": "1", in which case labels are shifted down on load (handy
for transcribing 1-indexed worked examples).  Polynomial output is sorted
and stringifies coefficients so arbitrary precision survives any consumer.
"""

import json
import re
from fractions import Fraction

from .errors import ParseError, SchemaError
from .matroid import Matroid, matroid_from_bases, matroid_from_graph, \
    matroid_from_matrix
from .polyflag import FlagMatroid, Polymatroid, flag_from_constituents, \
    polymatroid_from_matroid, polymatroid_from_rank, polymatroid_of_flag


def load_document(path):
    """The JSON value in the UTF-8 file at `path`; ParseError if the file
    cannot be read, is not UTF-8, is not JSON, nests too deeply or holds an
    integer longer than the interpreter converts from a string."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    # UnicodeDecodeError and JSONDecodeError are ValueErrors, and so is the
    # refusal of an integer past the int-to-string digit limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _one_indexed(doc):
    return str(doc.get("indexing", "0")) == "1"


def _require(doc, key, kind):
    if key not in doc:
        raise SchemaError(f"{kind} document is missing '{key}'")
    return doc[key]


def _is_int(x):
    """An int; JSON true and false are bools, which Python counts as ints."""
    return isinstance(x, int) and not isinstance(x, bool)


# A rational string may have at most this many digits and an exponent of
# at most this magnitude: Fraction("1e100000000") builds a 10^(10^8).
MAX_RATIONAL_DIGITS = 1000

_EXPONENT = re.compile(r"[eE]([-+]?\d+)")


def _is_rational(x):
    """An int, a finite float or a string such as "-3/4".  SchemaError for
    a string with more than :data:`MAX_RATIONAL_DIGITS` digits or an
    exponent beyond it, before any number is built from the string."""
    if not isinstance(x, (int, float, str)) or isinstance(x, bool):
        return False
    if isinstance(x, str):
        exponent = _EXPONENT.search(x)
        if (sum(map(str.isdigit, x)) > MAX_RATIONAL_DIGITS
                or exponent and abs(int(exponent[1])) > MAX_RATIONAL_DIGITS):
            raise SchemaError(
                f"rational {x[:40]!r} has more than {MAX_RATIONAL_DIGITS} "
                f"digits or an exponent beyond {MAX_RATIONAL_DIGITS}")
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
        constituents = [_parse_matroid(
            sub if "type" in sub else {"type": "matroid", **sub,
                                       "indexing": doc.get("indexing", "0")},
            "flag constituents") for sub in subs]
        flag = flag_from_constituents(constituents)
        ranks = doc.get("ranks")
        if ranks is not None and (not _list_of(_is_int)(ranks)
                                  or tuple(ranks) != flag.ranks):
            raise SchemaError(
                f"declared ranks {ranks} do not match constituents "
                f"{flag.ranks}")
        return flag
    if kind == "matroid_pair":
        return tuple(_parse_matroid(_field(doc, key, kind, _is_object,
                                           "an object"),
                                    "matroid_pair members")
                     for key in ("N", "M"))
    if kind == "matroid_list":
        subs = _field(doc, "matroids", kind, _list_of(_is_object),
                      "a list of objects")
        return [_parse_matroid(sub, "matroid_list members") for sub in subs]
    raise SchemaError(f"unknown document type {kind!r}")


def _parse_matroid(doc, what):
    """A member document that must be a matroid.  Its tag is checked
    before it is parsed, so members never nest and parsing never recurses
    more than one level."""
    if doc.get("type") not in ("matroid", "matrix", "graph"):
        raise SchemaError(f"{what} must be matroids")
    return parse_object(doc)


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


def _terms_to_json(variables, terms):
    return {"vars": variables,
            "terms": [{"exp": list(e), "coeff": str(c)} for e, c in terms]}


def laurent_to_json(p):
    return _terms_to_json(p.nvars, p.sorted_terms())


def bivar_to_json(p):
    return _terms_to_json(["x", "y"], p.sorted_terms())


def univar_to_json(coeffs):
    return _terms_to_json(["lambda"],
                          (((k,), c) for k, c in enumerate(coeffs) if c))
