"""Command-line front end.

Verbs map one-to-one onto library operations; inputs are the JSON schemas
of :mod:`flagtutte.fileio`.  Output is deterministic: canonical orderings
everywhere, byte-identical across re-runs and across the n distinct
weights of the cocharacter that ``ktutte`` and ``charpoly`` run k_tutte
along (``--weights``; ``yclass`` only checks them, BadWeights otherwise).
Exit codes: 0 success, 1 domain error (with a machine-readable report),
2 usage error.

Each verb ``cmd_<verb>(obj, args)`` maps the loaded document to a payload
and only returns it; :func:`main` alone loads the input, reports a domain
error and writes stdout, as JSON or as indented text.

Each verb imports what it runs when it runs, so a call compiles only the
modules of its verb: ``check`` needs no polytope, Laurent or localization
code, and a usage error, which ends before :func:`main` imports
:mod:`flagtutte.fileio`, loads nothing beyond this module and
:mod:`flagtutte.errors`.
"""

import argparse
import json
import sys

from .errors import FlagTutteError


def _emit_text(payload, indent=""):
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                print(f"{indent}{key}:")
                _emit_text(value, indent + "  ")
            else:
                print(f"{indent}{key}: {value}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                _emit_text(value, indent + "  ")
            else:
                print(f"{indent}{value}")
    else:
        print(f"{indent}{payload}")


def _poly_payload(p):
    from . import fileio
    from .invariants import format_bivar
    return {**fileio.bivar_to_json(p), "pretty": format_bivar(p)}


def _object_summary(obj):
    from .matroid import Matroid
    from .polyflag import FlagMatroid, Polymatroid
    if isinstance(obj, Matroid):
        return {"kind": "matroid", "n": obj.n, "rank": obj.k,
                "bases": len(obj.bases)}
    if isinstance(obj, Polymatroid):
        return {"kind": "polymatroid", "n": obj.n, "rank": obj.total_rank}
    if isinstance(obj, FlagMatroid):
        return {"kind": "flag_matroid", "n": obj.n,
                "ranks": list(obj.ranks)}
    if isinstance(obj, tuple):
        return {"kind": "matroid_pair"}
    return {"kind": "matroid_list", "count": len(obj)}


def cmd_check(obj, args):
    return {"ok": True, **_object_summary(obj)}


def cmd_tutte(obj, args):
    from . import fileio
    from .invariants import tutte_activity, tutte_delcon, tutte_rank_nullity
    m = fileio.as_matroid(obj)
    routes = {"rank": tutte_rank_nullity, "delcon": tutte_delcon,
              "activity": tutte_activity}
    if args.method == "all":
        polys = {name: fn(m) for name, fn in routes.items()}
        values = list(polys.values())
        payload = {name: _poly_payload(p) for name, p in polys.items()}
        payload["agree"] = all(p == values[0] for p in values)
        return payload
    return _poly_payload(routes[args.method](m))


def cmd_ktutte(obj, args):
    from . import fileio
    from .ktheory import k_tutte
    f = fileio.as_flag_matroid(obj)
    poly = k_tutte(f, args.weights)
    return {**_poly_payload(poly), "nonnegative_coefficients": all(
        c >= 0 for c in poly.terms.values())}


def cmd_charpoly(obj, args):
    from . import fileio
    from .invariants import characteristic_poly, log_concavity
    from .ktheory import k_tutte
    f = fileio.as_flag_matroid(obj)
    poly = k_tutte(f, args.weights)
    chi = characteristic_poly(poly, sum(f.ranks))
    return {**fileio.univar_to_json(chi),
            "log_concave": bool(log_concavity(chi))}


def cmd_qprime(obj, args):
    from . import fileio
    from .invariants import _from_shifted, q_coefficients
    from .lattice import poly_base_polytope
    p = fileio.as_polymatroid(obj)
    coeffs = q_coefficients(poly_base_polytope(p))
    return {**_poly_payload(_from_shifted(coeffs)), "binomial_coefficients": [
        {"i": i, "j": j, "c": str(c)} for (i, j), c in sorted(coeffs.items())]}


def cmd_polytope(obj, args):
    from . import fileio
    from .lattice import (base_polytope, edges, is_normal, lattice_points,
                          poly_base_polytope)
    from .matroid import Matroid
    if isinstance(obj, Matroid):
        p = base_polytope(obj)
    else:
        p = poly_base_polytope(fileio.as_polymatroid(obj))
    payload = {
        "vertices": [list(v) for v in p.vertices],
        "edges": [list(e) for e in edges(p)],
        "lattice_points": [list(q) for q in lattice_points(p)],
    }
    if args.kmax:
        verdict = is_normal(p, args.kmax)
        payload["normal"] = bool(verdict)
        if not verdict:
            payload["witness"] = list(verdict.witness)
    return payload


def cmd_yclass(obj, args):
    from . import fileio
    from .ktheory import (EquivariantClass, FlagSpace, format_chain,
                          parse_chain, y_class)
    from .laurent import _format_terms
    f = fileio.as_flag_matroid(obj)
    if args.weights:  # only checked, before any cone is built
        EquivariantClass(FlagSpace(f.n, f.ranks), {}).specialize(args.weights)
    cls = y_class(f)
    if args.fixed_point is None:
        items = cls.items()
    else:  # looked up, as a complete flag on 9 elements has 9! points
        wanted = parse_chain(args.fixed_point)
        if wanted not in cls.space:
            raise FlagTutteError(
                f"{args.fixed_point!r} is not a fixed point of the space")
        items = [(wanted, cls.value(wanted))]
    out = []
    for fp, v in items:
        terms = v.sorted_terms()  # unpacked once for both forms
        out.append({"fixed_point": format_chain(fp, f.n),
                    "value": fileio._terms_to_json(v.nvars, terms),
                    "pretty": _format_terms(terms, v.nvars)})
    return out


def cmd_quotient(pair, args):
    from .polyflag import quotient_witness
    if not isinstance(pair, tuple):
        raise FlagTutteError("quotient needs a matroid_pair document")
    witness = quotient_witness(*pair)
    payload = {"is_quotient": witness is None}
    if witness is not None:
        payload["witness"] = [list(s) for s in witness]
    return payload


def cmd_union(matroids, args):
    from .matroid import cover_by_independent, union_rank
    if not isinstance(matroids, list):
        raise FlagTutteError("union needs a matroid_list document")
    if not matroids:
        raise FlagTutteError("union needs at least one matroid")
    full = range(matroids[0].n)
    cover = cover_by_independent(matroids)
    return {"union_rank": union_rank(matroids, full),
            "cover": [list(part) for part in cover] if cover else None}


COMMANDS = {
    "check": cmd_check,
    "tutte": cmd_tutte,
    "ktutte": cmd_ktutte,
    "charpoly": cmd_charpoly,
    "qprime": cmd_qprime,
    "polytope": cmd_polytope,
    "yclass": cmd_yclass,
    "quotient": cmd_quotient,
    "union": cmd_union,
}


def _parse_weights(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad weights {text!r}") from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flagtutte",
        description="Exact Tutte polynomials of matroids, polymatroids and "
                    "flag matroids")
    parser.add_argument("verb", choices=sorted(COMMANDS))
    parser.add_argument("input", help="input JSON file")
    parser.add_argument("--method", default="all",
                        choices=["rank", "delcon", "activity", "all"],
                        help="tutte computation route")
    parser.add_argument("--output", default="json",
                        choices=["json", "text"])
    parser.add_argument("--fixed-point", default=None,
                        help='restrict yclass to one flag, e.g. "0|01"')
    parser.add_argument("--kmax", type=int, default=0,
                        help="normality check depth for the polytope verb")
    parser.add_argument("--weights", type=_parse_weights, default=None,
                        help="cocharacter of ktutte and charpoly, e.g. 1,2,3")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    from . import fileio
    try:
        payload = COMMANDS[args.verb](fileio.load_object(args.input), args)
        code = 0
    except FlagTutteError as exc:
        payload = {"ok": False, "error": type(exc).__name__,
                   "detail": str(exc)}
        code = 1
    if code or args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        _emit_text(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
