"""Command-line front end.

One verb per module, JSON on stdout (deterministic: sorted keys, fixed
separators), human-readable notes on stderr unless --quiet.  Exit codes:
0 success, 1 a mathematical check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import geometry as geo
from . import involutions as inv
from . import modtwo as m2
from . import symbols as sym
from . import torsionfree as tf
from . import weyl as wy

USAGE_ERROR = 2
CHECK_FAILED = 1


class CliError(Exception):
    pass


def _emit(payload: dict, quiet: bool, note: str = "") -> None:
    if note and not quiet:
        print(note, file=sys.stderr)
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _read_symbol(args) -> sym.CoxeterSymbol:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return sym.parse_symbol(text)


def _fraction_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def _weyl_from_args(tokens) -> wy.WeylData:
    if len(tokens) > 2:
        raise CliError(f"a Weyl type is a family and at most a rank, not {' '.join(tokens)!r}")
    if len(tokens) == 1:
        tok = tokens[0]
        if tok[:1].upper() in ("A", "B", "D") and tok[1:].isdigit():
            return wy.weyl_data(tok[0], int(tok[1:]))
        return wy.weyl_data(tok)
    return wy.weyl_data(tokens[0], int(tokens[1]))


def _weyl_positional(args) -> wy.WeylData:
    """The Weyl type named by the positional family and optional rank."""
    return _weyl_from_args([args.family] + ([] if args.rank is None else [str(args.rank)]))


def _cmd_symbol(args) -> int:
    g = _read_symbol(args)
    if args.action == "classify":
        types = sym.classify_finite_type(g)
        payload = {
            "finite": types is not None,
            "components": None if types is None else [
                {"family": t.family, "rank": t.rank, "order": t.order, "label": t.label()}
                for t in types
            ],
        }
        if types is not None:
            payload["order"] = sym.finite_order(g)
        _emit(payload, args.quiet)
    elif args.action == "euler":
        chi = sym.euler_characteristic(g)
        _emit({"chi": _fraction_json(chi)}, args.quiet)
    else:  # signature
        n_plus, n_minus, n_zero = sym.signature(g, inf_value=args.inf)
        _emit({"n_plus": n_plus, "n_minus": n_minus, "n_zero": n_zero}, args.quiet)
    return 0


def _cmd_weyl(args) -> int:
    w = _weyl_positional(args)
    payload = {
        "label": w.label(),
        "cartan": [list(r) for r in w.cartan],
        "exponents": list(w.exponents),
        "h": w.coxeter_number,
        "order": w.order,
        "minus_one_type": w.minus_one_type,
        "index_of_connection": w.index_of_connection,
    }
    _emit(payload, args.quiet)
    return 0


def _cmd_modtwo(args) -> int:
    w = _weyl_positional(args)
    if args.action == "weight":
        if args.node is None:
            raise CliError("weight needs --node")
        u = m2.weight_vector(w, args.node)
        _emit({"node": u.node, "coords": list(u.coords)}, args.quiet)
    elif args.action == "admissible":
        tags = m2.admissible_nodes(w)
        payload = {"nodes": [{"node": s, "special": sp} for s, sp in tags]}
        _emit(payload, args.quiet,
              note=f"{w.label()}: {len(tags)} admissible node(s)")
    else:  # dpsi
        _emit({"d": m2.dpsi(w)}, args.quiet)
    return 0


def _cmd_involutions(args) -> int:
    g = _read_symbol(args)
    classes = inv.equivalence_classes(g)
    payload = {
        "classes": [
            {"rank": c.rank, "members": [list(map(str, mm)) for mm in c.members]}
            for c in classes
        ]
    }
    _emit(payload, args.quiet, note=f"{len(classes)} involution class(es)")
    return 0


def _build_dagger_from_args(args) -> tf.DaggerSymbol:
    w = _weyl_from_args(args.psi)
    return tf.build_dagger(w, args.nodes)


def _cmd_tf(args) -> int:
    d = _build_dagger_from_args(args)
    if args.action == "build":
        payload = {
            "psi": d.psi.label(),
            "attachments": list(d.attachments),
            "special": list(d.special),
            "ell": d.ell,
            "symbol": sym.serialize_symbol(d.gamma),
        }
        _emit(payload, args.quiet)
        return 0
    if args.action == "certify":
        cert = tf.certify_torsion_free(d, args.mode)
        _emit(cert.to_json(), args.quiet,
              note="\n".join(f"[{'ok' if s.ok else 'FAIL'}] {s.name}" for s in cert.steps))
        return 0 if cert.ok else CHECK_FAILED
    # extend
    ext = tf.cyclic_extension(d)
    payload = ext.certificate.to_json()
    payload["zeta"] = ext.zeta.to_json()
    _emit(payload, args.quiet,
          note="\n".join(f"[{'ok' if s.ok else 'FAIL'}] {s.name}" for s in ext.certificate.steps))
    return 0 if ext.certificate.ok else CHECK_FAILED


def _cmd_geometry(args) -> int:
    if args.action == "volume":
        vol, chi, index, deck = geo.manifold_volume(args.dim)
        payload = {"vol": vol.to_json(), "chi": _fraction_json(chi),
                   "index": index, "deck": deck}
        _emit(payload, args.quiet)
        return 0
    # covol
    if args.route == "siegel":
        covol = geo.covolume_siegel(args.dim)
    else:
        symbol, _ = geo.vinberg_symbol(args.dim)
        covol = geo.covolume_gauss_bonnet(symbol, args.dim)
    _emit({"covol": covol.to_json(), "route": args.route, "dim": args.dim}, args.quiet)
    return 0


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="coxfree")
    top.add_argument("--quiet", action="store_true", help="suppress stderr tables")
    sub = top.add_subparsers(dest="verb", required=True)

    ps = sub.add_parser("symbol")
    ps.add_argument("action", choices=["classify", "euler", "signature"])
    ps.add_argument("--file")
    ps.add_argument("--inf", type=float, default=-1.0)

    pw = sub.add_parser("weyl")
    pw.add_argument("action", choices=["info"])
    pw.add_argument("family")
    pw.add_argument("rank", nargs="?", type=int)

    pm = sub.add_parser("modtwo")
    pm.add_argument("action", choices=["weight", "admissible", "dpsi"])
    pm.add_argument("family")
    pm.add_argument("rank", nargs="?", type=int)
    pm.add_argument("--node", type=int)

    pi = sub.add_parser("involutions")
    pi.add_argument("action", choices=["classes"])
    pi.add_argument("--file")

    pt = sub.add_parser("tf")
    pt.add_argument("action", choices=["build", "certify", "extend"])
    pt.add_argument("--psi", nargs="+", required=True)
    pt.add_argument("--nodes", nargs="+", type=int, default=[])
    pt.add_argument("--mode", choices=["plain", "hat"], default="hat")

    pg = sub.add_parser("geometry")
    pg.add_argument("action", choices=["volume", "covol"])
    pg.add_argument("dim", type=int)
    pg.add_argument("--route", choices=["siegel", "gb"], default="siegel")
    return top


_DISPATCH = {
    "symbol": _cmd_symbol,
    "weyl": _cmd_weyl,
    "modtwo": _cmd_modtwo,
    "involutions": _cmd_involutions,
    "tf": _cmd_tf,
    "geometry": _cmd_geometry,
}


def run(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return _DISPATCH[args.verb](args)
    except (sym.SymbolError, wy.WeylError, m2.ModTwoError, inv.InvolutionError,
            tf.DaggerError, geo.GeometryError, CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
