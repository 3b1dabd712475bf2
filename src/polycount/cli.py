"""Command-line surface.

Subcommands: count, list, table5, catalog, verify, sum, jacobi.  All
output is machine-readable (TSV by default, JSON with --format json);
provenance (method used, resolved signs, generator serialization) rides
along so every reported label is reproducible.  Exit codes are per error
class; `verify` failure is the only nonzero exit on mathematically valid
input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import p2_closed_detail, p2_context, p2_general_pm
from .counting import CountSpec, p_m
from .charsums import gauss_sum, jacobi_brute, monomial_sum
from .errors import InvalidInput, PolycountError, ValidationError, VerificationFailed
from .fields import DEFAULT_ENUM_CAP, build_field, build_tower
from .jacobi import cubic_params, jacobi_closed, quartic_params
from .oracle import DEFAULT_LISTING_CAP, DEFAULT_ORACLE_CAP, brute_p_m, list_polys

TABLE5 = {
    # (q, coset-tag): {m: count}; tag "1" means b = 1, "x" means b != 1
    (2, "1"): {2: 0, 3: 1, 4: 1, 5: 3, 6: 4, 7: 9, 8: 14, 9: 28, 10: 48, 11: 93, 12: 165, 13: 315},
    (4, "1"): {2: 0, 3: 3, 4: 4, 5: 17, 6: 48},
    (4, "x"): {2: 0, 3: 1, 4: 4, 5: 17, 6: 56},
    (8, "1"): {2: 0, 3: 3},
}


# cap attribute -> (environment variable, default); main reads the variable when the
# subcommand takes the flag and none was given
_CAPS = {
    "enum_cap": ("POLYCOUNT_ENUM_CAP", DEFAULT_ENUM_CAP),
    "oracle_cap": ("POLYCOUNT_ORACLE_CAP", DEFAULT_ORACLE_CAP),
    "listing_cap": ("POLYCOUNT_LISTING_CAP", DEFAULT_LISTING_CAP),
}
_parser: argparse.ArgumentParser | None = None

# closed Jacobi order -> (parameter search, its two parameter fields, the name of the unit zeta_order)
_JACOBI_PARAMS = {4: (quartic_params, "a4", "b4", "i"), 3: (cubic_params, "a3", "b3", "z3")}


def _env_cap(var: str, default: int) -> int:
    """The cap set by environment variable `var`, or default when it is unset or empty."""
    text = os.environ.get(var)
    if not text:
        return default
    try:
        return int(text)
    except ValueError:
        raise InvalidInput(f"{var} must be an integer, not {text!r}") from None


def parse_element(ctx, text: str):
    """Element syntax: plain integer (index), 'c0,c1,...' coordinates, or 'g^k'; else InvalidInput."""
    text = text.strip()
    try:
        if text.startswith("g^"):
            return ctx.generator ** int(text[2:])
        if "," in text:
            return ctx.elem([int(c) for c in text.split(",")])
        n = int(text)
        return ctx.from_int(n) if ctx.r == 1 else ctx.from_index(n)
    except ValueError as exc:
        raise InvalidInput(f"bad element {text!r} for F_{ctx.order}: {exc}") from None


def _spec_from_args(args) -> CountSpec:
    base = build_field(args.p, args.r)
    a = parse_element(base, args.a)
    b = parse_element(base, args.b) if args.b is not None else None
    s = args.s
    if s is None:
        # a coset representative with no explicit s fixes the norm completely
        s = base.order - 1 if (b is not None or args.h is not None) else 1
        s = max(s, 1)
    return CountSpec.make(args.p, args.r, args.m, s, a=a, b=b, h=args.h)


def _emit(rows, args, header=None):
    if args.format == "json":
        print(json.dumps(rows, indent=None, sort_keys=True))
    else:
        if header:
            print("\t".join(header))
        for row in rows:
            if isinstance(row, dict):
                print("\t".join(str(row[k]) for k in (header or row.keys())))
            else:
                print("\t".join(str(c) for c in row))


def cmd_count(args) -> int:
    spec = _spec_from_args(args)
    if args.method == "brute":
        value = brute_p_m(spec, cap=args.oracle_cap)
    else:
        value = p_m(spec, method=args.method, cap=args.enum_cap)
    prov = {
        "method": args.method,
        "spec": spec.describe(),
    }
    if args.format == "json":
        print(json.dumps({"count": value, **prov}, sort_keys=True))
    else:
        print(value)
        print(
            f"# method={args.method} s={spec.s} h={spec.h} a={spec.a.index} "
            f"b={spec.b.index} field={json.dumps(spec.base.to_json())}"
        )
    return 0


def cmd_list(args) -> int:
    spec = _spec_from_args(args)
    polys = list_polys(spec, cap=args.oracle_cap, listing_cap=args.listing_cap)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "count": len(polys),
                    "polynomials": [list(p) for p in polys],
                    "field": spec.base.to_json(),
                }
            )
        )
    else:
        for coeffs in polys:
            print("\t".join(str(c) for c in coeffs))
    return 0


def cmd_table5(args) -> int:
    diffs = 0
    rows = []
    for (q, tag), expected in TABLE5.items():
        r = q.bit_length() - 1
        field = build_field(2, r)
        b = field.one if tag == "1" else field.generator
        for m, want in expected.items():
            spec = CountSpec.make(2, r, m, q - 1, a=0, b=b)
            got_oracle = brute_p_m(spec, cap=args.oracle_cap)
            got_formula = p2_general_pm(r, m, b)
            got_catalog = p2_closed_detail(r, m, b).value
            ok = got_oracle == got_formula == got_catalog == want
            diffs += 0 if ok else 1
            rows.append(
                {
                    "q": q,
                    "b": tag,
                    "m": m,
                    "expected": want,
                    "oracle": got_oracle,
                    "formula": got_formula,
                    "catalog": got_catalog,
                    "status": "ok" if ok else "DIFF",
                }
            )
    _emit(rows, args, header=["q", "b", "m", "expected", "oracle", "formula", "catalog", "status"])
    if args.format != "json":
        print(f"# diffs={diffs}")
    return 0


def cmd_catalog(args) -> int:
    ctx = p2_context(args.r)
    field = ctx.field
    q = ctx.q
    ms = [args.m] if args.m else list(range(2, 31))
    rows = []
    for m in ms:
        seen = {}
        for ind in range(max(q - 1, 1)):
            b = field.generator**ind if q > 2 else field.one
            detail = p2_closed_detail(args.r, m, b)
            seen.setdefault((detail.branch, detail.value), []).append(ind)
            if args.all_cosets:
                rows.append(
                    {
                        "m": m,
                        "ind_b": ind,
                        "value": detail.value,
                        "branch": detail.branch,
                        "signs": json.dumps(detail.signs, sort_keys=True),
                    }
                )
        if not args.all_cosets:
            for (branch, value), inds in sorted(seen.items(), key=lambda kv: kv[1][0]):
                rows.append(
                    {
                        "m": m,
                        "ind_b": ",".join(map(str, inds)),
                        "value": value,
                        "branch": branch,
                        "signs": "",
                    }
                )
    if args.format == "json":
        print(json.dumps({"field": field.to_json(), "rows": rows}, sort_keys=True))
    else:
        _emit(rows, args, header=["m", "ind_b", "value", "branch", "signs"])
    return 0


def cmd_verify(args) -> int:
    from .verify import run_grid

    failures = 0
    total = 0
    rows = []
    for row in run_grid(full=args.full, cap=args.enum_cap):
        total += 1
        if not row.ok:
            failures += 1
        rows.append(
            {
                "cell": row.label(),
                "values": json.dumps(row.values, sort_keys=True),
                "status": "PASS" if row.ok else "FAIL",
            }
        )
    _emit(rows, args, header=["cell", "values", "status"])
    if args.format != "json":
        print(f"# cells={total} failures={failures}")
    if failures:
        raise VerificationFailed(f"{failures} of {total} cells disagree")
    return 0


def cmd_sum(args) -> int:
    if args.kind == "monomial":
        tower = build_tower(args.p, args.r, args.t)
        val = monomial_sum(tower, args.t, args.i, args.n, cap=args.enum_cap)
    elif args.kind == "gauss":
        tower = build_tower(args.p, args.r, args.t)
        val = gauss_sum(tower, args.t, args.n, args.k, cap=args.enum_cap)
    elif args.kind == "jacobi":
        val = jacobi_brute(build_field(args.p, args.r), args.n, args.k, args.t, cap=args.enum_cap)
    else:  # pragma: no cover
        raise ValidationError(f"unknown sum kind {args.kind}")
    as_int = val.as_integer()
    extracted = str(as_int) if as_int is not None else "non-rational"
    if args.format == "json":
        print(
            json.dumps(
                {
                    "kind": args.kind,
                    "p": args.p,
                    "r": args.r,
                    "t": args.t,
                    "i": args.i,
                    "n": args.n,
                    "k": args.k,
                    "order": val.order,
                    "coefficients": val.serialize(),
                    "value": extracted,
                    "field": build_field(args.p, args.r).to_json(),
                }
            )
        )
    else:
        coeffs = ",".join(map(str, val.serialize()))
        print(f"{args.kind}\tp={args.p} r={args.r} t={args.t} i={args.i} n={args.n} k={args.k}\t{coeffs}\t{extracted}")
    return 0


def cmd_jacobi(args) -> int:
    g = args.g if args.g is not None else build_field(args.p, 1).generator_index
    if args.order in _JACOBI_PARAMS:
        params, a_name, b_name, unit = _JACOBI_PARAMS[args.order]
        par = params(args.p, g)
        a, b = (jacobi_closed(args.order, args.t, args.p, par).reduced() + (0,))[:2]
        row = {"a": getattr(par, a_name), "b": getattr(par, b_name), "value": f"{a}{b:+}{unit}"}
    elif args.order == 2:
        row = {"a": "", "b": "", "value": str(jacobi_closed(2, args.t, args.p))}
    else:
        raise ValidationError("closed Jacobi forms exist for orders 2, 3, 4")
    rows = [{"order": args.order, "p": args.p, "g": g, "t": args.t, **row}]
    _emit(rows, args, header=["order", "p", "g", "t", "a", "b", "value"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("tsv", "json"), default="tsv")
    enum_cap = argparse.ArgumentParser(add_help=False)
    enum_cap.add_argument("--enum-cap", type=int, default=None, help="max field size any single enumeration may touch")
    oracle_cap = argparse.ArgumentParser(add_help=False)
    oracle_cap.add_argument("--oracle-cap", type=int, default=None, help="max field size the brute-force oracle may scan")
    ap = argparse.ArgumentParser(
        prog="polycount",
        description="Count monic irreducible polynomials over F_q with fixed "
        "trace and coset-restricted norm, exactly.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_spec_args(sp):
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--r", type=int, default=1)
        sp.add_argument("--m", type=int, required=True)
        sp.add_argument(
            "--s",
            type=int,
            default=None,
            help="subgroup index (default: 1, or q-1 when --b/--h is given)",
        )
        sp.add_argument("--a", default="0", help="trace coefficient: int, 'c0,c1,..', or 'g^k'")
        group = sp.add_mutually_exclusive_group()
        group.add_argument("--b", default=None, help="norm coset representative (same syntax as --a)")
        group.add_argument("--h", type=int, default=None, help="coset label relative to the canonical generator")

    sp = sub.add_parser("count", parents=[common, enum_cap, oracle_cap], help="P_m(a, s, h) by the chosen method")
    add_spec_args(sp)
    sp.add_argument("--method", choices=("auto", "brute", "general", "table", "closed"), default="auto")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("list", parents=[common, oracle_cap], help="list the matching irreducible polynomials")
    add_spec_args(sp)
    sp.add_argument("--listing-cap", type=int, default=None)
    sp.set_defaults(func=cmd_list)

    sp = sub.add_parser("table5", parents=[common, oracle_cap], help="reproduce the small-field reference table and diff it")
    sp.set_defaults(func=cmd_table5)

    sp = sub.add_parser("catalog", parents=[common], help="closed-form P_m(0, q-1, .) catalog for q = 2^r")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--all-cosets", action="store_true")
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("verify", parents=[common, enum_cap], help="cross-path equality grid; nonzero exit on failure")
    sp.add_argument("--full", action="store_true", help="run the full grid (minutes)")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sum", parents=[common, enum_cap], help="evaluate one character sum ad hoc")
    sp.add_argument("--kind", choices=("monomial", "gauss", "jacobi"), required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--i", type=int, default=0, help="exponent of gamma_t (monomial)")
    sp.add_argument("--n", type=int, required=True, help="monomial exponent / character order")
    sp.add_argument("--k", type=int, default=1, help="character power (gauss, jacobi)")
    sp.set_defaults(func=cmd_sum)

    sp = sub.add_parser("jacobi", parents=[common], help="closed-form Jacobi sums and their parameters")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--g", type=int, default=None, help="primitive root (default: smallest)")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.set_defaults(func=cmd_jacobi)
    return ap


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        for name, (var, default) in _CAPS.items():
            if getattr(args, name, 0) is None:
                setattr(args, name, _env_cap(var, default))
        return args.func(args)
    except PolycountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
