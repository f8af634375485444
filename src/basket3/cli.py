"""Command-line front end.

Subcommands: pluri, ineq, replay, verify, enumerate, constants, lemmas.
Documents and constraint files are JSON; every rational crosses the
boundary as an exact "p/q" string or bare integer, never a float.
Exit codes: 0 pass, 1 mathematical violation, 2 invalid input, 3 I/O
failure.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from .baskets import Basket
from .certificates import Certificate, proof_replay, verify_certificate
from .enumeration import (
    EnumConstraints,
    ExplicitK3,
    MinimalK3Search,
    enumerate_candidates,
)
from .functionals import (
    INEQUALITIES,
    check_lemmas_exhaustive,
    verify_plurigenus_form,
    xi_bar,
)
from .geography import PUBLISHED_C_PRIME, PUBLISHED_M1, derive_constants
from .rationals import format_fraction, parse_fraction
from .riemann_roch import ThreefoldInvariants, k3_from_p2, plurigenus

__all__ = ["entry", "main"]

PASS, VIOLATION, INVALID, IO_FAILURE = 0, 1, 2, 3

_REQUIRED = object()


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _field(data: dict, name: str, kind: type = int, default=_REQUIRED):
    """``data[name]`` when it is exactly a JSON ``kind``: int, or bool for flags.

    Floats, strings and (for int) booleans are rejected, never coerced.  An
    absent field is an error unless it has a default; null means absent
    where the default is None.
    """
    value = data.get(name, default)
    if value is _REQUIRED:
        raise ValueError(f"field {name!r} is required")
    if type(value) is not kind and value is not default:
        raise ValueError(f"field {name!r} must be a JSON {kind.__name__}: {value!r}")
    return value


_DOC_KEYS = ("chi", "k3", "p2", "basket")
_CONSTRAINT_KEYS = (
    "chi_min",
    "chi_max",
    "sigma_max",
    "require_sigma12_zero",
    "k3",
    "m_max",
    "require_nonneg_pm",
    "max_index",
)


def _object(data, name: str, keys: tuple[str, ...]) -> dict:
    """``data`` when it is a JSON object whose keys are all among ``keys``."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be a JSON object")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {name}")
    return data


def _basket(pairs) -> Basket:
    if not isinstance(pairs, list) or not all(
        isinstance(pair, list) and len(pair) == 2 for pair in pairs
    ):
        raise ValueError("field 'basket' must be an array of [b, r] pairs")
    fields = [dict(zip("br", pair)) for pair in pairs]  # [b, r] as fields b, r
    return Basket.from_pairs((_field(f, "b"), _field(f, "r")) for f in fields)


def _doc_invariants(data) -> ThreefoldInvariants:
    data = _object(data, "document", _DOC_KEYS)
    chi = _field(data, "chi")
    basket = _basket(data.get("basket", []))
    has_k3 = "k3" in data
    has_p2 = "p2" in data
    if has_k3 == has_p2:
        raise ValueError("exactly one of 'k3' or 'p2' is required")
    if has_k3:
        k3 = parse_fraction(data["k3"])
    else:
        k3 = k3_from_p2(chi, basket, _field(data, "p2"))
    return ThreefoldInvariants(k3, chi, basket)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def cmd_pluri(args) -> int:
    inv = _doc_invariants(_read_json(args.doc))
    if not 2 <= args.m_from <= args.m_to:
        raise ValueError("need 2 <= m-from <= m-to")
    rows = []
    for m in range(args.m_from, args.m_to + 1):
        rep = plurigenus(inv, m)
        rows.append(
            {
                "m": m,
                "chi_mk": format_fraction(rep.chi_mk),
                "integral": rep.is_integral,
                "p_m": rep.p_m,
            }
        )
    if args.format == "csv":
        print("m,chi_mk,integral,p_m")
        for row in rows:
            p_m = "" if row["p_m"] is None else str(row["p_m"])
            print(f"{row['m']},{row['chi_mk']},{str(row['integral']).lower()},{p_m}")
    else:
        _emit({"rows": rows})
    return PASS


def cmd_ineq(args) -> int:
    if args.which in (1, 2):
        if args.doc is None:
            raise ValueError(f"form {args.which} needs a full invariants document")
        inv = _doc_invariants(_read_json(args.doc))
        report = verify_plurigenus_form(inv, args.which, strict=True)
        value, target = report.p_form, report.target
    else:
        # Forms 3 and 4 are the per-basket statements of forms 1 and 2.
        if args.basket is not None:
            pairs = json.loads(args.basket)
        elif args.doc is not None:
            doc = _object(_read_json(args.doc), "document", _DOC_KEYS)
            pairs = doc.get("basket", [])
        else:
            raise ValueError("forms 3 and 4 need --basket or a document")
        basket = _basket(pairs)
        ineq = INEQUALITIES[args.which - 2]
        value, target = xi_bar(ineq.functional, basket), ineq.target(basket)
    ok = value >= target
    _emit(
        {
            "which": args.which,
            "value": format_fraction(value),
            "target": format_fraction(target),
            "slack": format_fraction(value - target),
            "pass": ok,
        }
    )
    return PASS if ok else VIOLATION


def cmd_replay(args) -> int:
    ineq = INEQUALITIES[args.which]
    cert = proof_replay(
        ineq.functional, args.r_max, low_slope_floor=ineq.floor, jobs=args.jobs
    )
    cert.write(args.out)
    min_slack = cert.min_slack()
    attained = cert.min_slack_points()
    _emit(
        {
            "which": args.which,
            "r_max": args.r_max,
            "nodes": len(cert.nodes),
            "min_slack": format_fraction(min_slack),
            "attained_count": len(attained),
            "attained": [str(p) for p in attained[:16]],
            "pass": min_slack >= 0,
        }
    )
    return PASS if min_slack >= 0 else VIOLATION


def cmd_verify(args) -> int:
    report = verify_certificate(Certificate.read(args.certificate))
    _emit(
        {
            "nodes": report.nodes,
            "min_slack": None
            if report.min_slack is None
            else format_fraction(report.min_slack),
            "ok": report.ok,
            "issues": list(report.issues[:10]),
            "issue_count": len(report.issues),
        }
    )
    return PASS if report.ok else VIOLATION


def _constraints_from_json(data) -> EnumConstraints:
    data = _object(data, "constraints", _CONSTRAINT_KEYS)
    policy_data = _object(
        data.get("k3", {"search": {}}), "k3 policy", ("explicit", "search")
    )
    if len(policy_data) != 1:
        raise ValueError("k3 policy must contain exactly one of 'explicit' or 'search'")
    if "explicit" in policy_data:
        policy = ExplicitK3(parse_fraction(policy_data["explicit"]))
    else:
        search = _object(policy_data["search"], "k3 search", ("denominator",))
        policy = MinimalK3Search(_field(search, "denominator", default=None))
    return EnumConstraints(
        chi_min=_field(data, "chi_min"),
        chi_max=_field(data, "chi_max"),
        sigma_max=_field(data, "sigma_max"),
        require_sigma12_zero=_field(data, "require_sigma12_zero", bool, True),
        k3_policy=policy,
        m_max=_field(data, "m_max", default=12),
        require_nonneg_pm=_field(data, "require_nonneg_pm", bool, True),
        max_index=_field(data, "max_index", default=None),
    )


def cmd_enumerate(args) -> int:
    constraints = _constraints_from_json(_read_json(args.constraints))
    all_ok = True
    for cand in enumerate_candidates(constraints):
        checks_ok = all(
            verify_plurigenus_form(cand.invariants(), which, strict=False).ok
            for which in (1, 2)
        )
        all_ok = all_ok and checks_ok
        _emit(
            {
                "basket": cand.basket.pairs(),
                "chi": cand.chi,
                "k3": format_fraction(cand.k3),
                "pm": list(cand.pm),
            }
        )
    return PASS if all_ok else VIOLATION


def cmd_constants(args) -> int:
    chain = derive_constants(args.m0)
    _emit(
        {
            "m0": chain.m0,
            "t0": chain.t0,
            "c1": format_fraction(chain.c1),
            "c2": format_fraction(chain.c2),
            "m1": chain.m1,
            "c_prime": format_fraction(chain.c_prime),
            "c_general": chain.c_general,
            "c_finite": chain.c_finite,
            "c": chain.c,
            "published_c_prime": format_fraction(PUBLISHED_C_PRIME),
            "published_m1": PUBLISHED_M1,
        }
    )
    return PASS


def cmd_lemmas(args) -> int:
    sweep = check_lemmas_exhaustive(args.r1_max, args.r2_max)
    _emit(
        {
            "pairs": sweep.pairs,
            "nodiff_checked": sweep.nodiff_checked,
            "diff_checked": sweep.diff_checked,
            "uncovered": sweep.uncovered,
            "mismatches": list(sweep.mismatches[:10]),
            "mismatch_count": len(sweep.mismatches),
        }
    )
    return PASS if sweep.ok else VIOLATION


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basket3",
        description="Exact basket calculus and plurigenus inequality checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pluri", help="table of chi(mK) and plurigenera")
    p.add_argument("doc", help="invariants document (path or - for stdin)")
    p.add_argument("--m-from", type=int, default=2)
    p.add_argument("--m-to", type=int, default=12)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_pluri)

    p = sub.add_parser("ineq", help="check one of the four inequalities")
    p.add_argument("doc", nargs="?", help="invariants document (forms 1 and 2)")
    p.add_argument("--which", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--basket", help="inline basket JSON, e.g. [[2,5]]")
    p.set_defaults(handler=cmd_ineq)

    p = sub.add_parser("replay", help="build an inequality certificate")
    p.add_argument("--which", type=int, choices=(1, 2), required=True)
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--out", required=True, help="certificate output path")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(handler=cmd_replay)

    p = sub.add_parser("verify", help="independently re-check a certificate")
    p.add_argument("certificate", help="certificate file path")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("enumerate", help="stream candidates under constraints")
    p.add_argument("constraints", help="constraints JSON (path or -)")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("constants", help="derive the constant chain from m0")
    p.add_argument("m0", type=int)
    p.set_defaults(handler=cmd_constants)

    p = sub.add_parser("lemmas", help="exhaustive check of the two split lemmas")
    p.add_argument("--r1-max", type=int, default=10)
    p.add_argument("--r2-max", type=int, default=10)
    p.set_defaults(handler=cmd_lemmas)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return IO_FAILURE
    # Every invalid-input error of the package is a ValueError subclass.
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVALID


def entry() -> None:
    # Die quietly, as Unix filters do, when a reader like `head` closes stdout.
    # Not in main(): tests and the benchmark call main() in-process.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
