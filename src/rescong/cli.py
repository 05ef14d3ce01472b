"""Command line front end.

Usage examples:
    rescong count --n 4 --s 2 --b 5 --t 1,2
    rescong count --n 4 --s 2 --b 5 --g 1,1,0 --engine brute --format json
    rescong ramanujan --r 4 --s 2 --m 16
    rescong ggcd --a 12 --b 16 --s 2
    rescong classes --n 4 --s 2 --elements
    rescong solve --n 4 --s 2 --b 5 --t 1,2 --limit 10
    rescong verify --max-n 6 --s 1,2 --max-k 3 --seed 0

Exit codes: 0 success, 1 usage or domain error, 2 verification mismatch.

With --format json every command prints one record
{"command", "params", "engine", "result", "elapsed_ms"} with sorted keys.
Count-like integers are serialized as decimal strings so arbitrary
precision survives the trip; class members and solution tuples stay
integer arrays.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable

from .arith import check_power, divisors, generalized_gcd, jordan_totient
from .congruence import CongruenceInstance, class_members, count_restricted
from .errors import BudgetExceededError, DomainError, show_int
from .oracle import brute_force_count, convolution_count, enumerate_solutions
from .ramanujan import cohen_ramanujan
from .verification import SweepConfig, engine_sweep

ENGINES = ("formula", "brute", "convolution")
# The most unknowns --g may spell: about what --t can spell within one argv.
MAX_UNKNOWNS = 2**20


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; this CLI reserves 2 for
    # verification mismatches, so route usage problems through exit 1.
    def error(self, message):
        raise _UsageError(message)


def _parse_int_list(text: str, flag: str) -> list[int]:
    if text is None or text == "" or text == "-":
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise _UsageError(f"{flag} expects a comma-separated list of integers, got {text!r}")


def _budget(args, keyword: str = "budget") -> dict:
    """--budget as keyword arguments for an engine; empty when not given."""
    if args.budget is None:
        return {}
    if args.budget < 0:
        raise _UsageError(f"--budget must be >= 0, got {show_int(args.budget)}")
    return {keyword: args.budget}


def _instance(args) -> tuple[CongruenceInstance, dict]:
    """The instance named by --n --s --b and --t or --g, and its params."""
    check_power(args.n, args.s, "n**s")
    if args.g is not None:
        g = _parse_int_list(args.g, "--g")
        divs = divisors(args.n)
        if len(g) != len(divs):
            raise DomainError(
                f"--g needs one entry per divisor of n={args.n} "
                f"({len(divs)} entries for divisors {','.join(map(str, divs))}), got {len(g)}"
            )
        if any(x < 0 for x in g):
            raise DomainError("--g entries must be nonnegative")
        if sum(g) > MAX_UNKNOWNS:
            raise DomainError(
                f"--g spells at most {MAX_UNKNOWNS} unknowns, got at least 2**{sum(g).bit_length() - 1}"
            )
        restrictions = tuple(d for d, gj in zip(divs, g) for _ in range(gj))
    else:
        restrictions = tuple(_parse_int_list(args.t, "--t"))
    inst = CongruenceInstance(n=args.n, s=args.s, b=args.b, restrictions=restrictions)
    params = {
        "n": args.n, "s": args.s, "b": args.b, "t": list(restrictions), "modulus": inst.modulus
    }
    return inst, params


def _t_display(values: list[int] | tuple[int, ...]) -> str:
    return ",".join(map(str, values)) if values else "-"


def _pairs(record: dict) -> str:
    """`record` as key=value pairs, each list written as --t takes it."""
    shown = (f"{k}={_t_display(v) if isinstance(v, list) else v}" for k, v in record.items())
    return " ".join(shown)


# Every cmd_* returns params, result and `text`, a function that builds the
# text lines from them.  main calls it only for --format text: n**s in
# decimal takes seconds near MAX_POWER_BITS, so no text is built for json.
_Reply = tuple[dict, dict, Callable[[], list[str]]]


def cmd_count(args) -> _Reply:
    inst, params = _instance(args)
    budget = _budget(args)
    if args.engine == "formula":
        value = count_restricted(inst)  # the closed form enumerates nothing
    elif args.engine == "brute":
        value = brute_force_count(inst, **budget)
    else:
        value = convolution_count(inst, **budget)
    result = {"count": str(value)}
    header = params | {"engine": args.engine}
    return params, result, lambda: [_pairs(header), f"count = {result['count']}"]


def cmd_ramanujan(args) -> _Reply:
    params = {"r": args.r, "s": args.s, "m": args.m}
    result = {"value": str(cohen_ramanujan(args.r, args.s, args.m))}
    return params, result, lambda: ["c_{{{r},{s}}}({m}) = {value}".format(**params, **result)]


def cmd_ggcd(args) -> _Reply:
    base = generalized_gcd(args.a, args.b, args.s)
    params = {"a": args.a, "b": args.b, "s": args.s}
    result = {"value": str(base**args.s), "base": str(base), "power": args.s}
    return params, result, lambda: [
        "({a}, {b})_{s} = {value}".format(**params, **result), f"base l = {result['base']}"
    ]


def cmd_classes(args) -> _Reply:
    check_power(args.n, args.s, "n**s")
    budget = _budget(args)
    rows = []
    for d in divisors(args.n):
        row: dict = {"d": d, "size": str(jordan_totient(args.n // d, args.s))}
        if args.elements:
            row["members"] = class_members(args.n, args.s, d, **budget)
        rows.append(row)
    modulus = args.n**args.s
    params = {"n": args.n, "s": args.s, "modulus": modulus, "elements": bool(args.elements)}
    result = {"rows": rows, "total": str(modulus)}
    header = {"n": args.n, "s": args.s, "modulus": result["total"]}
    return params, result, lambda: [
        _pairs(header), *map(_pairs, rows), f"total = {result['total']}"
    ]


def cmd_solve(args) -> _Reply:
    inst, params = _instance(args)
    budget = _budget(args)
    solutions = enumerate_solutions(inst, args.limit, **budget)
    try:
        count = count_restricted(inst)
    except DomainError:  # n past FACTORIZE_LIMIT: only the walk answers
        count = brute_force_count(inst, **budget)
    result = {"solutions": solutions, "count": str(count)}
    return params | {"limit": args.limit}, result, lambda: [
        _pairs(params),
        *(",".join(map(str, sol)) if sol else "()" for sol in solutions),
        f"count = {result['count']}",
    ]


def cmd_verify(args) -> _Reply:
    s_values = tuple(_parse_int_list(args.s, "--s"))
    cfg = SweepConfig(args.max_n, s_values, args.max_k, args.seed, **_budget(args, "cap"))
    sweep = engine_sweep(cfg)
    params = cfg._asdict()
    params["s"] = list(params.pop("s_values"))
    report = sweep._asdict()
    result = {"ok": sweep.ok, "instances_checked": report.pop("checked"),
              "instance_space": report.pop("space"), **report}
    return params, result, lambda: _verify_text(result)


def _verify_text(r: dict) -> list[str]:
    mode = "subsampled" if r["subsampled"] else "exhaustive"
    times = ", ".join(f"{key.replace('_', ' ')} {ms:.3f} ms" for key, ms in r["engine_ms"].items())
    refused = ", ".join(f"{key.replace('_', ' ')} {n}" for key, n in r["refused"].items())
    lines = [
        f"engine sweep: {r['instances_checked']} instances checked "
        f"(space {r['instance_space']}, {mode}), {len(r['mismatches'])} mismatches",
        f"identity suites: {r['identity_checks']} checks, {len(r['identity_failures'])} failures",
        f"engine time: {times}",
        *([f"engine refusals: {refused}"] if any(r["refused"].values()) else []),
        *(f"MISMATCH {_pairs(miss)}" for miss in r["mismatches"][:10]),
        *(f"FAILURE {failure}" for failure in r["identity_failures"][:10]),
    ]
    if r["mismatches"]:
        first = r["mismatches"][0]
        lines.append(
            f"reproduce: rescong count --n {first['n']} --s {first['s']} "
            f"--b {first['b']} --t {_t_display(first['t'])} --engine brute"
        )
    lines.append("ok" if r["ok"] else "MISMATCH DETECTED")
    return lines


def _add_instance_flags(sub) -> None:
    sub.add_argument("--n", type=int, required=True, help="modulus base")
    sub.add_argument("--s", type=int, required=True, help="modulus power (congruence mod n**s)")
    sub.add_argument("--b", type=int, required=True, help="target residue")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--t", help="comma list of base divisors t_i, one per unknown")
    group.add_argument("--g", help="comma list of per-divisor multiplicities g_j")


def build_parser() -> _Parser:
    parser = _Parser(prog="rescong", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand")

    p = subs.add_parser("count", help="solution count for one restricted congruence")
    _add_instance_flags(p)
    p.add_argument("--engine", choices=ENGINES, default="formula")
    p.add_argument("--budget", type=int, help="override the brute or convolution engine's budget")
    p.set_defaults(handler=cmd_count)

    p = subs.add_parser("ramanujan", help="evaluate the generalized Ramanujan sum c_{r,s}(m)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=cmd_ramanujan)

    p = subs.add_parser("ggcd", help="generalized gcd (a, b)_s")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(handler=cmd_ggcd)

    p = subs.add_parser("classes", help="divisor classes of [1, n**s] and their sizes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--elements", action="store_true", help="also list the members")
    p.add_argument("--budget", type=int, help="enumeration budget for --elements")
    p.set_defaults(handler=cmd_classes)

    p = subs.add_parser("solve", help="list explicit solutions, lexicographically")
    _add_instance_flags(p)
    p.add_argument("--limit", type=int, default=1000)
    p.add_argument("--budget", type=int, help="tuple enumeration budget")
    p.set_defaults(handler=cmd_solve)

    cfg = SweepConfig()
    p = subs.add_parser("verify", help="engine-agreement sweep plus identity suites")
    p.add_argument("--max-n", type=int, default=cfg.max_n)
    p.add_argument("--s", default=_t_display(cfg.s_values), help="comma list of powers to sweep")
    p.add_argument("--max-k", type=int, default=cfg.max_k)
    p.add_argument("--seed", type=int, default=cfg.seed, help="seed for the subsample, if any")
    p.add_argument("--budget", type=int, help="instance cap before subsampling kicks in")
    p.set_defaults(handler=cmd_verify)

    for p in subs.choices.values():
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # Integer flags and counts can pass the interpreter's 4300-digit int <-> str cap.
    digit_cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "handler"):
            parser.print_help()
            return 1
        t0 = time.perf_counter()
        params, result, text = args.handler(args)
        record = {
            "command": args.subcommand,
            "params": params,
            "engine": getattr(args, "engine", None),
            "result": result,
            "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        }
        print(json.dumps(record, sort_keys=True) if args.format == "json" else "\n".join(text()))
        # Only verify reports "ok"; false there is a verification mismatch.
        return 0 if result.get("ok", True) else 2
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, BudgetExceededError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(digit_cap)
