"""Command-line front end: JSON in, results or check reports out.

Exit codes: 0 success, 1 a check suite reported failures, 2 malformed
input (the diagnostic names the offending JSON path) or a usage error
(argparse's ``usage:`` line and the error on stderr), 3 an internal error
(any exception the library did not raise on purpose).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checks as checks_mod
from . import kernels
from .atoms import atom_from_json, atom_to_json
from .errors import InvalidQuery, OrdkitError
from .lang import (
    closure_bounded,
    elasticity_chain,
    canonical_family,
    fragment_from_json,
    half,
    shuffle_product,
    validate_chain,
)
from .orders import otp, qo_of, qo_from_json, ss
from .production import dim, longest_production_sequence
from .ramsey import ram_exact, ram_upper, ram_verify
from .systems import (
    bang,
    ew_disjoint,
    ew_intersect,
    ew_product,
    ew_union,
    perp,
    system_from_json,
    tagged_union,
)
from .traces import (
    apply as trace_apply,
    branching_degree,
    compose,
    direct_image,
    is_linear,
    is_sequential,
    trace_from_json,
)


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise OrdkitError(f"{path}: no such file")
    except OSError as exc:
        raise OrdkitError(f"{path}: cannot read: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise OrdkitError(f"{path}: not UTF-8 text (byte {exc.start})")
    except json.JSONDecodeError as exc:
        raise OrdkitError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except RecursionError:
        raise OrdkitError(f"{path}: JSON nested too deeply to parse")


def _emit(args, payload, human: str):
    print(json.dumps(payload, sort_keys=True) if args.json else human)


def _check_limits(trials, max_size):
    """Reject a negative trial count or a size cap below 1 as bad input."""
    if trials < 0:
        raise InvalidQuery(f"--trials must be at least 0, got {trials}")
    if max_size is not None and max_size < 1:
        raise InvalidQuery(f"--max-size must be at least 1, got {max_size}")


_PARSER = argparse.ArgumentParser(
    prog="ordkit",
    description="Order types of set systems and quasi-orders, traces, and theorem checks.",
    allow_abbrev=False,
)
_PARSER.add_argument("--json", action="store_true", help="machine-readable output")
_PARSER.add_argument("--seed", type=int, default=42, help="check seed (default: %(default)s)")
_PARSER.add_argument("--trials", type=int, default=500, help="check trials (default: %(default)s)")
_PARSER.add_argument("--max-size", type=int, help="check size cap")
_PARSER.add_argument("--strict", action="store_true", help="reject relations that are not closed")
_COMMANDS = _PARSER.add_subparsers(dest="command", metavar="COMMAND", required=True)


def _arg(*names, **options):
    """The arguments of one ``add_argument`` call, for ``_command``."""
    return names, options


def _command(name: str, *arguments):
    """Register the decorated ``fn(args)`` as the subcommand ``name``, with
    ``arguments`` and ``--json``; its docstring is the help text.

    A global option repeated after the subcommand keeps the global dest with
    ``default=argparse.SUPPRESS``: the subparser sets it only when given, and
    never copies a default over the global value."""

    def register(fn):
        sub = _COMMANDS.add_parser(
            name, help=fn.__doc__, description=fn.__doc__, allow_abbrev=False
        )
        for names, options in arguments:
            sub.add_argument(*names, **options)
        sub.add_argument(
            "--json", action="store_true", default=argparse.SUPPRESS,
            help="machine-readable output",
        )
        sub.set_defaults(run=fn)
        return fn

    return register


@_command(
    "dim",
    _arg("system_file", metavar="SYSTEM_FILE"),
    _arg("--witness", action="store_true"),
    _arg("--max-universe", type=int, default=16, help="(default: %(default)s)"),
)
def dim_cmd(args):
    """Order type of the set system in SYSTEM_FILE."""
    system = system_from_json(_load(args.system_file))
    if len(system.support) > args.max_universe:
        raise OrdkitError(
            f"support has {len(system.support)} elements; raise --max-universe"
        )
    value = dim(system)
    payload = {"dim": value}
    lines = [str(value)]
    if args.witness:
        seq = longest_production_sequence(system)
        payload["witness"] = [
            {"example": atom_to_json(t), "hypothesis": [atom_to_json(a) for a in h]}
            for t, h in seq.steps
        ]
        lines += [f"  {t!r} -> {list(h)!r}" for t, h in seq.steps]
    _emit(args, payload, "\n".join(lines))


@_command("otp", _arg("qo_file", metavar="QO_FILE"))
def otp_cmd(args):
    """Order type of the quasi-order in QO_FILE."""
    value = otp(qo_from_json(_load(args.qo_file), strict=args.strict))
    _emit(args, {"otp": value}, str(value))


@_command("ss", _arg("qo_file", metavar="QO_FILE"))
def ss_cmd(args):
    """System of upward-closed subsets of the quasi-order."""
    qo = qo_from_json(_load(args.qo_file), strict=args.strict)
    system = ss(qo)
    _emit(args, system.to_json(), repr(system))


@_command("qo", _arg("system_file", metavar="SYSTEM_FILE"))
def qo_cmd(args):
    """Quasi-order induced by the set system."""
    system = system_from_json(_load(args.system_file))
    q = qo_of(system)
    _emit(args, q.to_json(), repr(q))


_OPS = {
    "union": (2, 2, lambda a, b: ew_union(a, b)),
    "intersect": (2, 2, lambda a, b: ew_intersect(a, b)),
    "product": (2, 2, lambda a, b: ew_product(a, b)),
    "disjoint": (1, None, ew_disjoint),
    "tagged": (1, None, tagged_union),
    "bang": (1, 1, bang),
    "perp": (1, 1, perp),
}


@_command(
    "op",
    _arg("kind", choices=sorted(_OPS)),
    _arg("system_files", nargs="+", metavar="SYSTEM_FILE"),
)
def op_cmd(args):
    """Apply an elementwise or structural operation to set systems."""
    kind, system_files = args.kind, args.system_files
    lo, hi, fn = _OPS[kind]
    if len(system_files) < lo or (hi is not None and len(system_files) > hi):
        raise InvalidQuery(f"op {kind} takes {lo if hi == lo else f'{lo}+'} operands")
    systems = [system_from_json(_load(f), path=f) for f in system_files]
    result = fn(*systems)
    _emit(args, result.to_json(), repr(result))


@_command(
    "trace",
    _arg("kind", choices=["apply", "image", "compose", "classify"]),
    _arg("files", nargs="+", metavar="FILE"),
)
def trace_cmd(args):
    """Evaluate, image, compose or classify traces."""
    kind, files = args.kind, args.files
    if kind == "apply":
        if len(files) != 2:
            raise InvalidQuery("trace apply takes TRACE_FILE SET_FILE")
        trace = trace_from_json(_load(files[0]), path=files[0])
        raw = _load(files[1])
        if not isinstance(raw, list):
            raise InvalidQuery(f"{files[1]}: expected a JSON list of atoms")
        g = [atom_from_json(a, f"{files[1]}$[{i}]") for i, a in enumerate(raw)]
        out = sorted(trace_apply(trace, g))
        _emit(args, [atom_to_json(a) for a in out], repr(out))
    elif kind == "image":
        if len(files) != 2:
            raise InvalidQuery("trace image takes TRACE_FILE SYSTEM_FILE")
        trace = trace_from_json(_load(files[0]), path=files[0])
        system = system_from_json(_load(files[1]), path=files[1])
        result = direct_image(trace, system)
        _emit(args, result.to_json(), repr(result))
    elif kind == "compose":
        if len(files) != 2:
            raise InvalidQuery("trace compose takes OUTER_FILE INNER_FILE")
        outer = trace_from_json(_load(files[0]), path=files[0])
        inner = trace_from_json(_load(files[1]), path=files[1])
        result = compose(outer, inner)
        _emit(args, result.to_json(), repr(result))
    else:
        if len(files) != 1:
            raise InvalidQuery("trace classify takes TRACE_FILE")
        trace = trace_from_json(_load(files[0]), path=files[0])
        payload = {
            "linear": is_linear(trace),
            "sequential": is_sequential(trace),
            "branching_degree": branching_degree(trace),
        }
        _emit(
            args,
            payload,
            f"linear={payload['linear']} sequential={payload['sequential']} "
            f"branching={payload['branching_degree']}",
        )


@_command(
    "ramsey",
    _arg("kind", choices=["bound", "exact", "verify"]),
    _arg("numbers", nargs="+", type=int, metavar="N"),
)
def ramsey_cmd(args):
    """Ramsey bounds, table lookups, and exhaustive verification."""
    kind, numbers = args.kind, args.numbers
    if kind == "bound":
        value = ram_upper(numbers)
        _emit(args, {"upper": value}, str(value))
    elif kind == "exact":
        value = ram_exact(numbers)
        _emit(args, {"exact": value}, "unknown" if value is None else str(value))
    else:
        if len(numbers) != 3:
            raise InvalidQuery("ramsey verify takes L1 L2 N")
        result = ram_verify(*numbers)
        payload = {"holds_at_n": result.holds_at_n}
        if result.witness is not None:
            payload["witness"] = [
                {"edge": list(e), "color": c} for e, c in result.witness
            ]
        human = "holds" if result.holds_at_n else "fails (witness coloring found)"
        _emit(args, payload, human)


@_command(
    "lang",
    _arg("kind", choices=["star", "plus", "shuffle", "closure", "half"]),
    _arg("files", nargs="+", metavar="FRAGMENT_FILE"),
    _arg("--max-len", type=int),
)
def lang_cmd(args):
    """Bounded closures, shuffle products and the halving operator."""
    kind, max_len = args.kind, args.max_len
    if max_len is not None and kind in ("shuffle", "half"):
        raise InvalidQuery(f"--max-len applies to star, plus and closure, not to {kind}")
    frags = [fragment_from_json(_load(f), path=f) for f in args.files]
    if kind == "shuffle":
        if len(frags) != 2:
            raise InvalidQuery("lang shuffle takes two fragment files")
        result = shuffle_product(frags[0], frags[1])
    elif kind == "half":
        if len(frags) != 1:
            raise InvalidQuery("lang half takes one fragment file")
        result = half(frags[0])
    else:
        if len(frags) != 1:
            raise InvalidQuery(f"lang {kind} takes one fragment file")
        bound = frags[0].max_len if max_len is None else max_len
        closure_kind = {"star": "star", "plus": "plus", "closure": "shuffle_closure"}[kind]
        result = closure_bounded(frags[0], closure_kind, bound)
    words = " ".join(w if w else "ε" for w in sorted(result.words))
    _emit(args, result.to_json(), words or "(empty)")


@_command(
    "chain",
    _arg("--family", required=True, choices=["singl", "dcl", "cosingl", "arith_prog"]),
    _arg("--length", type=int, required=True),
    _arg("--element-horizon", type=int, default=64, help="(default: %(default)s)"),
    _arg("--family-horizon", type=int, default=64, help="(default: %(default)s)"),
)
def chain_cmd(args):
    """Search for an elasticity chain of the given length."""
    fam = canonical_family(args.family)
    chain = elasticity_chain(
        fam, args.length, element_horizon=args.element_horizon, family_horizon=args.family_horizon
    )
    if chain is None:
        _emit(args, {"found": False}, "none found within the horizons")
        return
    assert validate_chain(fam, chain)
    text = f"elements: {list(chain.elements)}\nfamilies: {list(chain.families)}"
    _emit(args, {"found": True, **chain.to_json()}, text)


@_command(
    "check",
    _arg("suite", choices=sorted(checks_mod.SUITES) + ["all"]),
    _arg("--seed", type=int, default=argparse.SUPPRESS, help="override the global seed"),
    _arg("--trials", type=int, default=argparse.SUPPRESS, help="override the global trials"),
    _arg("--max-size", type=int, default=argparse.SUPPRESS,
         help="override the global size cap"),
)
def check_cmd(args):
    """Run a theorem-check suite; exit 1 when any property fails."""
    reports = checks_mod.run_suite(
        args.suite, seed=args.seed, trials=args.trials, max_size=args.max_size
    )
    if args.json:
        print(json.dumps([r.to_json() for r in reports], sort_keys=True))
    else:
        for r in reports:
            status = "ok" if r.ok else f"{len(r.failures)} FAILURES"
            print(f"[{status}] {r.suite} ({r.ms:.0f} ms)")
            for prop in r.properties:
                print(f"    checks: {prop}")
            for f in r.failures[:5]:
                print(f"    FAIL {f['property']}: {f['values']}")
    return 1 if any(not r.ok for r in reports) else None


@_command("info")
def info_cmd(args):
    """Kernel lane in use."""
    _emit(args, {"backend": kernels.BACKEND}, f"backend: {kernels.BACKEND}")


def main(args=None, standalone_mode=True):
    """Run one ``ordkit`` command line (``sys.argv[1:]`` when ``args`` is None).

    With ``standalone_mode`` the process exits with the code; otherwise
    the code is returned: None on success, else 1, 2 or 3 as above (an
    argparse usage error gives 2, ``--help`` gives 0).
    """
    try:
        ns = _PARSER.parse_args(args)
        _check_limits(ns.trials, ns.max_size)
        code = ns.run(ns)
    except SystemExit as exc:  # argparse has printed the usage error or the help
        code = exc.code
    except OrdkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 3
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
