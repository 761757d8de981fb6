"""Command-line front end: JSON in, results or check reports out.

Exit codes: 0 success, 1 a check suite reported failures, 2 malformed
input (the diagnostic names the offending JSON path).
"""

from __future__ import annotations

import functools
import json

import click

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
    except json.JSONDecodeError as exc:
        raise OrdkitError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")


def _emit(ctx, payload, human: str):
    if ctx.obj["json"]:
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        click.echo(human)


@click.group()
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--trials", type=int, default=500, show_default=True)
@click.option("--max-size", type=int, default=None)
@click.option("--strict", is_flag=True, help="reject relations that are not closed")
@click.pass_context
def main(ctx, as_json, seed, trials, max_size, strict):
    """Order types of set systems and quasi-orders, traces, and theorem checks."""
    try:
        _check_limits(trials, max_size)
    except OrdkitError as exc:
        _fail_input(ctx, exc)
    ctx.ensure_object(dict)
    ctx.obj.update(
        json=as_json, seed=seed, trials=trials, max_size=max_size, strict=strict
    )


def _check_limits(trials, max_size):
    """Reject a negative trial count or a size cap below 1 as bad input."""
    if trials is not None and trials < 0:
        raise InvalidQuery(f"--trials must be at least 0, got {trials}")
    if max_size is not None and max_size < 1:
        raise InvalidQuery(f"--max-size must be at least 1, got {max_size}")


def _fail_input(ctx, exc):
    click.echo(f"error: {exc}", err=True)
    ctx.exit(2)


_json_opt = click.option(
    "--json", "local_json", is_flag=True, help="machine-readable output"
)


def _wrap(fn):
    """Convert library errors into exit code 2 with a diagnostic."""

    @functools.wraps(fn)
    def runner(ctx, *args, **kwargs):
        if kwargs.pop("local_json", False):
            ctx.obj["json"] = True
        try:
            return fn(ctx, *args, **kwargs)
        except OrdkitError as exc:
            _fail_input(ctx, exc)

    return runner


@main.command("dim")
@click.argument("system_file")
@click.option("--witness", is_flag=True)
@click.option("--max-universe", type=int, default=16, show_default=True)
@_json_opt
@click.pass_context
@_wrap
def dim_cmd(ctx, system_file, witness, max_universe):
    """Order type of the set system in SYSTEM_FILE."""
    system = system_from_json(_load(system_file))
    if len(system.support) > max_universe:
        raise OrdkitError(
            f"support has {len(system.support)} elements; raise --max-universe"
        )
    value = dim(system)
    payload = {"dim": value}
    lines = [str(value)]
    if witness:
        seq = longest_production_sequence(system)
        payload["witness"] = [
            {"example": atom_to_json(t), "hypothesis": [atom_to_json(a) for a in h]}
            for t, h in seq.steps
        ]
        lines += [f"  {t!r} -> {list(h)!r}" for t, h in seq.steps]
    _emit(ctx, payload, "\n".join(lines))


@main.command("otp")
@click.argument("qo_file")
@_json_opt
@click.pass_context
@_wrap
def otp_cmd(ctx, qo_file):
    """Order type of the quasi-order in QO_FILE."""
    qo = qo_from_json(_load(qo_file), strict=ctx.obj["strict"])
    _emit(ctx, {"otp": otp(qo)}, str(otp(qo)))


@main.command("ss")
@click.argument("qo_file")
@_json_opt
@click.pass_context
@_wrap
def ss_cmd(ctx, qo_file):
    """System of upward-closed subsets of the quasi-order."""
    qo = qo_from_json(_load(qo_file), strict=ctx.obj["strict"])
    system = ss(qo)
    _emit(ctx, system.to_json(), repr(system))


@main.command("qo")
@click.argument("system_file")
@_json_opt
@click.pass_context
@_wrap
def qo_cmd(ctx, system_file):
    """Quasi-order induced by the set system."""
    system = system_from_json(_load(system_file))
    q = qo_of(system)
    _emit(ctx, q.to_json(), repr(q))


_OPS = {
    "union": (2, 2, lambda a, b: ew_union(a, b)),
    "intersect": (2, 2, lambda a, b: ew_intersect(a, b)),
    "product": (2, 2, lambda a, b: ew_product(a, b)),
    "disjoint": (1, None, ew_disjoint),
    "tagged": (1, None, tagged_union),
    "bang": (1, 1, bang),
    "perp": (1, 1, perp),
}


@main.command("op")
@click.argument("kind", type=click.Choice(sorted(_OPS)))
@click.argument("system_files", nargs=-1, required=True)
@_json_opt
@click.pass_context
@_wrap
def op_cmd(ctx, kind, system_files):
    """Apply an elementwise or structural operation to set systems."""
    lo, hi, fn = _OPS[kind]
    if len(system_files) < lo or (hi is not None and len(system_files) > hi):
        raise InvalidQuery(f"op {kind} takes {lo if hi == lo else f'{lo}+'} operands")
    systems = [system_from_json(_load(f), path=f) for f in system_files]
    result = fn(*systems)
    _emit(ctx, result.to_json(), repr(result))


@main.command("trace")
@click.argument("kind", type=click.Choice(["apply", "image", "compose", "classify"]))
@click.argument("files", nargs=-1, required=True)
@_json_opt
@click.pass_context
@_wrap
def trace_cmd(ctx, kind, files):
    """Evaluate, image, compose or classify traces."""
    if kind == "apply":
        if len(files) != 2:
            raise InvalidQuery("trace apply takes TRACE_FILE SET_FILE")
        trace = trace_from_json(_load(files[0]), path=files[0])
        raw = _load(files[1])
        if not isinstance(raw, list):
            raise InvalidQuery(f"{files[1]}: expected a JSON list of atoms")
        g = [atom_from_json(a, f"{files[1]}$[{i}]") for i, a in enumerate(raw)]
        out = sorted(trace_apply(trace, g))
        _emit(ctx, [atom_to_json(a) for a in out], repr(out))
    elif kind == "image":
        if len(files) != 2:
            raise InvalidQuery("trace image takes TRACE_FILE SYSTEM_FILE")
        trace = trace_from_json(_load(files[0]), path=files[0])
        system = system_from_json(_load(files[1]), path=files[1])
        result = direct_image(trace, system)
        _emit(ctx, result.to_json(), repr(result))
    elif kind == "compose":
        if len(files) != 2:
            raise InvalidQuery("trace compose takes OUTER_FILE INNER_FILE")
        outer = trace_from_json(_load(files[0]), path=files[0])
        inner = trace_from_json(_load(files[1]), path=files[1])
        _emit(ctx, compose(outer, inner).to_json(), repr(compose(outer, inner)))
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
            ctx,
            payload,
            f"linear={payload['linear']} sequential={payload['sequential']} "
            f"branching={payload['branching_degree']}",
        )


@main.command("ramsey")
@click.argument("kind", type=click.Choice(["bound", "exact", "verify"]))
@click.argument("numbers", nargs=-1, type=int, required=True)
@_json_opt
@click.pass_context
@_wrap
def ramsey_cmd(ctx, kind, numbers):
    """Ramsey bounds, table lookups, and exhaustive verification."""
    if kind == "bound":
        _emit(ctx, {"upper": ram_upper(numbers)}, str(ram_upper(numbers)))
    elif kind == "exact":
        value = ram_exact(numbers)
        _emit(ctx, {"exact": value}, "unknown" if value is None else str(value))
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
        _emit(ctx, payload, human)


@main.command("lang")
@click.argument("kind", type=click.Choice(["star", "plus", "shuffle", "closure", "half"]))
@click.argument("files", nargs=-1, required=True)
@click.option("--max-len", type=int, default=None)
@_json_opt
@click.pass_context
@_wrap
def lang_cmd(ctx, kind, files, max_len):
    """Bounded closures, shuffle products and the halving operator."""
    frags = [fragment_from_json(_load(f), path=f) for f in files]
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
    _emit(ctx, result.to_json(), words or "(empty)")


@main.command("chain")
@click.option("--family", required=True,
              type=click.Choice(["singl", "dcl", "cosingl", "arith_prog"]))
@click.option("--length", type=int, required=True)
@click.option("--element-horizon", type=int, default=64, show_default=True)
@click.option("--family-horizon", type=int, default=64, show_default=True)
@_json_opt
@click.pass_context
@_wrap
def chain_cmd(ctx, family, length, element_horizon, family_horizon):
    """Search for an elasticity chain of the given length."""
    fam = canonical_family(family)
    chain = elasticity_chain(
        fam, length, element_horizon=element_horizon, family_horizon=family_horizon
    )
    if chain is None:
        _emit(ctx, {"found": False}, "none found within the horizons")
        return
    assert validate_chain(fam, chain)
    payload = {"found": True, **chain.to_json()}
    _emit(
        ctx,
        payload,
        f"elements: {list(chain.elements)}\nfamilies: {list(chain.families)}",
    )


@main.command("check")
@click.argument(
    "suite",
    type=click.Choice(sorted(checks_mod.SUITES) + ["all"]),
)
@click.option("--seed", type=int, default=None, help="override the global seed")
@click.option("--trials", type=int, default=None, help="override the global trials")
@click.option("--max-size", type=int, default=None, help="override the global size cap")
@_json_opt
@click.pass_context
@_wrap
def check_cmd(ctx, suite, seed, trials, max_size):
    """Run a theorem-check suite; exit 1 when any property fails."""
    _check_limits(trials, max_size)
    reports = checks_mod.run_suite(
        suite,
        seed=ctx.obj["seed"] if seed is None else seed,
        trials=ctx.obj["trials"] if trials is None else trials,
        max_size=ctx.obj["max_size"] if max_size is None else max_size,
    )
    failed = False
    if ctx.obj["json"]:
        click.echo(json.dumps([r.to_json() for r in reports], sort_keys=True))
        failed = any(not r.ok for r in reports)
    else:
        for r in reports:
            status = "ok" if r.ok else f"{len(r.failures)} FAILURES"
            click.echo(f"[{status}] {r.suite} ({r.ms:.0f} ms)")
            for prop in r.properties:
                click.echo(f"    checks: {prop}")
            for f in r.failures[:5]:
                click.echo(f"    FAIL {f['property']}: {f['values']}")
            if not r.ok:
                failed = True
    if failed:
        ctx.exit(1)


@main.command("info")
@_json_opt
@click.pass_context
@_wrap
def info_cmd(ctx):
    """Kernel lane in use and, when the compiled lane failed to load, why."""
    payload = {"backend": kernels.BACKEND, "fallback_reason": kernels.FALLBACK_REASON}
    human = f"backend: {kernels.BACKEND}"
    if kernels.FALLBACK_REASON is not None:
        human += f"\nfallback reason: {kernels.FALLBACK_REASON}"
    _emit(ctx, payload, human)


if __name__ == "__main__":
    main(prog_name="ordkit")
