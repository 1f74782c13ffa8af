"""Command-line interface.

Every subcommand reads JSON inputs, runs the mapped library operation and
emits a report that embeds the exact configuration, the seed, the library
version and a hash of the configuration, so identical invocations produce
bit-identical output.  Numeric results carry a provenance tag out of
{exact, brute_force, heuristic, fitted}.

Exit codes: 0 success, 2 invalid input (an input file that cannot be read or
converted is invalid input), 3 numerical failure, 64 unknown subcommand.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import operator
import os
import stat
import sys
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from . import __version__, embed, expander, john, markov, mazur, rayleigh, suite
from .errors import DimensionMismatch, EmptyFamily, NumericalError, ValidationError
from .spaces import Configuration, MetricSpace, space_from_json


def _read(path: str, parse, decode=json.loads):
    """parse(decode(text)) of the input file at path.  Failing to open, decode
    or convert it is invalid input: the error is raised again as a
    ValidationError with its message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(decode(fh.read()))
    except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ValidationError(str(exc)) from exc


def _matrix(obj) -> np.ndarray:
    """A JSON array of rows as a 2-D float array."""
    m = np.array(obj, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected an n x d array, got shape {m.shape}")
    return m


_PLAIN = {int, float}


def _json(value, pad: str | None = "\n") -> str:
    """JSON text of a report value, in one pass: the bytes of json.dumps with
    sort_keys=True and indent=2 (pad, the newline and indent of the enclosing
    level) or on one line (pad None).  Dict keys become str, tuples and arrays
    lists, numpy scalars Python ones, and an infinite or NaN float the string
    "inf", "-inf" or "nan"."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = {str(k): v for k, v in value.items()}
        inner = pad and pad + "  "
        body = ("," + inner if pad else ", ").join(
            f"{_encode_str(k)}: {_json(items[k], inner)}" for k in sorted(items))
        return "{" + (inner or "") + body + (pad or "") + "}"
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad and pad + "  "
        if _PLAIN.issuperset(map(type, value)) and not any(map(operator.sub, value, value)):
            parts = map(repr, value)  # plain ints and finite floats: x - x is 0
        else:
            parts = (_json(v, inner) for v in value)
        return "[" + (inner or "") + ("," + inner if pad else ", ").join(parts) + (pad or "") + "]"
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        return '"nan"' if math.isnan(value) else repr(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(report: dict, config: dict, args) -> None:
    payload = {
        "command": config["command"],
        "version": __version__,
        "seed": config["seed"],
        "config": config,
        "config_hash": hashlib.sha256(_json(config, None).encode()).hexdigest(),
        "report": report,
    }
    if args.format == "csv":
        lines = ["key,value"]

        def walk(prefix, node):
            if isinstance(node, dict):
                for k in sorted(node):
                    walk(f"{prefix}{k}.", node[k])
            elif isinstance(node, list):
                for i, v in enumerate(node):
                    walk(f"{prefix}{i}.", v)
            else:
                lines.append(f"{prefix[:-1]},{node}")

        walk("", json.loads(_json(report, None)))
        text = "\n".join(lines) + "\n"
    else:
        text = _json(payload) + "\n"
    if args.output:
        # write over the old bytes and truncate after: truncating a written
        # file to zero at open starts its writeback; only regular files can
        # be truncated (not a pipe behind /dev/stdout)
        with open(os.open(args.output, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write(text.encode("utf-8"))
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    else:
        sys.stdout.write(text)


def _chain_from_arg(path: str) -> markov.StochasticChain:
    if path.endswith(".json"):
        return _read(path, markov.chain_from_json)
    return _read(path, markov.chain_from_text, decode=str)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="nsgap")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--output", default=None)
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("gap", help="nonlinear spectral gap of a chain over a space")
    sp.add_argument("--chain", required=True)
    sp.add_argument("--space", required=True)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--method", choices=("auto", "exact", "brute", "heuristic"),
                    default="auto")
    sp.add_argument("--restarts", type=int, default=32)
    sp.add_argument("--iters", type=int, default=500)
    common(sp)

    sp = sub.add_parser("gap-plus", help="absolute gap by pair enumeration")
    sp.add_argument("--chain", required=True)
    sp.add_argument("--space", required=True)
    sp.add_argument("--q", type=float, default=2.0)
    common(sp)

    sp = sub.add_parser("rayleigh-check", help="quotient calculus identities")
    sp.add_argument("--chain", required=True)
    sp.add_argument("--lam", type=float, default=0.5)
    sp.add_argument("--t", type=int, default=3)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--points", default=None,
                    help="JSON n x d array; a seeded Gaussian is used if omitted")
    common(sp)

    sp = sub.add_parser("mazur-check", help="Mazur map round trip / Holder fit")
    sp.add_argument("--function", required=True)
    sp.add_argument("--function-b", default=None)
    sp.add_argument("--space", required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    common(sp)

    sp = sub.add_parser("extrapolate", help="two-exponent gap comparison")
    sp.add_argument("--chain", required=True)
    sp.add_argument("--space", required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    common(sp)

    sp = sub.add_parser("john", help="Hilbertian sandwich norm and D_X")
    sp.add_argument("--space", required=True)
    common(sp)

    sp = sub.add_parser("embed", help="average-distortion Hilbert embedding")
    sp.add_argument("--metric", required=True)
    sp.add_argument("--theta", type=float, default=1.0)
    sp.add_argument("--mu", default="uniform",
                    help='"uniform" or a path to a JSON weight vector')
    common(sp)

    sp = sub.add_parser("verify-duality", help="forward duality at a witness")
    sp.add_argument("--embedding", required=True,
                    help="JSON report produced by the embed subcommand")
    sp.add_argument("--chain", required=True)
    sp.add_argument("--metric", required=True)
    sp.add_argument("--theta", type=float, default=1.0)
    common(sp)

    sp = sub.add_parser("expander", help="sample a regular graph and check it")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    common(sp)

    sp = sub.add_parser("bounds", help="closed-form expander bound calculators")
    sp.add_argument("--formula", choices=("dimension", "distortion", "coarse"),
                    required=True)
    sp.add_argument("--n", type=int, default=1024)
    sp.add_argument("--d", type=int, default=4)
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.add_argument("--D", type=float, default=1.0)
    sp.add_argument("--q", type=float, default=2.0)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--c-q", type=float, default=1.0)
    sp.add_argument("--omega1", type=float, default=1.0)
    common(sp)

    sp = sub.add_parser("calibrate", help="fit an unspecified comparison constant")
    sp.add_argument("--constant", choices=("C_thm4", "c_q", "C_pq"), required=True)
    sp.add_argument("--family-size", type=int, default=20)
    common(sp)

    sp = sub.add_parser("suite", help="run a named verification battery")
    sp.add_argument("--name", default="acceptance")
    common(sp)
    return parser


def _cmd_gap(args) -> dict:
    chain = _chain_from_arg(args.chain)
    space = _read(args.space, space_from_json)
    return rayleigh.estimate_gap(chain, space, args.p, args.method, restarts=args.restarts,
                                 iters=args.iters, seed=args.seed).to_json()


def _cmd_gap_plus(args) -> dict:
    chain = _chain_from_arg(args.chain)
    space = _read(args.space, space_from_json)
    return rayleigh.gamma_plus_bruteforce(chain, space, args.q).to_json()


def _cmd_rayleigh_check(args) -> dict:
    chain = _chain_from_arg(args.chain)
    if args.points:
        pts = _read(args.points, _matrix)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(args.seed))
        pts = rng.standard_normal((chain.n, 2))
    x = Configuration(MetricSpace.lp(2.0, pts.shape[1]), pts)
    other = markov.lazy_power(chain, 1)
    out = rayleigh.rayleigh_calculus_check(x, chain, other, args.lam, args.t, args.p)
    out["provenance"] = "exact"
    return out


def _cmd_mazur_check(args) -> dict:
    space = _read(args.space, space_from_json)
    f = _read(args.function, mazur.WeightedVectorFunction.from_json)
    if args.function_b:
        g = _read(args.function_b, mazur.WeightedVectorFunction.from_json)
        scales = [0.8**k for k in range(20)]
        out = mazur.mazur_holder_check(f, g, space, args.p, args.q, scales)
        out["provenance"] = "fitted"
    else:
        out = mazur.mazur_roundtrip_check(f, space, args.p, args.q)
        out["provenance"] = "exact"
    return out


def _cmd_extrapolate(args) -> dict:
    chain = _chain_from_arg(args.chain)
    space = _read(args.space, space_from_json)
    return mazur.extrapolation_check(chain, space, args.p, args.q)


def _cmd_john(args) -> dict:
    space = _read(args.space, space_from_json)
    out = john.hilbert_distance(space)
    report = {
        "D_X": out["D_X"],
        "Q": out["H"].Q.tolist(),
        "approximate": out["approximate"],
        "provenance": "heuristic" if out["approximate"] else "exact",
    }
    # the MVEE's solver record, where it ran
    report.update((k, out[k]) for k in ("iterations", "stop", "residual") if k in out)
    return report


def _cmd_embed(args) -> dict:
    dist = _read(args.metric, _matrix)
    if args.mu == "uniform":
        mu = np.full(dist.shape[0], 1.0 / dist.shape[0])
    else:
        mu = _read(args.mu, lambda obj: np.array(obj, dtype=float))
    emb = embed.average_embed_hilbert(dist, mu, args.theta)
    out = emb.to_json()
    out["provenance"] = "heuristic"
    return out


def _cmd_verify_duality(args) -> dict:
    # the embed report, or its "report" member
    D = _read(args.embedding, lambda rec: float(rec.get("report", rec)["D_achieved"]))
    chain = _chain_from_arg(args.chain)
    dist = _read(args.metric, _matrix)
    out = embed.duality_forward_check(D, chain, dist, args.theta)
    out["provenance"] = "exact"
    return out


def _cmd_expander(args) -> dict:
    expander.check_spectral_size(args.n)  # before sampling a graph it would reject
    g = expander.random_regular_graph(args.n, args.d, args.seed)
    chain = expander.graph_chain(g)
    spec = markov.spectral_data(chain)
    spread = expander.distance_spread_check(g)
    return {
        "graph": expander.graph_to_json(g),
        "lambda2": spec.lambda2,
        "gamma_classical": spec.gamma_classical,
        "distance_spread": spread,
        "provenance": "exact",
    }


def _cmd_bounds(args) -> dict:
    if args.formula == "dimension":
        value = expander.dimension_lower_bound(args.n, args.d, args.gamma, args.D,
                                               args.c_q)
    elif args.formula == "distortion":
        value = expander.avg_distortion_lower_bound(args.n, args.d, args.gamma,
                                                    args.q)
    else:
        value = expander.coarse_obstruction(args.gamma, args.omega1, args.p)
    return {"formula": args.formula, "value": value, "log_base": "natural",
            "provenance": "fitted"}


def _cmd_calibrate(args) -> dict:
    if args.family_size < 1:
        raise EmptyFamily("the calibration family must be nonempty")
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    ratios = []
    if args.constant == "C_thm4":
        # smallest C with gamma_heuristic(l_inf^d, p=1) <= C log(D_X+1)/(1-l2)
        for _ in range(args.family_size):
            n = int(rng.integers(3, 6))
            d = int(rng.integers(2, 5))
            chain = markov.random_reversible_chain(n, rng)
            est = rayleigh.gamma_heuristic(chain, MetricSpace.lp(float("inf"), d),
                                           1.0, restarts=4, iters=100,
                                           seed=int(rng.integers(2**32)))
            base = rayleigh.theorem4_upper_bound(chain, math.sqrt(d), 1.0)
            ratios.append(est.value / base)
    elif args.constant == "c_q":
        # largest c keeping the dimension bound below the ambient dimension n
        # (an isometric Hilbert embedding always exists there): c <= gamma ln d
        for _ in range(args.family_size):
            n = int(rng.choice([16, 32, 64]))
            g = expander.random_regular_graph(n, 3, int(rng.integers(2**32)))
            chain = expander.graph_chain(g)
            spec = markov.spectral_data(chain)
            ratios.append(spec.gamma_classical * math.log(g.d))
    else:
        # C_pq: extrapolation right-ratio gamma_p / gamma_q over cycle chains
        for k in range(args.family_size):
            n = 3 + (k % 4)
            A = np.zeros((n, n))
            for i in range(n):
                A[i, (i + 1) % n] = 0.5
                A[i, (i - 1) % n] = 0.5
            chain = markov.build_reversible_chain(A)
            rep = mazur.extrapolation_check(
                markov.lazy_power(chain, 1), MetricSpace.lp(2.0, n), 1.0, 2.0)
            ratios.append(rep["right_ratio"])
    fitted = float(np.min(ratios) if args.constant == "c_q" else np.max(ratios))
    return {"constant": args.constant, "fitted": fitted,
            "family_size": args.family_size, "seed": args.seed,
            "ratios": [float(r) for r in ratios], "provenance": "fitted"}


def _cmd_suite(args) -> dict:
    if args.name != "acceptance":
        raise ValidationError(f"unknown suite {args.name!r}")
    report = suite.run_acceptance(args.seed)
    report["provenance"] = "exact"
    return report


_DISPATCH = {
    "gap": _cmd_gap,
    "gap-plus": _cmd_gap_plus,
    "rayleigh-check": _cmd_rayleigh_check,
    "mazur-check": _cmd_mazur_check,
    "extrapolate": _cmd_extrapolate,
    "john": _cmd_john,
    "embed": _cmd_embed,
    "verify-duality": _cmd_verify_duality,
    "expander": _cmd_expander,
    "bounds": _cmd_bounds,
    "calibrate": _cmd_calibrate,
    "suite": _cmd_suite,
}
SUBCOMMANDS = tuple(_DISPATCH)


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-") and argv[0] not in SUBCOMMANDS:
        sys.stderr.write(f"unknown subcommand: {argv[0]}\n")
        return 64
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not args.command:
        parser.print_help(sys.stderr)
        return 2
    try:
        report = _DISPATCH[args.command](args)
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except ValidationError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2
    config = {k: v for k, v in vars(args).items() if k not in ("output",)}
    _emit(report, config, args)
    if args.command == "suite" and not report.get("passed", False):
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
