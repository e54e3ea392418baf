"""Command-line pipeline: certify, solve, exact, compare, gen.

Exit codes: 0 ok, 2 invalid input, 3 certification failure, 4 internal
invariant violation.  Reports are canonical JSON (sorted keys, %.12g
floats); element lists in serialized output are 1-based.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import baselines as _baselines
from . import instances as _instances
from .errors import (
    CertificationError,
    DivmaxError,
    InternalInvariantError,
    InvalidInputError,
)
from .geometry import NUM_TOL, certify_negative_type, cite_or_certify
from .io import SCHEMA_VERSION, canonical_dumps, doc_from_json, doc_to_json, materialize, parse_scores
from .relaxation import GAP_TOL_DEFAULT, _check_gap_tol, sweep_slices
from .rounding import guarantee_factor, round as round_to_basis

def _load_doc(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read instance file {path}: {exc}")
    return doc_from_json(text)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _one_based(elements) -> list:
    return sorted(int(e) + 1 for e in elements)


def _parse_scores_flag(raw: str, n: int):
    """--scores accepts "none", an inline JSON array, or a path to one."""
    if raw == "none":
        return None
    if raw.lstrip().startswith("["):
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"--scores is not valid JSON: {exc}")
    else:
        try:
            with open(raw, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidInputError(f"cannot load scores from {raw}: {exc}")
    return parse_scores(data, n)


def _certificate_dict(cert, forced: bool = False) -> dict:
    out = {
        "verdict": cert.verdict,
        "is_negative_type": bool(cert.is_negative_type),
        "min_eigenvalue": None if cert.min_eigenvalue is None else float(cert.min_eigenvalue),
        "method": cert.method,
    }
    if cert.witness is not None:
        out["witness"] = [float(v) for v in cert.witness]
        out["witness_value"] = float(cert.witness_value)
    if forced:
        out["forced"] = True
    return out


def cmd_certify(args) -> int:
    doc = _load_doc(args.instance)
    dm, _, _ = materialize(doc)
    cert = certify_negative_type(dm)
    report = {"schema_version": SCHEMA_VERSION, "n": dm.n}
    report.update(_certificate_dict(cert))
    _emit(canonical_dumps(report), args.out)
    return 0 if cert.is_negative_type else 3


def _bound_checks(dm, w, k: int, x_star, value_x_star: float, basis_value: float) -> dict:
    """Recomputed from raw data at serialization time, not taken from the trace."""
    quad = float(x_star @ dm.d @ x_star)
    factor = guarantee_factor(k) if k >= 1 else 0.0
    if w is None:
        target = factor * value_x_star
    else:
        target = value_x_star - (1.0 - factor) * quad
    return {
        "k": int(k),
        "guarantee_factor": float(factor),
        "quadratic_value_x_star": quad,
        "guarantee_target": float(target),
        "guarantee_satisfied": bool(
            basis_value >= target - NUM_TOL * max(abs(target), abs(basis_value))
        ),
        # A factor <= 0 (k <= 8) makes the target at most 0: nothing is guaranteed.
        "guarantee_vacuous": bool(factor <= 0.0),
    }


def _step_dicts(trace) -> list:
    steps = []
    for rec in trace.iterations:
        steps.append(
            {
                "pair": [int(rec.pair[0]) + 1, int(rec.pair[1]) + 1],
                "sign": int(rec.sign),
                "eps": float(rec.eps),
                "event": rec.event,
                "loss": float(rec.loss),
                "value_before": float(rec.value_before),
                "value_after": float(rec.value_after),
                "fractional_before": int(rec.fractional_before),
                "fractional_rings_before": int(rec.fractional_rings_before),
            }
        )
    return steps


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def _solve_report(args) -> dict:
    """Certify, relax, round and run both baselines on one document.

    The report of `divmax solve`, which `divmax compare` also tabulates.
    `baselines.exact` is None and `exact_s` 0 when n exceeds the
    brute-force limit.
    """
    _check_gap_tol(args.gap)
    doc = _load_doc(args.instance)
    if args.scores is not None:
        doc.scores = _parse_scores_flag(args.scores, doc.n)
    total0 = time.perf_counter()
    (dm, matroid, w), t_materialize = _timed(materialize, doc)

    # A catalogue distance is cited; any other is certified here once, and
    # the solver's own checks below reuse the verdict.
    cert, t_cert = _timed(cite_or_certify, dm)
    relax, t_relax = _timed(sweep_slices, dm, matroid, w=w, gap_tol=args.gap, force=args.force)
    best, k = relax.best, matroid.full_rank
    x_star = best.point.x
    rounded, t_round = _timed(round_to_basis, dm, matroid, x_star, w=w, force=args.force)
    local, t_local = _timed(_baselines.local_search_half, dm, matroid, w=w)
    exact, t_exact = None, 0.0
    if dm.n <= _baselines.BRUTE_FORCE_MAX_N:
        exact, t_exact = _timed(_baselines.brute_force_opt, dm, matroid, w=w)
    value_x_star = float(best.value)
    report = {
        "schema_version": SCHEMA_VERSION,
        "instance": {
            "n": dm.n,
            "distance_kind": doc.distance.get("kind"),
            "matroid_kind": doc.matroid.get("kind"),
            "has_scores": w is not None,
        },
        "certificate": _certificate_dict(cert, forced=args.force and not cert.is_negative_type),
        "best_slice": {
            "alpha": int(best.alpha),
            "value": value_x_star,
            "gap": float(best.gap),
            "upper_bound": float(best.upper_bound),
        },
        "opt_upper_bound": float(relax.opt_upper_bound),
        "x_star": [float(v) for v in x_star],
        "rounding": {
            "iterations": len(rounded.trace.iterations),
            "total_loss": float(rounded.trace.total_loss),
            "basis": _one_based(rounded.basis),
            "value": float(rounded.value),
        },
        "baselines": {
            "local_search": {
                "elements": _one_based(local.elements),
                "value": float(local.value),
                "swaps": int(local.swaps),
            },
            "exact": None
            if exact is None
            else {"elements": _one_based(exact.elements), "value": float(exact.value)},
        },
        "bound_checks": _bound_checks(dm, w, k, x_star, value_x_star, float(rounded.value)),
        "timings": {
            "materialize_s": t_materialize,
            "certify_s": t_cert,
            "relax_s": t_relax,
            "round_s": t_round,
            "local_search_s": t_local,
            "exact_s": t_exact,
            "baselines_s": t_local + t_exact,
            "total_s": time.perf_counter() - total0,
        },
    }
    if args.trace:
        report["rounding"]["steps"] = _step_dicts(rounded.trace)
        report["rounding"]["reverse_bounds"] = [float(v) for v in rounded.trace.reverse_bounds]
    return report


def cmd_solve(args) -> int:
    _emit(canonical_dumps(_solve_report(args)), args.out)
    return 0


def cmd_exact(args) -> int:
    doc = _load_doc(args.instance)
    dm, matroid, w = materialize(doc)
    result = _baselines.brute_force_opt(dm, matroid, w=w)
    report = {
        "schema_version": SCHEMA_VERSION,
        "n": dm.n,
        "elements": _one_based(result.elements),
        "value": float(result.value),
    }
    _emit(canonical_dumps(report), args.out)
    return 0


def _ratio(num: float, den: float) -> str:
    if abs(den) < 1e-300:
        return "n/a"
    return f"{num / den:.6f}"


def cmd_compare(args) -> int:
    report = _solve_report(args)
    ub = report["opt_upper_bound"]
    fractional = report["best_slice"]["value"]
    rounded = report["rounding"]["value"]
    local = report["baselines"]["local_search"]["value"]
    exact = report["baselines"]["exact"]
    checks = report["bound_checks"]
    rows = [
        ("relaxation bound", ub),
        ("fractional value", fractional),
        ("rounded basis", rounded),
        ("local search", local),
    ]
    ratios = [("rounded / bound", rounded, ub), ("rounded / fractional", rounded, fractional)]
    if exact is not None:
        rows.append(("exact optimum", exact["value"]))
        ratios += [("rounded / exact", rounded, exact["value"]), ("local   / exact", local, exact["value"])]

    scored = "yes" if report["instance"]["has_scores"] else "no"
    lines = [f"n={report['instance']['n']}  k={checks['k']}  scores={scored}", ""]
    width = max(len(name) for name, _ in rows)
    lines += [f"  {name:<{width}}  {val:.6g}" for name, val in rows]
    lines.append("")
    lines += [f"  {name:<20}  {_ratio(num, den)}" for name, num, den in ratios]
    lines.append("")
    if checks["guarantee_vacuous"]:
        verdict = "vacuous"
    else:
        verdict = f"satisfied: {'yes' if checks['guarantee_satisfied'] else 'NO'}"
    lines.append(f"  guarantee factor {checks['guarantee_factor']:.6f}  {verdict}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _parse_edges(raw: str, n: int) -> list:
    """Edge list "u-v,u-v" with 1-based vertex labels."""
    edges = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split("-")
        if len(parts) != 2:
            raise InvalidInputError(f"bad edge token {token!r}, expected 'u-v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InvalidInputError(f"bad edge token {token!r}, vertices must be integers")
        if not (1 <= u <= n and 1 <= v <= n):
            raise InvalidInputError(f"edge {token!r} out of range 1..{n}")
        edges.append((u - 1, v - 1))
    return edges


def cmd_gen(args) -> int:
    if args.generator == "random-points":
        doc = _instances.gen_random_points(
            args.n,
            args.dim,
            args.kind,
            args.seed,
            point_dist=args.point_dist,
            p=args.p,
            matroid=args.matroid,
            k=args.k,
            set_size=args.set_size,
            with_scores=args.with_scores,
        )
    elif args.generator == "integrality-gap":
        if args.k is None:
            raise InvalidInputError("integrality-gap requires --k")
        doc = _instances.gen_integrality_gap(args.n, args.k)
    elif args.generator == "dks":
        if args.k is None:
            raise InvalidInputError("dks requires --k")
        if args.edges is not None:
            edges = _parse_edges(args.edges, args.n)
        else:
            edges = _instances.gen_random_graph(args.n, args.edge_prob, args.seed)
        doc = _instances.gen_dks_reduction(args.n, edges, args.k)
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidInputError(f"unknown generator {args.generator!r}")
    _emit(doc_to_json(doc), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `divmax` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="divmax",
        description="Max-sum diversification under matroid constraints on negative-type distances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="check a distance matrix for negative type")
    p_cert.add_argument("instance", help="instance JSON path")
    p_cert.add_argument("--out", default=None, help="write certificate JSON here instead of stdout")
    p_cert.set_defaults(func=cmd_certify)

    p_solve = sub.add_parser(
        "solve", help="relax on the base polytope, round to a basis, report"
    )
    p_solve.add_argument("instance", help="instance JSON path")
    p_solve.add_argument("--gap", type=float, default=GAP_TOL_DEFAULT,
                         help="relative Frank-Wolfe duality-gap stopping tolerance, finite and >= 0")
    p_solve.add_argument("--scores", default=None,
                         help="override linear scores: inline JSON array, a path to one, or 'none'")
    p_solve.add_argument("--trace", action="store_true",
                         help="include per-step rounding records in the report")
    p_solve.add_argument("--force", action="store_true",
                         help="solve even if certification fails (voids the guarantee)")
    p_solve.add_argument("--out", default=None, help="write report JSON here instead of stdout")
    p_solve.set_defaults(func=cmd_solve)

    p_exact = sub.add_parser("exact", help="brute-force optimum (n <= 20)")
    p_exact.add_argument("instance", help="instance JSON path")
    p_exact.add_argument("--out", default=None)
    p_exact.set_defaults(func=cmd_exact)

    p_cmp = sub.add_parser("compare", help="relaxation bound vs rounded vs baselines")
    p_cmp.add_argument("instance", help="instance JSON path")
    p_cmp.add_argument("--gap", type=float, default=GAP_TOL_DEFAULT)
    p_cmp.add_argument("--force", action="store_true")
    p_cmp.add_argument("--out", default=None, help="write the table here instead of stdout")
    p_cmp.set_defaults(func=cmd_compare, scores=None, trace=False)

    p_gen = sub.add_parser("gen", help="generate an instance document")
    p_gen.add_argument("generator", choices=["random-points", "integrality-gap", "dks"])
    p_gen.add_argument("--n", type=int, required=True, help="number of elements / vertices")
    p_gen.add_argument("--k", type=int, default=None, help="rank / cardinality parameter")
    p_gen.add_argument("--dim", type=int, default=2, help="point dimension or universe size")
    p_gen.add_argument("--kind", default="l2", help="distance kind for random-points")
    p_gen.add_argument("--p", type=float, default=None, help="exponent for --kind lp")
    p_gen.add_argument("--matroid", default="uniform", choices=["uniform", "partition"])
    p_gen.add_argument("--point-dist", default="gaussian", choices=["gaussian", "uniform"])
    p_gen.add_argument("--set-size", type=int, default=None, help="fixed subset size for set kinds")
    p_gen.add_argument("--with-scores", action="store_true", help="attach random scores in [0,1)")
    p_gen.add_argument("--seed", type=int, default=0, help="RNG seed recorded in the document")
    p_gen.add_argument("--edge-prob", type=float, default=0.5, help="dks random graph density")
    p_gen.add_argument("--edges", default=None, help="dks explicit edges 'u-v,u-v' (1-based)")
    p_gen.add_argument("--out", default=None, help="write instance JSON here instead of stdout")
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CertificationError as exc:
        print(
            f"error: {exc}; rerun with --force to solve anyway "
            "(this voids the approximation guarantee)",
            file=sys.stderr,
        )
        return 3
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (InvalidInputError, DivmaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
