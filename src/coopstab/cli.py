"""Command-line front-end: ingestion, condensation, spectral analysis,
verdict, steady states, simulation, and oracle cross-checks.

Exit codes are a stable scripting contract for `analyze`:
0 marginally stable, 1 asymptotically stable, 2 unstable; 64 for input
errors, 70 for numeric failures. Machine-readable JSON is the default
output; --pretty prints a human table.
"""
from __future__ import annotations

import argparse
import gc
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .condensation import condense, to_dot
from .errors import (
    CoopStabError,
    NonFiniteResult,
    NotMarginallyStable,
    ParseError,
    SuperCriticalPresent,
    ValidationError,
)
from .oracle import (
    GeneratorSpec,
    dense_verdict,
    expm_limit_check,
    generate,
    generate_compartmental,
    generate_marginally_stable,
    simulate,
)
from .spectral import DEFAULT_OPTIONS, SpectralOptions
from .stability import (
    SteadyStateBasis,
    SuperCriticalBlock,
    Verdict,
    full_analysis,
    nullspace_residual,
    steady_state_basis,
)
from .system import (
    CooperativeSystem,
    load_edge_list_json,
    load_matrix_market,
    state_vector,
    to_edge_list_json,
    to_matrix_market,
)

EXIT_BY_VERDICT = {
    Verdict.MARGINALLY_STABLE: 0,
    Verdict.ASYMPTOTICALLY_STABLE: 1,
    Verdict.UNSTABLE: 2,
}
EXIT_INPUT_ERROR = 64
EXIT_NUMERIC_ERROR = 70


def _load_system(path: str, fmt: str) -> CooperativeSystem:
    text = Path(path).read_text()
    if fmt == "auto":
        fmt = "json" if path.endswith(".json") else "mm"
    return load_edge_list_json(text) if fmt == "json" else load_matrix_market(text)


def _spectral_options(args: argparse.Namespace) -> SpectralOptions:
    return SpectralOptions(
        crit_tol_rel=args.crit_tol_rel,
        eig_tol=args.eig_tol,
        max_iter=args.max_iter,
        dense_cutoff=args.dense_cutoff,
        residual_tol=args.residual_tol,
    )


def _tolerances_dict(opts: SpectralOptions) -> dict:
    return {
        "crit_tol_rel": opts.crit_tol_rel,
        "eig_tol": opts.eig_tol,
        "residual_tol": opts.residual_tol,
        "max_iter": opts.max_iter,
        "dense_cutoff": opts.dense_cutoff,
    }


def _dumps(payload: dict) -> str:
    """Strict JSON: a NaN or infinite number in the payload is a numeric failure."""
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NonFiniteResult("output contains a value that is not finite") from None


def _reason_dict(reason) -> dict | None:
    if reason is None:
        return None
    if isinstance(reason, SuperCriticalBlock):
        return {"kind": "super-critical-block", "block": reason.block_index}
    return {
        "kind": "critical-path",
        "upstream": reason.upstream_block,
        "downstream": reason.downstream_block,
        "path": list(reason.path),
    }


def _report_payload(system, cond, spectra, report, opts) -> dict:
    return {
        "version": __version__,
        "tolerances": _tolerances_dict(opts),
        "n": system.n,
        "h": cond.h,
        "verdict": report.verdict.value,
        "unstable_reason": _reason_dict(report.unstable_reason),
        "algebraic_multiplicity_zero": report.algebraic_multiplicity_zero,
        "geometric_multiplicity_zero": report.geometric_multiplicity_zero,
        "blocks": [
            {
                "index": k,
                "size": cond.blocks[k].size,
                "nodes": list(cond.blocks[k].nodes),
                "labels": [system.node_labels[i] for i in cond.blocks[k].nodes],
                "mu": spectra[k].mu,
                "class": spectra[k].classification.value,
                "criticality_tolerance": spectra[k].tolerance_used,
                "trivial": report.roles[k].is_trivial,
                "free": report.roles[k].is_final_critical,
            }
            for k in range(cond.h)
        ],
    }


def _print_report_pretty(payload: dict, out) -> None:
    print(f"verdict: {payload['verdict']}", file=out)
    tol = payload["tolerances"]
    print(
        f"tolerances: crit_tol_rel={tol['crit_tol_rel']:g} "
        f"eig_tol={tol['eig_tol']:g} residual_tol={tol['residual_tol']:g}",
        file=out,
    )
    print(f"{'k':>3} {'size':>5} {'mu':>14} {'class':<15} {'trivial':<8} {'free':<5}", file=out)
    for b in payload["blocks"]:
        print(
            f"{b['index']:>3} {b['size']:>5} {b['mu']:>14.6g} {b['class']:<15} "
            f"{'yes' if b['trivial'] else 'no':<8} {'yes' if b['free'] else 'no':<5}",
            file=out,
        )
    print(
        f"multiplicity of eigenvalue 0: algebraic={payload['algebraic_multiplicity_zero']} "
        f"geometric={payload['geometric_multiplicity_zero']}",
        file=out,
    )
    reason = payload["unstable_reason"]
    if reason is not None:
        if reason["kind"] == "super-critical-block":
            print(f"unstable: super-critical block B{reason['block']}", file=out)
        else:
            path = " -> ".join(f"B{k}" for k in reason["path"])
            print(f"unstable: critical blocks connected by path {path}", file=out)


def cmd_analyze(args: argparse.Namespace) -> int:
    system = _load_system(args.input, args.format)
    opts = _spectral_options(args)
    cond, spectra, report = full_analysis(system, opts)
    payload = _report_payload(system, cond, spectra, report, opts)
    if args.dot:
        Path(args.dot).write_text(
            to_dot(cond, spectra, report.roles, verdict_name=report.verdict.value)
        )
    if args.pretty:
        _print_report_pretty(payload, sys.stdout)
    else:
        print(_dumps(payload))
    return EXIT_BY_VERDICT[report.verdict]


def _basis_payload(system, basis: SteadyStateBasis, opts, forced: bool) -> dict:
    vectors = []
    for name, k, vec in zip(basis.free_parameters, basis.free_blocks, basis.vectors):
        vectors.append(
            {
                "alpha": name,
                "free_block": k,
                "values": vec.tolist(),
                "residual_inf": nullspace_residual(system, vec),
            }
        )
    payload = {
        "version": __version__,
        "tolerances": _tolerances_dict(opts),
        "n": system.n,
        "labels": list(system.node_labels),
        "vectors": vectors,
    }
    if forced:
        payload["warning"] = (
            "forced nullspace of an unstable system: these are zero-eigenvectors, "
            "not stable equilibria"
        )
    return payload


def cmd_steady_state(args: argparse.Namespace) -> int:
    system = _load_system(args.input, args.format)
    opts = _spectral_options(args)
    cond, spectra, report = full_analysis(system, opts)
    forced = report.verdict is not Verdict.MARGINALLY_STABLE and args.force_nullspace
    try:
        basis = steady_state_basis(
            cond,
            spectra,
            report,
            force=args.force_nullspace,
            residual_tol=opts.residual_tol,
        )
    except (NotMarginallyStable, SuperCriticalPresent) as exc:
        print(f"refusing to build steady state: {exc}", file=sys.stderr)
        return 2
    if forced:
        print("WARNING: system is not marginally stable; vectors are not stable equilibria",
              file=sys.stderr)
    # The payload is F lists of n floats without cycles; a collection that
    # falls while it is alive walks every float (about 5 ms at n*F = 5e5),
    # so it is built, printed and freed with the collector paused.
    collecting = gc.isenabled()
    gc.disable()
    try:
        payload = _basis_payload(system, basis, opts, forced)
        if args.pretty:
            for vec in payload["vectors"]:
                print(f"{vec['alpha']} (free block B{vec['free_block']}, "
                      f"residual {vec['residual_inf']:.3e}):")
                for label, value in zip(payload["labels"], vec["values"]):
                    print(f"  {label}: {value:.12g}")
        else:
            print(_dumps(payload))
        del payload
    finally:
        if collecting:
            gc.enable()
    return 0


def cmd_condense(args: argparse.Namespace) -> int:
    system = _load_system(args.input, args.format)
    opts = _spectral_options(args)
    cond, spectra, report = full_analysis(system, opts)
    dot = to_dot(cond, spectra, report.roles, verdict_name=report.verdict.value)
    if args.dot:
        Path(args.dot).write_text(dot)
    else:
        print(dot, end="")
    return 0


def _numbers(tokens: list[str], source: str) -> list[float]:
    """Parse number tokens; a malformed one is an input error naming it."""
    try:
        return [float(token) for token in tokens]
    except ValueError as exc:
        raise ValidationError(f"{source}: {exc}") from None


def cmd_simulate(args: argparse.Namespace) -> int:
    system = _load_system(args.input, args.format)
    times = _numbers([t for t in args.times.split(",") if t.strip()], "--times")
    if args.initial:
        values = _numbers(Path(args.initial).read_text().split(), f"--initial {args.initial}")
        m0 = state_vector(values, system.n, nonnegative=True)
    else:
        m0 = np.ones(system.n)
    traj = simulate(system, m0, times)
    header = "t " + " ".join(f"m_{label}" for label in system.node_labels)
    print(header)
    for t, row in zip(times, traj):
        print(f"{t:.6g} " + " ".join(f"{v:.12g}" for v in row))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.oracle_cmd == "dense-verdict":
        system = _load_system(args.input, args.format)
        dv = dense_verdict(system)
        print(_dumps({
            "dominant_real": dv.dominant_real,
            "algebraic_multiplicity_zero": dv.algebraic_multiplicity_zero,
            "geometric_multiplicity_zero": dv.geometric_multiplicity_zero,
            "verdict": dv.verdict.value,
        }))
        return 0
    if args.oracle_cmd == "limit-check":
        system = _load_system(args.input, args.format)
        cond = condense(system)
        if not 0 <= args.block < cond.h:
            raise ValidationError(f"--block {args.block} outside [0,{cond.h})")
        result = expm_limit_check(cond.blocks[args.block])
        print(_dumps({
            "block": args.block,
            "residual": result.residual,
            "certified_to_t": result.t_big,
            "gap": result.gap if np.isfinite(result.gap) else None,
        }))
        return 0
    # generate
    if args.config:
        raw = json.loads(Path(args.config).read_text())
        for key in ("num_blocks", "block_size", "weight_range"):
            if key in raw:
                raw[key] = tuple(raw[key])
        if "classes" in raw:
            raw["classes"] = tuple(raw["classes"])
        if "planted" in raw and raw["planted"] is not None:
            raw["planted"] = tuple((int(s), c) for s, c in raw["planted"])
        spec = GeneratorSpec(**raw)
    else:
        spec = GeneratorSpec(
            topology=args.topology,
            num_blocks=_int_pair(args.num_blocks),
            block_size=_int_pair(args.block_size),
            classes=tuple(args.classes.split(",")),
            edge_density=args.density,
            seed=args.seed if args.seed is not None else 0,
        )
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.compartmental:
        system = generate_compartmental(
            num_blocks=spec.num_blocks,
            block_size=spec.block_size,
            edge_density=spec.edge_density,
            weight_range=spec.weight_range,
            seed=spec.seed,
        )
    elif args.marginal:
        system = generate_marginally_stable(spec)
    else:
        system = generate(spec)
    if args.out_format == "json":
        print(to_edge_list_json(system))
    else:
        print(to_matrix_market(system), end="")
    return 0


def _int_pair(text: str) -> tuple[int, int]:
    parts = [int(p) for p in text.split(",")]
    if len(parts) == 1:
        return parts[0], parts[0]
    return parts[0], parts[1]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="path to the system file")
    parser.add_argument("--format", choices=("auto", "mm", "json"), default="auto",
                        help="input format: Matrix Market or edge-list JSON (default: by extension)")
    parser.add_argument("--crit-tol-rel", type=float, default=DEFAULT_OPTIONS.crit_tol_rel,
                        dest="crit_tol_rel",
                        help="relative criticality tolerance on block dominant eigenvalues")
    parser.add_argument("--eig-tol", type=float, default=DEFAULT_OPTIONS.eig_tol, dest="eig_tol",
                        help="relative eigenpair residual target")
    parser.add_argument("--residual-tol", type=float, default=DEFAULT_OPTIONS.residual_tol,
                        dest="residual_tol", help="steady-state residual scale")
    parser.add_argument("--max-iter", type=int, default=DEFAULT_OPTIONS.max_iter,
                        dest="max_iter")
    parser.add_argument("--dense-cutoff", type=int, default=DEFAULT_OPTIONS.dense_cutoff,
                        dest="dense_cutoff")
    parser.add_argument("--pretty", action="store_true", help="human-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopstab",
        description="Stability class and steady states of linear cooperative systems",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline: verdict and per-block report")
    _add_common(p)
    p.add_argument("--dot", help="also write the annotated condensation as DOT to this path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("steady-state", help="non-negative nullspace basis")
    _add_common(p)
    p.add_argument("--force-nullspace", action="store_true", dest="force_nullspace",
                   help="emit zero-eigenvectors even when the system is unstable")
    p.set_defaults(func=cmd_steady_state)

    p = sub.add_parser("condense", help="condensation as DOT")
    _add_common(p)
    p.add_argument("--dot", help="write DOT here instead of stdout")
    p.set_defaults(func=cmd_condense)

    p = sub.add_parser("simulate", help="dense trajectory e^(At) m0")
    _add_common(p)
    p.add_argument("--times", required=True, help="comma-separated increasing times")
    p.add_argument("--initial", help="file with one initial value per node (default: all ones)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="dense cross-checks and system generation")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)

    o = osub.add_parser("dense-verdict", help="verdict from the full spectrum")
    _add_common(o)
    o.set_defaults(func=cmd_oracle)

    o = osub.add_parser("limit-check", help="left-vector fixed-point residual of e^(tB)")
    _add_common(o)
    o.add_argument("--block", type=int, default=0)
    o.set_defaults(func=cmd_oracle)

    o = osub.add_parser("generate", help="emit a random planted system")
    o.add_argument("--config", help="JSON file with generator spec fields")
    o.add_argument("--topology", default="random-dag")
    o.add_argument("--num-blocks", default="1,4", dest="num_blocks")
    o.add_argument("--block-size", default="1,3", dest="block_size")
    o.add_argument("--classes", default="sub-critical,critical")
    o.add_argument("--density", type=float, default=0.5)
    o.add_argument("--seed", type=int, default=None)
    o.add_argument("--marginal", action="store_true",
                   help="constrain planted criticals to an antichain")
    o.add_argument("--compartmental", action="store_true",
                   help="non-positive column sums with exactly one trap")
    o.add_argument("--out-format", choices=("mm", "json"), default="mm", dest="out_format")
    o.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except CoopStabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    except (ArithmeticError, ValueError) as exc:  # numpy's LinAlgError is a ValueError
        print(f"error: numeric failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
