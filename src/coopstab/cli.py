"""Command-line front-end: ingestion, condensation, spectral analysis,
verdict, steady states, simulation, and oracle cross-checks.

Exit codes are a stable scripting contract for `analyze`:
0 marginally stable, 1 asymptotically stable, 2 unstable; 64 for input
errors, 70 for numeric failures. Machine-readable JSON is the default
output; --pretty prints a human table.
"""
from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  argparse's gettext imports it on the first parser; pay that at import
import sys
from json.encoder import encode_basestring_ascii
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
from .spectral import DEFAULT_OPTIONS, BlockClass, SpectralOptions
from .stability import (
    SteadyStateBasis,
    SuperCriticalBlock,
    Verdict,
    full_analysis,
    nullspace_residual,
    nullspace_residuals,
    steady_state_basis,
)
from .system import (
    CooperativeSystem,
    DefaultLabels,
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


def _read_text(path: str, source: str | None = None) -> str:
    """The file as UTF-8 text with universal newlines; a byte that is not
    UTF-8 is a parse error on its line, whatever the locale, and names
    `source` when the file is not the system's input."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = raw[:exc.start]  # a line ends at \r\n, \r or \n, as in the text
        line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        error = ParseError(line, f"byte 0x{raw[exc.start]:02x} is not UTF-8")
        raise (error if source is None else ValidationError(f"{source}: {error}")) from None
    if "\r" in text:  # a scan for it is 100 times cheaper than the replaces
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load_system(path: str, fmt: str) -> CooperativeSystem:
    text = _read_text(path)
    if fmt == "auto":
        fmt = "json" if path.endswith(".json") else "mm"
    return load_edge_list_json(text) if fmt == "json" else load_matrix_market(text)


def _spectral_options(args: argparse.Namespace) -> SpectralOptions:
    """The options from the tolerance flags, each named after its field."""
    return SpectralOptions(**{name: getattr(args, name) for name in vars(DEFAULT_OPTIONS)})


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


# Blocks per write of the streamed `analyze` report: only one chunk's text exists at a time.
_REPORT_CHUNK = 1024
# Labels, and a column's stored values, per write of the streamed `steady-state` JSON.
_BASIS_CHUNK = 1024
# A block's JSON text, after the ", " before it: key texts, with None where a field's text goes.
_BLOCK = [", ", None, None, None, None, ', "labels": ["', None, '"], "mu": ', None, ', "nodes": [', None,
          '], "size": ', None, None]
_CLASS = {cls: f'{{"class": "{cls.value}", "criticality_tolerance": ' for cls in BlockClass}
_FREE = tuple(f', "free": {flag}, "index": ' for flag in ("false", "true"))
_TRIVIAL = tuple(f', "trivial": {flag}}}' for flag in ("false", "true"))


def _write_report(system, cond, spectra, report, opts, out) -> None:
    """Write `_dumps` of the report payload and a newline to `out`, from the
    block columns, without building the payload: the blocks go out in chunks
    of `_REPORT_CHUNK`, each assembled field by field. A value that is not
    finite is a numeric failure before anything is written."""
    if not (np.isfinite(spectra.mu).all() and np.isfinite(spectra.tolerance).all()):
        raise NonFiniteResult("output contains a value that is not finite")
    # JSON escapes every quote inside a string: only the key reads '"blocks": null'.
    head, tail = _dumps({
        "algebraic_multiplicity_zero": report.algebraic_multiplicity_zero,
        "blocks": None,
        "geometric_multiplicity_zero": report.geometric_multiplicity_zero,
        "h": cond.h,
        "n": system.n,
        "tolerances": vars(opts),
        "unstable_reason": _reason_dict(report.unstable_reason),
        "verdict": report.verdict.value,
        "version": __version__,
    }).split('"blocks": null')
    out.write(f'{head}"blocks": [')
    step = len(_BLOCK)
    labels = system.node_labels
    default = isinstance(labels, DefaultLabels)  # a label's escaped text is then its node's text
    class_text = np.empty(cond.h, dtype=object)
    for cls, text in _CLASS.items():
        class_text[spectra.classification == cls] = text
    for lo in range(0, cond.h, _REPORT_CHUNK):
        chunk = slice(lo, lo + _REPORT_CHUNK)
        bounds = cond.bounds[lo:lo + _REPORT_CHUNK + 1]
        nodes = cond.permutation[bounds[0]:bounds[-1]].tolist()
        node_text = list(map(int.__repr__, nodes))
        label_text = node_text if default else [encode_basestring_ascii(labels[i])[1:-1] for i in nodes]
        sizes = np.diff(bounds).tolist()
        if len(nodes) > len(sizes):  # a multi-node block: join each block's items into one text
            ends = (bounds - bounds[0]).tolist()
            node_text, label_text = ([sep.join(text[a:b]) for a, b in zip(ends, ends[1:])]
                                     for text, sep in ((node_text, ", "), (label_text, '", "')))
        pieces = _BLOCK * len(sizes)
        pieces[0] = ", " if lo else ""
        pieces[1::step] = class_text[chunk].tolist()
        pieces[2::step] = map(float.__repr__, spectra.tolerance[chunk].tolist())
        pieces[3::step] = map(_FREE.__getitem__, report.free[chunk].tolist())
        pieces[4::step] = map(int.__repr__, range(lo, lo + len(sizes)))
        pieces[6::step] = label_text
        pieces[8::step] = map(float.__repr__, spectra.mu[chunk].tolist())
        pieces[10::step] = node_text
        pieces[12::step] = map(int.__repr__, sizes)
        pieces[13::step] = map(_TRIVIAL.__getitem__, report.trivial[chunk].tolist())
        out.write("".join(pieces))
    out.write(f"]{tail}\n")


def _print_report_pretty(cond, spectra, report, opts, out) -> None:
    print(f"verdict: {report.verdict.value}", file=out)
    print(
        f"tolerances: crit_tol_rel={opts.crit_tol_rel:g} "
        f"eig_tol={opts.eig_tol:g} residual_tol={opts.residual_tol:g}",
        file=out,
    )
    print(f"{'k':>3} {'size':>5} {'mu':>14} {'class':<15} {'trivial':<8} {'free':<5}", file=out)
    sizes = np.diff(cond.bounds).tolist()
    for k, mu in enumerate(spectra.mu.tolist()):
        print(
            f"{k:>3} {sizes[k]:>5} {mu:>14.6g} {spectra.classification[k].value:<15} "
            f"{'yes' if report.trivial[k] else 'no':<8} {'yes' if report.free[k] else 'no':<5}",
            file=out,
        )
    print(
        f"multiplicity of eigenvalue 0: algebraic={report.algebraic_multiplicity_zero} "
        f"geometric={report.geometric_multiplicity_zero}",
        file=out,
    )
    reason = report.unstable_reason
    if isinstance(reason, SuperCriticalBlock):
        print(f"unstable: super-critical block B{reason.block_index}", file=out)
    elif reason is not None:
        path = " -> ".join(f"B{k}" for k in reason.path)
        print(f"unstable: critical blocks connected by path {path}", file=out)


def cmd_analyze(args: argparse.Namespace) -> int:
    system = _load_system(args.input, args.format)
    opts = _spectral_options(args)
    cond, spectra, report = full_analysis(system, opts)
    if args.dot:
        Path(args.dot).write_text(
            to_dot(cond, spectra, report.trivial, verdict_name=report.verdict.value),
            encoding="utf-8",
        )
    if args.pretty:
        _print_report_pretty(cond, spectra, report, opts, sys.stdout)
    else:
        _write_report(system, cond, spectra, report, opts, sys.stdout)
    return EXIT_BY_VERDICT[report.verdict]


def _write_column(n: int, nodes: np.ndarray, values: np.ndarray, gap: np.ndarray, out) -> None:
    """Write one CSC column's JSON list items as an n-vector from its stored `nodes` (ascending),
    `values` and `gap`, the zeros before each: only stored values are formatted, `_BASIS_CHUNK`
    at a time, each after a repeated "0.0, " for its zeros."""
    if not len(nodes):
        out.write("0.0" + ", 0.0" * (n - 1))
        return
    for lo in range(0, len(nodes), _BASIS_CHUNK):
        text = list(map(float.__repr__, values[lo:lo + _BASIS_CHUNK].tolist()))
        for e in np.flatnonzero(gap[lo:lo + _BASIS_CHUNK]).tolist():
            text[e] = "0.0, " * int(gap[lo + e]) + text[e]
        if lo:
            text[0] = ", " + text[0]
        out.write(", ".join(text))
    out.write(", 0.0" * (n - 1 - int(nodes[-1])))


def _write_basis(system, basis: SteadyStateBasis, opts, forced: bool, out) -> None:
    """Write `_dumps` of the steady-state payload and a newline to `out` from the labels and the
    CSC columns, without building the payload: labels and stored values go out in chunks of
    `_BASIS_CHUNK`. A residual or value not finite fails before the first byte."""
    residuals = nullspace_residuals(system, basis.csc)
    if not (np.isfinite(residuals).all() and np.isfinite(basis.csc[2]).all()):
        raise NonFiniteResult("output contains a value that is not finite")
    head = _dumps({"n": system.n, "tolerances": vars(opts)})
    tail = {"version": __version__}
    if forced:
        tail["warning"] = (
            "forced nullspace of an unstable system: these are zero-eigenvectors, "
            "not stable equilibria"
        )
    # "labels" sorts before "n", and "vectors" between "tolerances" and "version".
    out.write('{"labels": [')
    default = isinstance(system.node_labels, DefaultLabels)  # whose escaped texts are their digits
    for lo in range(0, system.n, _BASIS_CHUNK):
        labels = system.node_labels[lo:lo + _BASIS_CHUNK]
        text = '", "'.join(labels if default else [encode_basestring_ascii(s)[1:-1] for s in labels])
        out.write(f'{", " if lo else ""}"{text}"')
    out.write(f'], {head[1:-1]}, "vectors": [')
    indptr, nodes, values = basis.csc
    gap = np.diff(nodes, prepend=-1) - 1
    top = indptr[:-1][np.diff(indptr) > 0]  # each column's first entry
    gap[top] = nodes[top]
    for c, (name, k, residual, a, b) in enumerate(zip(
            basis.free_parameters, basis.free_blocks, residuals.tolist(), indptr.tolist(), indptr[1:].tolist())):
        out.write(
            f'{", " if c else ""}{{"alpha": {encode_basestring_ascii(name)}, "free_block": {k:d}, '
            f'"residual_inf": {float.__repr__(residual)}, "values": ['
        )
        _write_column(system.n, nodes[a:b], values[a:b], gap[a:b], out)
        out.write("]}")
    out.write(f"], {_dumps(tail)[1:]}\n")


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
    if args.pretty:
        for name, k, vec in zip(basis.free_parameters, basis.free_blocks, basis.vectors):
            print(f"{name} (free block B{k}, "
                  f"residual {nullspace_residual(system, vec):.3e}):")
            for label, value in zip(system.node_labels, vec.tolist()):
                print(f"  {label}: {value:.12g}")
    else:
        _write_basis(system, basis, opts, forced, sys.stdout)
    return 0


def cmd_condense(args: argparse.Namespace) -> int:
    system = _load_system(args.input, args.format)
    opts = _spectral_options(args)
    cond, spectra, report = full_analysis(system, opts)
    dot = to_dot(cond, spectra, report.trivial, verdict_name=report.verdict.value)
    if args.dot:
        Path(args.dot).write_text(dot, encoding="utf-8")
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
    from .oracle import simulate  # the dense routes load on use: analyze and steady-state never run them

    system = _load_system(args.input, args.format)
    times = _numbers([t for t in args.times.split(",") if t.strip()], "--times")
    if args.initial:
        source = f"--initial {args.initial}"
        values = _numbers(_read_text(args.initial, source).split(), source)
        m0 = state_vector(values, system.n)
    else:
        m0 = np.ones(system.n)
    traj = simulate(system, m0, times)
    header = "t " + " ".join(f"m_{label}" for label in system.node_labels)
    print(header)
    for t, row in zip(times, traj):
        print(f"{t:.6g} " + " ".join(f"{v:.12g}" for v in row))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from . import oracle

    if args.oracle_cmd == "dense-verdict":
        system = _load_system(args.input, args.format)
        dv = oracle.dense_verdict(system)
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
        opts = _spectral_options(args)
        result = oracle.expm_limit_check(cond.matrix(args.block), block=args.block, opts=opts)
        print(_dumps({
            "block": args.block,
            "residual": result.residual,
            "certified_to_t": result.t_big,
            "gap": result.gap if np.isfinite(result.gap) else None,
        }))
        return 0
    # generate
    if args.config:
        source = f"--config {args.config}"
        try:
            raw = json.loads(_read_text(args.config, source))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{source}: {exc}") from None
        spec = oracle._spec_from_config(raw, source)
    else:
        spec = oracle.GeneratorSpec(
            topology=args.topology,
            num_blocks=oracle._int_pair(args.num_blocks, "--num-blocks"),
            block_size=oracle._int_pair(args.block_size, "--block-size"),
            classes=tuple(args.classes.split(",")),
            edge_density=args.density,
        )
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.compartmental:
        system = oracle.generate_compartmental(spec)
    elif args.marginal:
        system = oracle.generate_marginally_stable(spec)
    else:
        system = oracle.generate(spec)
    if args.out_format == "json":
        print(to_edge_list_json(system))
    else:
        print(to_matrix_market(system), end="")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 64, as input errors do: argparse's 2 reads as "unstable"."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # Flag groups, each given only to the commands that read it.
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("input", help="path to the system file")
    inputs.add_argument("--format", choices=("auto", "mm", "json"), default="auto",
                        help="input format: Matrix Market or edge-list JSON (default: by extension)")
    tolerances = argparse.ArgumentParser(add_help=False)
    tolerances.add_argument("--crit-tol-rel", type=float, default=DEFAULT_OPTIONS.crit_tol_rel,
                            dest="crit_tol_rel",
                            help="relative criticality tolerance on block dominant eigenvalues")
    tolerances.add_argument("--eig-tol", type=float, default=DEFAULT_OPTIONS.eig_tol,
                            dest="eig_tol", help="relative eigenpair residual target")
    tolerances.add_argument("--residual-tol", type=float, default=DEFAULT_OPTIONS.residual_tol,
                            dest="residual_tol", help="steady-state residual scale")
    tolerances.add_argument("--max-iter", type=int, default=DEFAULT_OPTIONS.max_iter,
                            dest="max_iter")
    tolerances.add_argument("--dense-cutoff", type=int, default=DEFAULT_OPTIONS.dense_cutoff,
                            dest="dense_cutoff")
    pretty = argparse.ArgumentParser(add_help=False)
    pretty.add_argument("--pretty", action="store_true", help="human-readable output")
    analysis = [inputs, tolerances]

    parser = _Parser(
        prog="coopstab",
        description="Stability class and steady states of linear cooperative systems",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[*analysis, pretty],
                       help="full pipeline: verdict and per-block report")
    p.add_argument("--dot", help="also write the annotated condensation as DOT to this path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("steady-state", parents=[*analysis, pretty],
                       help="non-negative nullspace basis")
    p.add_argument("--force-nullspace", action="store_true", dest="force_nullspace",
                   help="emit zero-eigenvectors even when the system is unstable")
    p.set_defaults(func=cmd_steady_state)

    p = sub.add_parser("condense", parents=analysis, help="condensation as DOT")
    p.add_argument("--dot", help="write DOT here instead of stdout")
    p.set_defaults(func=cmd_condense)

    p = sub.add_parser("simulate", parents=[inputs], help="dense trajectory e^(At) m0")
    p.add_argument("--times", required=True, help="comma-separated increasing times")
    p.add_argument("--initial", help="file with one initial value per node (default: all ones)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="dense cross-checks and system generation")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)

    o = osub.add_parser("dense-verdict", parents=[inputs], help="verdict from the full spectrum")
    o.set_defaults(func=cmd_oracle)

    o = osub.add_parser("limit-check", parents=analysis,
                        help="left-vector fixed-point residual of e^(tB)")
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
    except (CoopStabError, ImportError) as exc:  # ImportError: SciPy's LAPACK, loaded by the first solve
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    except (ArithmeticError, ValueError) as exc:  # numpy's LinAlgError is a ValueError
        print(f"error: numeric failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
