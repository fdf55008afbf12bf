"""Command-line front end.

Subcommands: analyze (certify + audit a chain), synth (build a chain from a
spectrum), evolve (fidelity trace as CSV), scan (canonical saturation table
as CSV), search (falsification run as JSON).  Exit codes: 0 success or
admissible, 2 analyzed-but-not-admissible, 1 parse/I-O/usage error.  Data
goes to files (or stdout for analyze/synth/evolve without --output); progress
for scan/search goes to stderr.  Reports are byte-identical for identical
flags and seed.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import bounds, pst, synthesis
from .chain import ChainSpec
from .eigensolve import eigenvalues_only
from .errors import PstLabError

__all__ = ["main", "entrypoint"]

MAX_STEPS = 10**6  # evolve grid points; each costs about 160 B of arrays and CSV
CAP_HELP = ("largest odd m tried for the gap unit u = g_min/m (other multipliers "
            f"are not capped); default {pst.MAX_MULTIPLIER}")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the interface contract reserves exit code 2 for "analyzed but not
    # admissible"; argparse's default usage-error exit would collide with it.
    def error(self, message):
        raise _UsageError(message)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise PstLabError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PstLabError(f"{path} is not valid JSON: {exc}") from exc


def _load_chain(path: str) -> ChainSpec:
    try:
        return ChainSpec.from_dict(_load_json(path))
    except ValueError as exc:
        raise PstLabError(f"chain JSON {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(path: str | None, data: dict) -> str:
    """The report for `path` (stdout if None) as strict JSON text."""
    try:
        return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # NaN or an infinity, which strict JSON has no token for
        raise PstLabError(f"report {path or '<stdout>'} is not valid JSON: {exc}") from exc


def _dump_json(path: str | None, data: dict) -> None:
    _write_text(path, _json_text(path, data))


def _checked(kind, accept, rule: str):
    """An argparse `type`: parse with `kind`, then accept the values for
    which `accept` is true; anything else is a usage error stating `rule`."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return parse


_odd_int = _checked(int, lambda m: m >= 1 and m % 2 == 1, "an odd integer >= 1")
_odd_cap = _checked(_odd_int, lambda m: m <= pst.MAX_CAP, f"at most {pst.MAX_CAP}")
_t_max = _checked(float, lambda x: math.isfinite(x) and x > 0.0, "finite and > 0")
_steps = _checked(int, lambda n: 2 <= n <= MAX_STEPS, f"an integer in 2..{MAX_STEPS}")
_samples = _checked(int, lambda n: n >= 1, "an integer >= 1")
_seed = _checked(int, lambda n: n >= 0, "an integer >= 0")
_sites = _checked(int, lambda n: 2 <= n <= bounds.MAX_SCAN_SITES,
                  f"an integer in 2..{bounds.MAX_SCAN_SITES}")


def _parse_range(text: str) -> range:
    """'A..B' (inclusive) or a single integer, as a range (never a list, so
    memory does not grow with B)."""
    parts = text.split("..")
    try:
        if len(parts) <= 2:
            lo, hi = int(parts[0]), int(parts[-1])
            if lo <= hi:
                return range(lo, hi + 1)
    except ValueError:
        pass
    raise _UsageError(f"--n expects 'A..B' or an integer, got {text!r}")


# a chain whose analysis overflows prints inf or nan; _finish_analyze
# refuses its report, with or without --output
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def cmd_analyze(args) -> int:
    chain = _load_chain(args.input)
    cert, lam, lattice = pst._certify_chain(chain, max_multiplier=args.cap)
    # certification solves every chain except an asymmetric one
    symmetric = lam is not None
    if not symmetric:
        lam = eigenvalues_only(chain)
    print(f"chain: N={chain.n_sites}, J_max={chain.j_max:.12g}")
    print(f"mirror-symmetric: {'yes' if symmetric else 'no'}")
    print("spectrum:", " ".join(f"{x:.12g}" for x in lam))

    result: dict = {
        "chain": chain.to_dict(),
        "mirror_symmetric": symmetric,
        "spectrum": lam.tolist(),
        "certificate": cert.to_dict(),
    }
    if not cert.admissible:
        print(f"certificate: NOT ADMISSIBLE ({cert.failure})")
        _finish_analyze(args, result)
        return 2

    print("certificate: ADMISSIBLE")
    print(f"  t0 = {cert.t0:.12g}")
    print(f"  phi = {cert.phi:.12g}")
    print("  multipliers =", " ".join(str(m) for m in cert.multipliers))
    print(f"  max gap residual = {cert.max_residual:.3e}")
    fid = pst._fidelity(*pst._transfer_terms(chain, lam), np.array([cert.t0]))[0]
    print(f"fidelity at t0: {fid:.12g}")
    rows = bounds._audit_rows(chain.diagonal[None], chain.couplings[None], lattice[None],
                              np.array([cert.t0]))
    report, audit = bounds._reports(rows, 0, chain.n_sites)
    print(
        f"bound: parity={report.parity} bound={report.bound:.12g} "
        f"product={report.product:.12g} ratio={report.ratio:.12g} "
        f"lambda_min_ok={'yes' if report.lambda_min_ok else 'NO'}"
    )
    print("audit:")
    for key, value in audit.to_dict().items():
        if value is None or key == "parity":
            continue
        print(f"  {key} = {value:.12g}" if isinstance(value, float) else f"  {key} = {value}")
    result["fidelity_at_t0"] = float(fid)
    result["bound_report"] = report.to_dict()
    result["proof_audit"] = audit.to_dict()
    _finish_analyze(args, result)
    return 0


def _finish_analyze(args, result: dict) -> None:
    text = _json_text(args.output, result)  # strict JSON, written or not
    if args.output is not None:
        _write_text(args.output, text)


def cmd_synth(args) -> int:
    if (args.input is None) == (args.canonical is None):
        raise _UsageError("synth needs exactly one of --input or --canonical")
    if args.canonical is not None:
        chain = synthesis.canonical_chain(args.canonical)
        lattice, _ = synthesis._lattice_rows(2.0, np.ones((1, args.canonical - 1), np.int64))
        target = lattice[0]
    else:
        try:
            spectrum = synthesis.SpectrumSpec.from_dict(_load_json(args.input))
        except ValueError as exc:
            raise PstLabError(f"spectrum JSON {args.input}: {exc}") from exc
        chain = synthesis.synthesize(spectrum)
        target = spectrum.expand()
    _dump_json(args.output, chain.to_dict())
    achieved = eigenvalues_only(chain)
    width = target[0] - target[-1]
    residual = float(np.abs(achieved - target).max() / width)
    stream = sys.stderr if args.output is None else sys.stdout
    print(f"round-trip spectral residual: {residual:.3e}", file=stream)
    return 0


# a chain whose phases or weights overflow is refused by pst._fidelity
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def cmd_evolve(args) -> int:
    chain = _load_chain(args.input)
    times = np.linspace(0.0, args.t_max, args.steps)
    cert, lam, *_ = pst._certify_chain(chain, max_multiplier=args.cap)
    fidelity = pst._fidelity(*pst._transfer_terms(chain, lam), times)
    trace = pst.FidelityTrace(times=times, fidelity=fidelity)
    footer = (f"certificate t0 = {cert.t0:.12g}" if cert.admissible
              else f"no certificate: {cert.failure}")
    _write_text(args.output, trace.to_csv(footer=footer))
    return 0


def cmd_scan(args) -> int:
    n_values = _parse_range(args.n)
    if n_values[0] < 2 or n_values[-1] > bounds.MAX_SCAN_SITES:
        raise _UsageError(f"--n values must be in 2..{bounds.MAX_SCAN_SITES}")
    result = bounds.saturation_scan(n_values)
    for report in result.reports:
        print(f"scan N={report.n_sites}: ratio={report.ratio:.12g}", file=sys.stderr)
    for n, reason in result.failures:
        print(f"scan N={n}: FAILED ({reason})", file=sys.stderr)
    _write_text(args.output, result.to_csv())
    return 1 if not result.reports else 0


def cmd_search(args) -> int:
    n_values = _parse_range(args.n)
    n = n_values[0]
    if n_values[-1] != n:
        raise _UsageError("search takes a single --n")
    if not 2 <= n <= bounds.MAX_SEARCH_SITES:
        raise _UsageError(f"--n must be in 2..{bounds.MAX_SEARCH_SITES}")
    print(
        f"search N={n} samples={args.samples} cap={args.cap} seed={args.seed}",
        file=sys.stderr,
    )
    report = bounds.falsify_search(n, args.samples, args.cap, args.seed)
    least = ("no sample audited" if report.min_ratio is None else
             f"min ratio {report.min_ratio:.12g} at sample {report.min_ratio_index}")
    print(
        f"{least}; {len(report.violations)} violation(s), "
        f"{report.lambda_min_violations} lambda_min violation(s), "
        f"{len(report.failures)} failed sample(s)",
        file=sys.stderr,
    )
    _dump_json(args.output, report.to_dict())
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: argparse keeps no state between
    parse_args calls, and building the five subcommands costs about 1 ms."""
    parser = _Parser(prog="pstlab", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="certify and speed-audit a chain JSON")
    p.add_argument("--input", required=True, help="chain JSON file")
    p.add_argument("--output", help="write the full report as JSON")
    p.add_argument("--cap", type=_odd_cap, default=pst.MAX_MULTIPLIER, help=CAP_HELP)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synth", help="build the chain for a target spectrum")
    p.add_argument("--input", help="spectrum JSON file")
    p.add_argument("--canonical", type=_sites,
                   help=f"equally-spaced family at this N (2..{bounds.MAX_SCAN_SITES}) "
                        "instead of --input; the printed residual solves the chain in "
                        "O(N^2) time, about 90 s at N = 65536 on a 2-core x86 host")
    p.add_argument("--output", help="chain JSON file (default stdout)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("evolve", help="fidelity trace as CSV")
    p.add_argument("--input", required=True, help="chain JSON file")
    p.add_argument("--t-max", type=_t_max, required=True, help="end of the time grid")
    p.add_argument("--steps", type=_steps, default=201,
                   help=f"grid points (incl. 0), at most {MAX_STEPS}")
    p.add_argument("--cap", type=_odd_cap, default=pst.MAX_MULTIPLIER, help=CAP_HELP)
    p.add_argument("--output", help="CSV file (default stdout)")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("scan", help="canonical saturation table as CSV")
    p.add_argument("--n", required=True,
                   help=f"site range A..B (inclusive), within 2..{bounds.MAX_SCAN_SITES}")
    p.add_argument("--output", help="CSV file (default stdout)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("search", help="falsification search as JSON")
    p.add_argument("--n", required=True, help=f"number of sites, 2..{bounds.MAX_SEARCH_SITES}")
    p.add_argument("--samples", type=_samples, required=True)
    p.add_argument("--cap", type=_odd_cap, default=9, help="largest odd multiplier drawn")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--output", help="report JSON file (default stdout)")
    p.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, PstLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
