"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Each check must accept the program's real output and reject the same
output made wrong in one place: a t0 off by 1e-6 relative, a count off by
one, a None where t0 is due, a wrong verdict, a shifted eigenvalue.  The
oracles are also tried on inputs whose answer is known.  Exits 1 if any
case goes the wrong way.
"""
from __future__ import annotations

import copy
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def case(label: str, errors: list[str], wrong: bool) -> None:
    ok = bool(errors) == wrong
    verdict = "rejected" if errors else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")
    if not ok:
        FAILURES.append(label)


def mutated(data: dict, edit) -> dict:
    out = copy.deepcopy(data)
    edit(out)
    return out


def falsify_cases(workdir: str) -> None:
    w = workloads.Falsify(7, workdir)
    w.build()
    w.expect()
    i = next(k for k, (n, _) in enumerate(w.calls) if n == 7)
    n, seed = w.calls[i]
    report = w.run(i).to_dict()

    def check(r):
        return oracles.check_search(r, n, w.SAMPLES, w.CAP, seed, w.negatives[i])

    case("falsify: real report", check(report), wrong=False)
    edits = {
        "substitution_gap_negatives off by one":
            lambda r: r.update(substitution_gap_negatives=r["substitution_gap_negatives"] + 1),
        "evaluated off by one": lambda r: r.update(evaluated=r["evaluated"] - 1),
        "one lambda_min violation": lambda r: r.update(lambda_min_violations=1),
        "min_ratio below the bound": lambda r: r.update(min_ratio=1.0 - 1e-8),
        "a violation record": lambda r: r.update(violations=[r["witness"]]),
        "witness ratio off by 1e-6 relative":
            lambda r: r["witness"]["report"].update(ratio=r["witness"]["report"]["ratio"] * (1 + 1e-6)),
        "witness multipliers of another sample":
            lambda r: r["witness"].update(multipliers=oracles.draw_multipliers(
                n, w.SAMPLES, w.CAP, seed)[(r["min_ratio_index"] + 1) % w.SAMPLES].tolist()),
        "witness coupling shifted by 1e-6":
            lambda r: r["witness"]["chain"]["J"].__setitem__(0, r["witness"]["chain"]["J"][0] + 1e-6),
    }
    for label, edit in edits.items():
        case(f"falsify: {label}", check(mutated(report, edit)), wrong=True)
    case("oracle: exact substitution gap of (1, 5, 5, 1) is negative",
         [] if oracles.exact_substitution_gap([1, 5, 5, 1]) < 0 else ["not negative"], wrong=False)
    case("oracle: exact substitution gap of the canonical N=5 spectrum is not negative",
         [] if oracles.exact_substitution_gap([1, 1, 1, 1]) >= 0 else ["negative"], wrong=False)


def analyze_cases(workdir: str) -> None:
    w = workloads.Analyze(7, workdir)
    w.build()
    w.expect()
    for kind in ("admissible", "irrational", "asymmetry"):
        i = next(k for k, e in enumerate(w.entries) if e[0] == kind)
        w.prepare(i)
        code = w.run(i)
        _, mult, unit, _, _, target = w.entries[i]
        with open(target, encoding="utf-8") as fh:
            result = json.load(fh)

        def check(r, c=code):
            return oracles.check_analysis(r, c, kind, mult, unit, w.spectra[i], w.irrational[i])

        case(f"analyze {kind}: real report", check(result), wrong=False)
        case(f"analyze {kind}: exit code 1", check(result, 1), wrong=True)
        case(f"analyze {kind}: top eigenvalue shifted by 1e-6 relative",
             check(mutated(result, lambda r: r["spectrum"].__setitem__(
                 0, r["spectrum"][0] + 1e-6 * max(map(abs, r["spectrum"]))))), wrong=True)
        if kind == "admissible":
            cert_edits = {
                "t0 off by 1e-6 relative": lambda c: c.update(t0=c["t0"] * (1 + 1e-6)),
                "multiplier off by two": lambda c: c["multipliers"].__setitem__(0, c["multipliers"][0] + 2),
                "not admissible": lambda c: c.update(admissible=False, failure="asymmetry"),
            }
            for label, edit in cert_edits.items():
                case(f"analyze admissible: {label}",
                     check(mutated(result, lambda r: edit(r["certificate"]))), wrong=True)
            case("analyze admissible: fidelity 1 - 1e-7 at t0",
                 check(mutated(result, lambda r: r.update(fidelity_at_t0=1 - 1e-7))), wrong=True)
        else:
            other = "asymmetry" if kind == "irrational" else "no-common-odd-unit"
            case(f"analyze {kind}: failure {other}",
                 check(mutated(result, lambda r: r["certificate"].update(failure=other))), wrong=True)
    lam = oracles.structured_spectrum([1, 3, 5, 7, 9, 3], 0.7)
    case("oracle: an odd unit fits a structured spectrum",
         [] if not oracles.no_odd_unit_fits(lam) else ["no unit found"], wrong=False)
    lam[-1] -= (math.sqrt(2.0) - 1.0) * 3 * 0.7
    case("oracle: no odd unit fits once one gap is sqrt(2) times its multiple",
         [] if oracles.no_odd_unit_fits(lam) else ["a unit fits"], wrong=False)


def transfer_cases(workdir: str) -> None:
    w = workloads.Transfer(7, workdir)
    w.build()
    w.expect()
    clean, copy_, t0 = w.entries[0]
    t_clean, t_copy = w.run(0)

    def check(a, b, below=w.below[0]):
        return oracles.check_transfer(a, b, t0, lambda t: w._fidelity(clean, t),
                                      lambda t: w._fidelity(copy_, t), below)

    case("transfer: real pair", check(t_clean, t_copy), wrong=False)
    case("transfer: None where t0 is due", check(None, t_copy), wrong=True)
    case("transfer: time off by 1e-6 relative", check(t_clean * (1 + 1e-6), t_copy), wrong=True)
    case("transfer: a time in the copy's fidelity valley", check(t_clean, 0.5 * t0), wrong=True)
    case("transfer: None without a scan that stays below", check(t_clean, t_copy, None), wrong=True)
    reaches = oracles.fidelity_stays_below(clean.diagonal, clean.couplings, 2.0 * t0,
                                           oracles.CLEAN_THRESHOLD)
    case("oracle: the certified chain's scan reaches 1 - 1e-8 by 2 t0",
         [] if reaches is False else [f"scan says {reaches}"], wrong=False)


def main() -> int:
    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="selftest-") as workdir:
        falsify_cases(workdir)
        analyze_cases(workdir)
        transfer_cases(workdir)
    print(f"{len(FAILURES)} case(s) went the wrong way" if FAILURES else "all cases ok")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
