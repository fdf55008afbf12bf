"""The three workloads: corpus, the timed call, its unit count and its check.

Each workload is built from a seed.  `build` makes the corpus with pstlab
(this is part of set-up), `expect` computes what every output must satisfy
with bench/oracles.py (not timed, not part of set-up), `run(i)` is the one
timed call into the library, and `check(i, output)` returns the list of
ways that output is wrong.  A round is one `run` per corpus entry; every run
of the benchmark measures whole rounds.

The library is always called through its module attributes
(`pstlab.bounds.falsify_search`, not a name bound here), so the tracer in
bench/tracer.py sees every call.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import pstlab
import pstlab.cli

import oracles


class Workload:
    """Defaults shared by the workloads."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def units(self, i: int) -> int:
        return 1

    def prepare(self, i: int) -> None:
        """Untimed work before call i."""


class Falsify(Workload):
    """falsify_search at N = 2..9, cap 9, SAMPLES spectra per call (the
    criterion-6 shape, cut into calls short enough for percentiles).  A
    round is CALLS_PER_N calls per N, each with its own seed drawn from the
    benchmark seed; every round repeats the same calls.  One unit of work
    is one audited spectrum."""

    N_VALUES = range(2, 10)
    CALLS_PER_N = 2
    SAMPLES = 50
    CAP = 9

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.calls = [(n, int(rng.integers(2**31)))
                      for _ in range(self.CALLS_PER_N) for n in self.N_VALUES]

    def __len__(self) -> int:
        return len(self.calls)

    def units(self, i: int) -> int:
        return self.SAMPLES

    def run(self, i: int):
        n, seed = self.calls[i]
        return pstlab.bounds.falsify_search(n, self.SAMPLES, self.CAP, seed)

    def expect(self) -> None:
        self.negatives = []
        for n, seed in self.calls:
            mults = oracles.draw_multipliers(n, self.SAMPLES, self.CAP, seed)
            self.negatives.append(0 if n % 2 == 0 else sum(
                oracles.exact_substitution_gap(m) < 0 for m in mults))

    def check(self, i: int, output) -> list[str]:
        n, seed = self.calls[i]
        return oracles.check_search(output.to_dict(), n, self.SAMPLES, self.CAP,
                                    seed, self.negatives[i])


class Analyze(Workload):
    """In-process `pstlab analyze --input chain.json --output report.json`
    on a fixed mix of chains at N = 16, 24, ..., 64.  Per N: three
    admissible chains synthesized from odd multipliers (one of them with
    every multiplier a multiple of 3, so the reduction by the gcd shows),
    one mirror-symmetric chain with one gap sqrt(2) times an odd multiple
    (no odd unit fits; the whole minimal-unit scan runs) and one admissible
    chain with its first field shifted by 1% of J_max (asymmetry).  That is
    60% admissible, 20% each of the two exit-code-2 verdicts.  One unit of
    work is one analyzed chain."""

    N_VALUES = range(16, 65, 8)
    KINDS = ("admissible", "admissible", "admissible", "irrational", "asymmetry")
    CAP = 9

    def build(self) -> None:
        self.sink = io.StringIO()
        rng = np.random.default_rng(self.seed)
        self.entries = []
        for n in self.N_VALUES:
            for slot, kind in enumerate(self.KINDS):
                unit = float(rng.uniform(0.5, 2.0))
                mult = rng.integers(0, (self.CAP + 1) // 2, size=n - 1) * 2 + 1
                if slot == 2:
                    mult = 3 * (rng.integers(0, 2, size=n - 1) * 2 + 1)
                if kind == "irrational":
                    gaps = mult * unit
                    gaps[int(rng.integers(n - 1))] *= math.sqrt(2.0)
                    lam = np.concatenate([np.cumsum(gaps[::-1])[::-1], [0.0]])
                    built = pstlab.synthesis.synthesize(lam - lam.mean())
                else:
                    built = pstlab.synthesis.synthesize(
                        pstlab.synthesis.SpectrumSpec(unit=unit, multipliers=mult))
                data = built.to_dict()
                if kind == "asymmetry":
                    data["B"][0] += 0.01 * built.j_max
                name = os.path.join(self.workdir, f"chain-{len(self.entries)}")
                with open(name + ".json", "w", encoding="utf-8") as fh:
                    json.dump(data, fh)
                self.entries.append((kind, mult.tolist(), unit, data,
                                     name + ".json", name + "-report.json"))

    def __len__(self) -> int:
        return len(self.entries)

    def prepare(self, i: int) -> None:
        """Remove the previous report, so a report that is not written shows."""
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.entries[i][5])
        self.sink.seek(0)
        self.sink.truncate()

    def run(self, i: int):
        source, target = self.entries[i][4:]
        with contextlib.redirect_stdout(self.sink):
            return pstlab.cli.main(["analyze", "--input", source, "--output", target])

    def expect(self) -> None:
        self.spectra, self.irrational = [], []
        for kind, _, _, data, _, _ in self.entries:
            lam = oracles.dense_spectrum(data["B"], data["J"])
            self.spectra.append(lam)
            self.irrational.append(oracles.no_odd_unit_fits(lam)
                                   if kind == "irrational" else None)

    def check(self, i: int, output) -> list[str]:
        kind, mult, unit, _, _, target = self.entries[i]
        try:
            with open(target, encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, ValueError) as exc:
            return [f"no readable report: {exc}"]
        return oracles.check_analysis(result, output, kind, mult, unit,
                                      self.spectra[i], self.irrational[i])


class Transfer(Workload):
    """One op is two first_perfect_time calls on one chain: the certified
    chain over (0, 2 t0] at the default threshold, then a copy with every
    field and coupling shifted by +-1% of J_max (independent random signs)
    at threshold 1 - 1e-3 over (0, 20 t0], the criterion-7 shape.  Every
    call passes its horizon, because the default horizon is shorter than t0
    for most of these chains.  One unit of work is one chain.

    The chains have N = 10..16, PER_N of each, with odd multipliers up to 9.
    How long a chain takes is set mostly by its multiplier arrangement,
    which fixes how many fidelity peaks the scan refines (from about 20 to
    about 180 per copy).  Drawn per seed, the arrangements moved the work of
    a 42-chain round by 8% (coefficient of variation over seeds); so they
    come from one fixed table (default_rng(0)), and the seed draws each
    chain's unit in [0.5, 2] and the signs of its perturbation, which move
    that work by under 1%.
    """

    N_VALUES = range(10, 17)
    PER_N = 8
    CAP = 9

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        table = np.random.default_rng(0)
        self.entries = []
        for _ in range(self.PER_N):
            for n in self.N_VALUES:
                unit = float(rng.uniform(0.5, 2.0))
                mult = table.integers(0, (self.CAP + 1) // 2, size=n - 1) * 2 + 1
                clean = pstlab.synthesis.synthesize(
                    pstlab.synthesis.SpectrumSpec(unit=unit, multipliers=mult))
                scale = 0.01 * clean.j_max
                copy = pstlab.chain.ChainSpec(
                    diagonal=clean.diagonal + scale * rng.choice([-1.0, 1.0], size=n),
                    couplings=clean.couplings + scale * rng.choice([-1.0, 1.0], size=n - 1),
                )
                self.entries.append((clean, copy, oracles.transfer_time(mult, unit)))

    def __len__(self) -> int:
        return len(self.entries)

    def run(self, i: int):
        clean, copy, t0 = self.entries[i]
        return (
            pstlab.pst.first_perfect_time(clean, horizon=2.0 * t0),
            pstlab.pst.first_perfect_time(copy, threshold=1.0 - 1e-3, horizon=20.0 * t0),
        )

    def expect(self) -> None:
        self.below = [
            oracles.fidelity_stays_below(copy.diagonal, copy.couplings, 20.0 * t0,
                                         oracles.DISORDER_THRESHOLD)
            for _, copy, t0 in self.entries
        ]
        self.fidelities = {}

    def _fidelity(self, spec, t: float) -> float:
        key = (id(spec), t)
        if key not in self.fidelities:
            self.fidelities[key] = oracles.expm_fidelity(spec.diagonal, spec.couplings, t)
        return self.fidelities[key]

    def check(self, i: int, output) -> list[str]:
        clean, copy, t0 = self.entries[i]
        return oracles.check_transfer(
            output[0], output[1], t0,
            lambda t: self._fidelity(clean, t),
            lambda t: self._fidelity(copy, t),
            self.below[i],
        )


WORKLOADS = {"falsify": Falsify, "analyze": Analyze, "transfer": Transfer}
