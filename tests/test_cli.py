"""Command-line interface: exit codes, artifacts, determinism."""
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import pstlab.bounds
import pstlab.cli
import pstlab.pst
import pstlab.synthesis
from pstlab import (ChainSpec, EigensolveError, NotAdmissible, NumericalBreakdown, SpectrumSpec,
                    audit_chain, canonical_chain, certify, eigenvalues_only, first_perfect_time,
                    synthesize)
from pstlab.chain import SYMMETRY_TOL
from pstlab.cli import MAX_STEPS, main

MAX_SCAN = pstlab.bounds.MAX_SCAN_SITES  # 65536, the largest N of scan and synth --canonical


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture()
def canonical4(tmp_path):
    return write_json(tmp_path / "c4.json", canonical_chain(4).to_dict())


class TestAnalyze:
    def test_admissible_chain(self, canonical4, capsys):
        assert main(["analyze", "--input", canonical4]) == 0
        out = capsys.readouterr().out
        assert "certificate: ADMISSIBLE" in out
        assert "t0 = 1.57079632679" in out
        assert "mirror-symmetric: yes" in out
        assert "ratio=1" in out
        assert "half_sum_slack" in out

    def test_report_file(self, canonical4, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["analyze", "--input", canonical4,
                     "--output", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["certificate"]["admissible"] is True
        assert data["certificate"]["t0"] == pytest.approx(math.pi / 2.0)
        assert data["mirror_symmetric"] is True
        assert data["fidelity_at_t0"] == pytest.approx(1.0, abs=1e-9)
        assert data["bound_report"]["ratio"] == pytest.approx(1.0, abs=1e-11)
        assert "proof_audit" in data
        capsys.readouterr()

    def test_asymmetric_chain_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json",
                          {"N": 3, "J": [1.0, 2.0]})
        assert main(["analyze", "--input", path]) == 2
        out = capsys.readouterr().out
        assert "NOT ADMISSIBLE" in out
        assert "asymmetry" in out

    def test_multiplier_overflow_exits_2(self, tmp_path, capsys):
        # --cap bounds the m of the unit g_min/m: gaps (101, 103) need
        # m = 101, so at cap 99 no unit fits and the report is the full one
        # of that verdict; gaps (1, 101) fit at m = 1 and certify there
        lam = np.array([204.0, 103.0, 0.0])
        path = write_json(tmp_path / "wide.json", synthesize(lam - lam.mean()).to_dict())
        report = tmp_path / "report.json"
        assert main(["analyze", "--input", path, "--cap", "99",
                     "--output", str(report)]) == 2
        assert "NOT ADMISSIBLE (no-common-odd-unit)" in capsys.readouterr().out
        data = json.loads(report.read_text())
        assert data["certificate"] == {
            "admissible": False, "failure": "no-common-odd-unit", "t0": None, "phi": None,
            "multipliers": None, "max_residual": None,
        }
        assert main(["analyze", "--input", path]) == 0
        lam = np.array([102.0, 101.0, 0.0])
        path = write_json(tmp_path / "one.json", synthesize(lam - lam.mean()).to_dict())
        assert main(["analyze", "--input", path, "--cap", "99"]) == 0
        assert "multipliers = 1 101" in capsys.readouterr().out

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert main(["analyze", "--input", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["analyze", "--input", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_non_finite_report_is_refused(self, tmp_path, capsys):
        # the chain certifies, but the audit's squares of J = 1e300 overflow,
        # and strict JSON has no token for NaN or Infinity
        chain = write_json(tmp_path / "chain.json", {"N": 3, "B": [0, 0, 0], "J": [1e300, 1e300]})
        report = tmp_path / "report.json"
        assert main(["analyze", "--input", chain, "--output", str(report)]) == 1
        out, err = capsys.readouterr()
        assert "certificate: ADMISSIBLE" in out
        assert err.startswith(f"error: report {report} is not valid JSON")
        assert not report.exists()

    @pytest.mark.parametrize("data", [
        {"N": 3, "B": [0, 0, 0], "J": [1e300, 1e300]},  # the audit's squares overflow
    ], ids=["audit-overflow"])
    def test_non_finite_analysis_is_refused_without_output(self, data, tmp_path, capsys):
        chain = write_json(tmp_path / "chain.json", data)
        assert main(["analyze", "--input", chain]) == 1
        out, err = capsys.readouterr()
        assert "certificate: ADMISSIBLE" in out
        assert err.startswith("error: report <stdout> is not valid JSON")
        assert err.count("\n") == 1

    def test_invalid_chain_exits_1(self, tmp_path, capsys):
        path = write_json(tmp_path / "short.json", {"N": 2})
        assert main(["analyze", "--input", path]) == 1
        assert "field 'J'" in capsys.readouterr().err


class TestSynth:
    def test_canonical_to_stdout(self, capsys):
        assert main(["synth", "--canonical", "5"]) == 0
        captured = capsys.readouterr()
        chain = json.loads(captured.out)
        np.testing.assert_allclose(
            chain["J"], [2.0, math.sqrt(6.0), math.sqrt(6.0), 2.0], atol=1e-10
        )
        assert "round-trip spectral residual" in captured.err

    def test_spectrum_file_to_chain_file(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json",
                          {"unit": 1.0, "multipliers": [1, 3]})
        out = tmp_path / "chain.json"
        assert main(["synth", "--input", spec, "--output", str(out)]) == 0
        assert "round-trip spectral residual" in capsys.readouterr().out
        chain = json.loads(out.read_text())
        assert chain["B"][1] == pytest.approx(-4.0 / 3.0, abs=1e-10)
        # the written chain is re-readable by the CLI
        assert main(["analyze", "--input", str(out)]) == 0
        assert "t0 = 3.14159265359" in capsys.readouterr().out

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {"lambda": [1.0, -1.0]})
        assert main(["synth"]) == 1
        assert main(["synth", "--input", spec, "--canonical", "4"]) == 1
        err = capsys.readouterr().err
        assert "exactly one" in err

    def test_canonical_must_be_at_least_2(self, capsys):
        assert main(["synth", "--canonical", "1"]) == 1
        capsys.readouterr()

    def test_invalid_spectrum_exits_1(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {"unit": 1.0})
        assert main(["synth", "--input", spec]) == 1
        assert "spectrum JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("data, message", [
        ({"unit": 1.0, "multipliers": ["1", "3"]}, "field 'multipliers' must be integers"),
        ({"unit": 1.0, "multipliers": [100000000000000000000000000001]},
         "field 'multipliers' must be integers"),
        ({"unit": 1.0, "multipliers": [True, 3]}, "field 'multipliers' must be integers"),
        ({"lambda": [1e200, 0, -1e200]}, "synthesized fields overflow double precision"),
        ({"unit": 1e308, "multipliers": [1, 3, 5]}, "synthesized fields overflow double precision"),
        ({"unit": 1, "multipliers": [2**62 + 1] * 3},
         "field 'multipliers' must be at most 2^63 - 1 in sum"),
    ], ids=["strings", "beyond-int64", "bool", "lanczos-overflow", "spectrum-overflow",
            "sum-beyond-int64"])
    def test_bad_spectrum_is_a_typed_error(self, data, message, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", data)
        assert main(["synth", "--input", spec]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.endswith(f"{message}\n")
        assert err.count("\n") == 1


class TestEvolve:
    def test_two_site_trace(self, tmp_path, capsys):
        chain = write_json(tmp_path / "c2.json", {"N": 2, "J": [1.0]})
        out = tmp_path / "trace.csv"
        assert main(["evolve", "--input", chain, "--t-max", str(math.pi),
                     "--steps", "101", "--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "time,fidelity"
        assert lines[-1].startswith("# certificate t0 = 1.57079632679")
        assert len(lines) == 103  # header + 101 rows + footer
        t, f = lines[51].split(",")  # the pi/2 row
        assert float(t) == pytest.approx(math.pi / 2.0, rel=1e-10)
        assert float(f) == pytest.approx(1.0, abs=1e-9)
        capsys.readouterr()

    def test_inadmissible_chain_still_traces(self, tmp_path, capsys):
        chain = write_json(tmp_path / "asym.json", {"N": 3, "J": [1.0, 2.0]})
        assert main(["evolve", "--input", chain, "--t-max", "1.0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("time,fidelity")
        assert "# no certificate: asymmetry" in out

    @pytest.mark.parametrize("data", [
        {"N": 2, "B": [1e150, 1e150], "J": [1.7e308]},  # the spectral width overflows
        {"N": 3, "B": [1e-20, 1.7e308, 1e200], "J": [1.0, 1e-200]},  # lambda t overflows
    ], ids=["wide", "far"])
    def test_overflowing_fidelity_is_an_error(self, data, tmp_path, capsys):
        chain = write_json(tmp_path / "c.json", data)
        assert main(["evolve", "--input", chain, "--t-max", "3", "--steps", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: fidelity is not finite: the phases or weights overflow\n"

    def test_validates_grid(self, tmp_path, capsys):
        chain = write_json(tmp_path / "c2.json", {"N": 2, "J": [1.0]})
        assert main(["evolve", "--input", chain, "--t-max", "0"]) == 1
        assert main(["evolve", "--input", chain, "--t-max", "1",
                     "--steps", "1"]) == 1
        capsys.readouterr()


class TestFlagValidation:
    """Out-of-range flags are usage errors (exit 1), rejected while the
    arguments are parsed, before the command reads its input."""

    @pytest.fixture(autouse=True)
    def _no_command_body(self, monkeypatch):
        def refuse(path):
            raise AssertionError("the command ran")

        monkeypatch.setattr(pstlab.cli, "_load_chain", refuse)

    def _usage_error(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument")
        return err

    def test_analyze_even_cap(self, canonical4, capsys):
        err = self._usage_error(["analyze", "--input", canonical4, "--cap", "4"], capsys)
        assert "--cap: must be an odd integer >= 1, got '4'" in err

    def test_evolve_even_cap(self, canonical4, capsys):
        err = self._usage_error(["evolve", "--input", canonical4, "--t-max", "1",
                                 "--cap", "4"], capsys)
        assert "--cap" in err

    @pytest.mark.parametrize("command", ["analyze --input {}", "evolve --input {} --t-max 1",
                                         "search --n 4 --samples 3"],
                             ids=["analyze", "evolve", "search"])
    def test_cap_beyond_limit(self, canonical4, command, capsys):
        huge = "1000000000000000000000000000001"
        err = self._usage_error(command.format(canonical4).split() + ["--cap", huge], capsys)
        assert f"--cap: must be at most {pstlab.pst.MAX_CAP}, got '{huge}'" in err

    @pytest.mark.parametrize("tol", ["1e-6", "nan", "inf", "-1e-10", "x"])
    def test_analyze_tolerance(self, canonical4, tol, capsys):
        # the symmetry tolerance is chain.SYMMETRY_TOL, not a flag: any --tol,
        # valid-looking or not, is an unrecognized argument
        assert main(["analyze", "--input", canonical4, f"--tol={tol}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: unrecognized arguments: --tol={tol}\n"

    @pytest.mark.parametrize("t_max", ["nan", "inf", "-1"])
    def test_evolve_horizon(self, canonical4, t_max, capsys):
        err = self._usage_error(["evolve", "--input", canonical4, f"--t-max={t_max}"], capsys)
        assert "--t-max: must be finite and > 0" in err

    def test_evolve_steps_cap(self, canonical4, capsys):
        err = self._usage_error(["evolve", "--input", canonical4, "--t-max", "1",
                                 "--steps", str(MAX_STEPS + 1)], capsys)
        assert f"--steps: must be an integer in 2..{MAX_STEPS}" in err

    @pytest.mark.parametrize("argv, rule", [
        ("search --n 3 --samples 1 --seed -1", "--seed: must be an integer >= 0, got '-1'"),
        ("search --n 3 --samples 1 --seed x", "--seed: must be an integer >= 0, got 'x'"),
        ("search --n 3 --samples 0", "--samples: must be an integer >= 1, got '0'"),
        ("synth --canonical 1", f"--canonical: must be an integer in 2..{MAX_SCAN}, got '1'"),
        (f"synth --canonical {MAX_SCAN + 1}",
         f"--canonical: must be an integer in 2..{MAX_SCAN}, got '{MAX_SCAN + 1}'"),
    ], ids=["negative-seed", "non-integer-seed", "no-samples", "canonical-1", "canonical-65537"])
    def test_search_and_synth_numbers(self, argv, rule, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(pstlab.bounds, "falsify_search", refuse)
        monkeypatch.setattr(pstlab.synthesis, "canonical_chain", refuse)
        err = self._usage_error(argv.split(), capsys)
        assert rule in err


class TestOneSolvePerCommand:
    """analyze, evolve and first_perfect_time solve each chain once,
    whatever the verdict: one call to LAPACK's dsterf and no full
    decomposition."""

    CHAINS = {  # verdict or case: (chain, what analyze prints for it)
        "admissible": (lambda: synthesize(SpectrumSpec(unit=1.0, multipliers=[1, 3, 5, 3, 1] * 4)),
                       "certificate: ADMISSIBLE"),
        "asymmetry": (lambda: synthesize(SpectrumSpec(unit=1.0, multipliers=[1, 3, 1])),
                      "NOT ADMISSIBLE (asymmetry)"),
        "no-common-odd-unit": (lambda: synthesize(np.array([1.0, 0.0, -math.sqrt(2.0)])),
                               "NOT ADMISSIBLE (no-common-odd-unit)"),
        "large-multiplier": (lambda: synthesize(SpectrumSpec(unit=1.0, multipliers=[1, 1001, 1])),
                             "multipliers = 1 1001 1"),
    }

    @pytest.fixture()
    def solves(self, monkeypatch):
        count = {"dsterf": 0, "decompose": 0}
        dsterf, decompose = scipy.linalg.lapack.dsterf, pstlab.pst.decompose

        def counted_dsterf(diagonal, couplings):
            count["dsterf"] += 1
            return dsterf(diagonal, couplings)

        def counted_decompose(chain):
            count["decompose"] += 1
            return decompose(chain)

        monkeypatch.setattr(scipy.linalg.lapack, "dsterf", counted_dsterf)
        monkeypatch.setattr(pstlab.pst, "decompose", counted_decompose)
        return count

    @pytest.mark.parametrize("verdict", list(CHAINS))
    def test_each_command_solves_once(self, verdict, solves, tmp_path, capsys):
        build, printed = self.CHAINS[verdict]
        data = build().to_dict()
        if verdict == "asymmetry":
            data["B"][0] += 0.01
        path = write_json(tmp_path / "chain.json", data)
        admissible = verdict in ("admissible", "large-multiplier")
        assert main(["analyze", "--input", path]) == (0 if admissible else 2)
        assert printed in capsys.readouterr().out
        assert solves == {"dsterf": 1, "decompose": 0}
        solves.update(dsterf=0)
        # an asymmetric chain's transfer coefficients come from its one
        # eigenvalue solve too
        assert main(["evolve", "--input", path, "--t-max", "3"]) == 0
        capsys.readouterr()
        assert solves == {"dsterf": 1, "decompose": 0}

    def test_first_perfect_time_solves_an_asymmetric_chain_once(self, solves, disorder_corpus):
        _, cert, chain = disorder_corpus[0]
        assert not pstlab.pst.is_mirror_symmetric(chain)
        for horizon in (None, 20.0 * cert.t0):
            first_perfect_time(chain, threshold=1.0 - 1e-3, horizon=horizon)
            assert solves == {"dsterf": 1, "decompose": 0}
            solves.update(dsterf=0)


class TestOneOutcome:
    """A certification outcome is built once, as a chain's certificate in
    _certify_chain, and certify, audit_chain, analyze, evolve and the default
    horizon of first_perfect_time each read that one outcome."""

    OUTCOMES = {  # outcome: (chain, verdict, error type, start of its message)
        "admissible": (lambda: canonical_chain(5), None, None, None),
        "asymmetry": (lambda: ChainSpec(diagonal=[0.0, 0.0, 0.0], couplings=[1.0, 2.0]),
                      "asymmetry", NotAdmissible, "chain does not certify: asymmetry"),
        "no-common-odd-unit": (lambda: synthesize(np.array([1.0, 0.0, -3.0 * math.sqrt(2.0)])),
                               "no-common-odd-unit", NotAdmissible,
                               "chain does not certify: no-common-odd-unit"),
        "large-multiplier": (lambda: synthesize(SpectrumSpec(unit=1.0, multipliers=[1, 1001, 1])),
                             None, None, None),
        "solver-failure": (lambda: canonical_chain(4), None, EigensolveError,
                           "degenerate or unordered eigenvalues"),
        "t0-overflow": (lambda: ChainSpec.from_dict({"N": 2, "J": [1e-310]}), None,
                        NumericalBreakdown, "transfer time pi/u overflows double precision"),
    }
    RAISED = ("solver-failure", "t0-overflow")  # _certify_chain raises these

    @staticmethod
    def _scan_starts(monkeypatch, chain, **kwargs):
        """The block starts of first_perfect_time's grid, which follow its horizon."""
        starts, real = [], pstlab.pst._grid_scan

        def spy(lam, coeff, offsets):
            terms = real(lam, coeff, offsets)
            return lambda s: starts.append(s.copy()) or terms(s)

        monkeypatch.setattr(pstlab.pst, "_grid_scan", spy)
        first_perfect_time(chain, **kwargs)
        monkeypatch.setattr(pstlab.pst, "_grid_scan", real)
        return np.concatenate(starts)

    @pytest.mark.parametrize("outcome", list(OUTCOMES))
    def test_every_caller_reads_one_outcome(self, outcome, monkeypatch, tmp_path, capsys):
        build, verdict, kind, message = self.OUTCOMES[outcome]
        chain = build()
        if outcome == "solver-failure":
            real = scipy.linalg.lapack.dsterf

            def tied(diagonal, couplings):  # the two lowest eigenvalues tie
                lam, info = real(diagonal, couplings)
                lam[1] = lam[0]
                return lam, info

            monkeypatch.setattr(scipy.linalg.lapack, "dsterf", tied)
        if outcome in self.RAISED:
            with pytest.raises(kind) as raised:
                pstlab.pst._certify_chain(chain)
            error = raised.value
            assert str(error).startswith(message)
        else:
            cert, lam, lattice = pstlab.pst._certify_chain(chain)
            assert cert.failure == verdict
            assert (kind is None) == cert.admissible
            assert (lam is None) == (verdict == "asymmetry")
            assert (lattice is None) == (kind is not None)

        # audit_chain raises the certification's error, or NotAdmissible naming the verdict
        if kind is not None:
            with pytest.raises(kind) as raised:
                audit_chain(chain)
            assert str(raised.value).startswith(message)

        # certify returns a certificate, and raises for a failed solve
        if outcome in self.RAISED:
            with pytest.raises(kind) as raised:
                certify(chain)
            assert str(raised.value) == str(error)
        else:
            assert certify(chain).to_dict() == cert.to_dict()

        # analyze's exit code and evolve's footer
        path = write_json(tmp_path / "chain.json", chain.to_dict())
        code = main(["analyze", "--input", path])
        evolved = main(["evolve", "--input", path, "--t-max", "3"])
        out, err = capsys.readouterr()
        if outcome in self.RAISED:
            assert (code, evolved) == (1, 1)
            assert (out, err) == ("", f"error: {error}\nerror: {error}\n")
            with pytest.raises(kind) as raised:
                first_perfect_time(chain)
            assert str(raised.value) == str(error)
            return
        footer = f"certificate t0 = {cert.t0:.12g}" if kind is None else f"no certificate: {verdict}"
        assert (code, evolved) == (0 if kind is None else 2, 0)
        assert out.endswith(f"# {footer}\n")

        # the default horizon: t0 when admissible (TestFirstPerfectTime has
        # chains where that decides the answer), else 4 pi / (smallest gap)
        if kind is None:
            assert first_perfect_time(chain) == pytest.approx(cert.t0, rel=1e-12)
            assert audit_chain(chain)[0].t0 == cert.t0
            return
        horizon = 4.0 * math.pi / float((-np.diff(eigenvalues_only(chain))).min())
        # threshold 0.5: below sum |c_n| (0.8 for the asymmetric chain), so
        # the global ceiling does not decide and both calls scan their grids
        np.testing.assert_allclose(self._scan_starts(monkeypatch, chain, threshold=0.5),
                                   self._scan_starts(monkeypatch, chain, threshold=0.5,
                                                     horizon=horizon),
                                   rtol=1e-12)


class TestOneSymmetryAnswer:
    """Mirror symmetry is one rule at one tolerance, chain.SYMMETRY_TOL:
    certify, audit_chain, analyze and the lattice check of the search agree
    on a chain moved just inside it and just outside it."""

    @pytest.mark.parametrize("shift, symmetric", [(0.5, True), (2.0, False)],
                             ids=["inside", "outside"])
    def test_every_caller_agrees(self, shift, symmetric, tmp_path, capsys):
        spec = SpectrumSpec(unit=1.0, multipliers=[1, 3, 5, 3, 1])
        clean = synthesize(spec)
        scale = max(np.abs(clean.diagonal).max(), clean.couplings.max(), 1.0)
        b = clean.diagonal.copy()
        b[0] += shift * SYMMETRY_TOL * scale
        chain = ChainSpec(diagonal=b, couplings=clean.couplings)

        cert = certify(chain)
        assert cert.admissible == symmetric
        assert (cert.failure == "asymmetry") != symmetric
        if symmetric:
            assert audit_chain(chain)[0].t0 == cert.t0
        else:
            with pytest.raises(NotAdmissible, match="asymmetry"):
                audit_chain(chain)

        path = write_json(tmp_path / "chain.json", chain.to_dict())
        report = tmp_path / "report.json"
        code = main(["analyze", "--input", path, "--output", str(report)])
        capsys.readouterr()
        assert code == (0 if symmetric else 2)
        assert json.loads(report.read_text())["mirror_symmetric"] == symmetric

        lattice, t0 = pstlab.synthesis._lattice_rows(spec.unit, spec.multipliers[None])
        *_, failed = pstlab.bounds._audit_lattice(
            np.array([0]), chain.diagonal[None], chain.couplings[None], lattice, t0)
        assert failed == ([] if symmetric else [(0, "chain does not certify: asymmetry")])


class TestScan:
    def test_range_table(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--n", "2..10", "--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("N,parity,J_max,t0,product,bound,ratio")
        assert len(lines) == 10
        for line in lines[1:]:
            ratio = float(line.split(",")[6])
            assert abs(ratio - 1.0) <= 1e-9
        err = capsys.readouterr().err
        assert "scan N=2: ratio=1" in err

    def test_single_value(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        assert main(["scan", "--n", "6", "--output", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 2
        capsys.readouterr()

    def test_rejects_bad_ranges(self, capsys):
        assert main(["scan", "--n", "1..3"]) == 1
        assert main(["scan", "--n", "5..3"]) == 1
        assert main(["scan", "--n", "x"]) == 1
        capsys.readouterr()

    def test_large_canonical_chain_scans(self, tmp_path, capsys):
        # the solved spectrum's unit failed the absolute PHASE_TOL from N = 753
        out = tmp_path / "scan.csv"
        assert main(["scan", "--n", "2000", "--output", str(out)]) == 0
        assert "FAILED" not in capsys.readouterr().err
        assert out.read_text().split("\n")[1].startswith("2000,even,1000,1.57079632679,")

    def test_range_beyond_the_limit_is_refused_before_any_work(self, monkeypatch, capsys):
        def forbidden(*args, **kw):
            raise AssertionError("called")

        monkeypatch.setattr(pstlab.bounds, "saturation_scan", forbidden)
        limit = pstlab.bounds.MAX_SCAN_SITES
        assert main(["scan", "--n", f"2..{limit + 1}"]) == 1
        assert capsys.readouterr().err == f"error: --n values must be in 2..{limit}\n"


class TestSearch:
    def test_deterministic_artifact(self, tmp_path, capsys):
        a, b = (tmp_path / name for name in ("a.json", "b.json"))
        args = ["search", "--n", "5", "--samples", "200", "--cap", "5",
                "--seed", "7"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        report = json.loads(a.read_text())
        assert report["min_ratio"] >= 1.0 - 1e-9
        assert report["violations"] == []
        assert "search N=5" in capsys.readouterr().err

    def test_summary_counts_failed_samples(self, tmp_path, capsys, monkeypatch):
        # a second eigenvalue in the top window of the block's Sturm counts
        # fails sample 0 alone
        samples, path = 60, tmp_path / "r.json"
        args = ["search", "--n", "5", "--samples", str(samples), "--seed", "4",
                "--output", str(path)]
        assert main(args) == 0
        assert "lambda_min violation(s), 0 failed sample(s)" in capsys.readouterr().err
        real = pstlab.bounds._sturm_counts_rows

        def tied(diagonal, couplings, shifts):
            counts = real(diagonal, couplings, shifts)
            if len(counts) == samples:
                counts[0, 5] += 1
            return counts

        monkeypatch.setattr(pstlab.bounds, "_sturm_counts_rows", tied)
        assert main(args) == 0
        assert "lambda_min violation(s), 1 failed sample(s)" in capsys.readouterr().err
        assert [index for index, _ in json.loads(path.read_text())["failures"]] == [0]

    def test_no_audited_sample_is_strict_json(self, tmp_path, capsys, monkeypatch):
        # the one sample fails, so the minima are null, never Infinity
        path = tmp_path / "r.json"
        real = pstlab.bounds._sturm_counts_rows

        def tied(diagonal, couplings, shifts):
            counts = real(diagonal, couplings, shifts)
            counts[:, 5] += 1
            return counts

        monkeypatch.setattr(pstlab.bounds, "_sturm_counts_rows", tied)
        args = ["search", "--n", "5", "--samples", "1", "--output", str(path)]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "no sample audited; 0 violation(s)" in err
        assert "1 failed sample(s)" in err

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        report = json.loads(path.read_text(), parse_constant=reject)
        assert report["evaluated"] == 0
        assert report["min_ratio"] is None
        assert report["min_final_slack"] is None
        assert report["min_substitution_gap"] is None
        assert report["min_ratio_index"] == -1 and report["witness"] == {}

    def test_usage_errors(self, capsys):
        assert main(["search", "--n", "5", "--samples", "0"]) == 1
        assert main(["search", "--n", "5", "--samples", "10", "--cap", "4"]) == 1
        assert main(["search", "--n", "2..5", "--samples", "10"]) == 1
        assert main(["search", "--n", "1", "--samples", "10"]) == 1
        too_many = str(pstlab.bounds.MAX_SEARCH_SITES + 1)
        assert main(["search", "--n", too_many, "--samples", "1"]) == 1
        assert f"--n must be in 2..{pstlab.bounds.MAX_SEARCH_SITES}" in capsys.readouterr().err

    def test_a_range_is_not_built(self, capsys):
        pstlab.cli._build_parser()  # built once per process, outside the measurement
        tracemalloc.start()
        try:
            code = main(["search", "--n", "2..2000000", "--samples", "3"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == "error: search takes a single --n\n"
        assert peak < 2**20


class TestTopLevel:
    def test_no_arguments_is_a_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_command_is_a_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_consecutive_calls_parse_their_own_subcommand(self, tmp_path, capsys):
        # one parser serves every call: a flag given to one call must not
        # become the next call's value
        lam = np.array([204.0, 103.0, 0.0])
        path = write_json(tmp_path / "wide.json", synthesize(lam - lam.mean()).to_dict())
        assert main(["analyze", "--input", path, "--cap", "99"]) == 2
        assert "NOT ADMISSIBLE (no-common-odd-unit)" in capsys.readouterr().out
        assert main(["evolve", "--input", path, "--t-max", "1", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("time,fidelity")
        assert "# certificate t0 = " in out
        assert main(["analyze", "--input", path]) == 0
        assert "certificate: ADMISSIBLE" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "analyze" in capsys.readouterr().out
