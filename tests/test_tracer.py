"""The benchmark tracer sees every eigenvalue solve of an analysis."""
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import pstlab.cli
from pstlab import SpectrumSpec, synthesize

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

CHAINS = {
    "admissible": lambda: synthesize(SpectrumSpec(unit=1.0, multipliers=[1, 3, 5, 3, 1])),
    "irrational": lambda: synthesize(np.array([1.0, 0.0, -math.sqrt(2.0)])),
    "asymmetry": lambda: synthesize(SpectrumSpec(unit=1.0, multipliers=[1, 3, 1])),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


@pytest.mark.parametrize("kind", list(CHAINS))
def test_one_eigensolve_span_per_analysis(kind, tmp_path, monkeypatch, capsys):
    data = CHAINS[kind]().to_dict()
    if kind == "asymmetry":
        data["B"][0] += 0.01
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps(data), encoding="utf-8")
    solves, real = [], scipy.linalg.lapack.dsterf
    monkeypatch.setattr(scipy.linalg.lapack, "dsterf",
                        lambda d, e: solves.append(d.size) or real(d, e))
    tracer = load_tracer()
    tracer.install()
    try:
        with tracer.op():
            code = pstlab.cli.main(["analyze", "--input", str(chain)])
    finally:
        tracer.remove()
    capsys.readouterr()
    assert code == (0 if kind == "admissible" else 2)
    spans = [span[0] for span in tracer.spans].count("eigensolve.eigenvalues_only")
    assert spans == len(solves) == 1
    assert tracer.layer_metrics()["eigensolves_per_op"] == (1.0, "count")
