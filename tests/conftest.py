"""Shared fixtures.

The golden scenario runs are expensive (tens of seconds for the whole
set), so they execute once per session and every test that needs a
manifest or a CSV reads from the cached output directory.
"""

import json
import os
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from jcdiss import cli
from jcdiss.lindblad import sector_labels

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIO_DIR = os.path.join(REPO_ROOT, "scenarios")

# every scenario except the oracle sweep; one output directory each
GOLDEN_SCENARIOS = (
    "ground_state_detuning",
    "inversion_detuning",
    "purity_detuning",
    "field_entropy_detuning",
    "concurrence_detuning",
    "fock4_zero_temperature",
    "fock4_low_temperature",
    "coherent_revival_two_models",
    "coherent_detuning_sweep",
    "quadrature_means_two_models",
    "quadrature_variances_two_models",
    "husimi_snapshots_two_models",
)


def load_scenario(name):
    path = os.path.join(SCENARIO_DIR, name + ".json")
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return cli.parse_config(raw, source=path)


def read_csv(path):
    """CSV written by the runner -> dict of column name to float array."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    data = np.asarray(rows, dtype=float)
    return {name: data[:, j] for j, name in enumerate(header)}


def rotating_generator(liouvillian):
    """The sparse reference of the rotating-frame generator: the CSR
    superoperator Liouvillian.matrix plus i omega (N_r - N_c) on its
    diagonal, as one CSR matrix. The package itself steps and
    exponentiates its dense sectors (propagate.spectral_decomposition)."""
    shift = sector_labels(liouvillian.spec)
    omega = liouvillian.params.omega
    return sp.csr_matrix(liouvillian.matrix + sp.diags(1j * omega * shift))


@pytest.fixture(scope="session")
def golden_runs(tmp_path_factory):
    """Run the full golden set once; map scenario name -> (manifest, dir)."""
    base = tmp_path_factory.mktemp("goldens")
    runs = {}
    for name in GOLDEN_SCENARIOS:
        out = str(base / name)
        config = replace(load_scenario(name), output=out)
        if name == "husimi_snapshots_two_models":
            manifest = cli.run_husimi(config)
        else:
            manifest = cli.run_scenario(config)
        runs[name] = (manifest, out)
    return runs


@pytest.fixture
def scenario_dir():
    return SCENARIO_DIR
