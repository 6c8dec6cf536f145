"""The cold path: importing the package, running any subcommand and the
nonnegative coefficient ascent load no scipy module, and the package import and the
subcommands load no `numpy.polynomial` module either (about 4 ms of a cold start);
`optimizer.minimize` is still scipy's for outside code that reads it, and nothing in
the package calls it."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import homodyne_bell
from homodyne_bell import optimizer, write_state_file
from homodyne_bell.cli import main

SRC = str(Path(homodyne_bell.__file__).resolve().parents[1])


def imported_modules(*args, cwd=None) -> list:
    """Module names a fresh interpreter imports while running `python -X importtime *args`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "|" in line]


def scipy_modules(names) -> list:
    return [name for name in names if name.split(".")[0] == "scipy"]


def polynomial_modules(names) -> list:
    return [name for name in names if name.split(".")[:2] == ["numpy", "polynomial"]]


def test_package_import_loads_no_scipy():
    names = imported_modules("-c", "import homodyne_bell")
    assert "homodyne_bell.optimizer" in names
    assert scipy_modules(names) == []
    assert polynomial_modules(names) == []


@pytest.mark.parametrize("argv", [
    ["state", "--family", "tmss", "--lambda", "0.6"],
    ["pipeline", "--xi", "0.7071", "--lambda", "0.01", "--verify-stage1"],
    ["bell", "--state", "state.json"],
    ["scan", "--family", "circle", "--param", "r", "--steps", "5"],
    ["optimize", "--n", "10"],
    ["optimize", "--family", "circle"],
    ["optimize", "--angle", "--state", "state.json"],
])
def test_subcommands_load_no_scipy(tmp_path, argv):
    write_state_file(homodyne_bell.circle(1.12, 32), tmp_path / "state.json")
    names = imported_modules("-m", "homodyne_bell.cli", *argv, "--out", "out.txt",
                             cwd=tmp_path)
    assert (tmp_path / "out.txt").stat().st_size > 0
    assert scipy_modules(names) == []
    assert polynomial_modules(names) == []


def test_public_api_is_every_imported_class_and_function():
    public = set(homodyne_bell.__all__)
    assert {"optimize_coefficients", "stage1_verify", "CoefficientVector", "estimate_B"} <= public
    assert not {"bell", "optimizer", "_ModuleType", "__version__"} & public
    for name in public:
        assert getattr(homodyne_bell, name).__module__.startswith("homodyne_bell."), name


PUBLIC_API = [
    "BEstimate", "BeamSplitter", "BellReport", "CoefficientVector",
    "ConditionalEnsemble", "FourModeTensor", "PipelineConfig", "PipelineReport", "SampleBatch",
    "Stage1Report", "apply_bs_pair_on_four_modes", "bell_report", "ch_S", "chsh_B", "circle",
    "condition_on_outcome", "estimate_B", "gaussify_coefficients", "gaussify_step",
    "normalize", "optimize_angle", "optimize_coefficients", "optimize_family_parameter",
    "overgaussification_scan", "overlap_table", "p_plus_plus", "p_plus_plus_quadrature_oracle",
    "photon_subtract_beamsplitter", "photon_subtract_exact", "pipelined", "ps_tmss",
    "read_state_file", "run_pipeline", "sample_joint", "seed", "seed_transmissivity",
    "stage1_transmissivity", "stage1_verify", "tmss", "trace_distance_pure_vs_ensemble",
    "write_state_file",
]


def test_public_api_is_pinned():
    # a name joins the public API only by being added here: no helper that only tests call
    assert len(PUBLIC_API) == 41 and PUBLIC_API == sorted(PUBLIC_API)
    assert homodyne_bell.__all__ == PUBLIC_API


def test_optimizer_minimize_is_scipys():
    import scipy.optimize
    assert optimizer.minimize is scipy.optimize.minimize
    with pytest.raises(AttributeError):
        optimizer.minimize_scalar
    with pytest.raises(AttributeError):
        optimizer.maximize


def test_nonnegative_ascent_loads_no_scipy():
    names = imported_modules("-c", "import math; from homodyne_bell import optimizer; "
                             "optimizer.optimize_coefficients(10, math.pi / 4, nonnegative=True)")
    assert "homodyne_bell.optimizer" in names
    assert scipy_modules(names) == []


def test_nonnegative_ascent_never_calls_minimize(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("optimizer.minimize was called")

    monkeypatch.setattr(optimizer, "minimize", refuse)
    vec, _, _ = optimizer.optimize_coefficients(10, np.pi / 4, nonnegative=True)
    assert np.all(vec.coeffs >= 0.0)


def test_family_search_still_finds_the_circle_optimum(tmp_path):
    out = tmp_path / "family.csv"
    assert main(["optimize", "--family", "circle", "--out", str(out)]) == 0
    r, b = map(float, out.read_text().strip().split("\n")[1].split(","))
    assert abs(r - 1.12) < 0.05
    assert b > 2.0


def test_raw_pairs_load_no_numpy_ma():
    # np.unique imports numpy.ma on first use, 12.5 ms cold in every `sample --dump-xy`
    names = imported_modules("-c", "from homodyne_bell import sample_joint, tmss; "
                             "sample_joint(tmss(0.6), 0.7, 2000, seed=1, keep_samples=True)")
    assert "homodyne_bell.sampler" in names and "numpy.ma" not in names
