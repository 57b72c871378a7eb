"""scipy's compiled kernels without its Python layers.

The band module loads scipy's LAPACK and CSR extension modules by file
path, and falls back to the normal import when that fails.  Both paths must
give the same bits, and the benchmark's span tracer, which swaps the
solvers' scipy.sparse.linalg name, must still install on the package.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import degenflow

ROOT = Path(degenflow.__file__).resolve().parents[2]

# the factor and solve of a Newton matrix and the CSR products of the face
# operator, its transpose, the conductance map and the p = 2 Hessian, on one
# interval and one tensor system, saved to argv[2]; with argv[1] "fallback"
# the path load is refused, so the kernels come from the normal import
KERNELS = """
import importlib.util, sys
import numpy as np
if sys.argv[1] == "fallback":
    def refuse(*args, **kwargs):
        raise ImportError("path load refused")
    importlib.util.spec_from_file_location = refuse
from degenflow import WeightSpec, build_grid, energy_hessian_matrix
from degenflow.timestepper import _NewtonSystem
arrays = {}
for mode in ("interval", "tensor2d"):
    grid, weight = build_grid(mode, 1.0, 12), WeightSpec.power(1.0)
    system = _NewtonSystem(grid, weight, 3.0)
    op = system.op
    x = np.random.default_rng(3).standard_normal(len(system.vol))
    factor = system.factor(system.matrix(x, 1e-2, 0.0))
    face = op.matrix @ x
    arrays.update({f"{mode}_factor": factor, f"{mode}_solve": system.solve(factor, x),
                   f"{mode}_face": face, f"{mode}_transpose": op.transpose @ face,
                   f"{mode}_hessian": energy_hessian_matrix(grid, weight, interior=True)[0]})
np.savez(sys.argv[2], **arrays)
print(*sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.sparse"))))
"""


def _kernel_run(tmp_path, how):
    path = tmp_path / f"{how}.npz"
    out = subprocess.run([sys.executable, "-c", KERNELS, how, str(path)],
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, check=True)
    with np.load(path) as data:
        return {name: data[name] for name in data.files}, out.stdout.split()


def test_path_load_and_fallback_give_the_same_bits(tmp_path):
    """dpbtrf and dpbtrs of an interval and a tensor Newton matrix, and the
    CSR products of their face operators, are byte-identical whether the
    extension modules are loaded by file path or, with that refused, by the
    normal import of scipy.linalg and scipy.sparse."""
    by_path, path_modules = _kernel_run(tmp_path, "path")
    fallback, fallback_modules = _kernel_run(tmp_path, "fallback")
    assert path_modules == ["scipy.linalg._flapack", "scipy.sparse._sparsetools"]
    assert {"scipy.linalg", "scipy.sparse"} <= set(fallback_modules)
    assert sorted(by_path) == sorted(fallback)
    for name, value in by_path.items():
        assert value.dtype == fallback[name].dtype and value.shape == fallback[name].shape
        assert value.tobytes() == fallback[name].tobytes(), name


def test_tracer_installs_on_the_package(tmp_path):
    """perfbench/tracer.py installs on the package, whose solvers resolve
    scipy.sparse.linalg as spla only when asked, and a traced tensor p = 3
    solve at resolution 8 exits 0 with its spans recorded."""
    config = tmp_path / "s.cfg"
    config.write_text("command = solve\n[problem]\nmode = tensor2d\nresolution = 8\np = 3.0\n"
                      "weight = power\ntheta_w = 1.0\nt_end = 0.01\ndt0 = 1e-3\n")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "import tracer\n"
        "from degenflow import cli, eigensolver, timestepper\n"
        "spans = tracer.Tracer()\n"
        "tracer.install(spans)\n"
        f"status = cli.main(['solve', '--config', {str(config)!r}, '--out', "
        f"{str(tmp_path / 'out')!r}])\n"
        "assert timestepper.spla.splu and eigensolver.spla.factorized\n"
        "print(status, len(spans.spans))\n"
    )
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, check=True)
    status, spans = out.stdout.split()
    assert status == "0" and int(spans) > 0
    assert (tmp_path / "out" / "outcome.json").exists()
