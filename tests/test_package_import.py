"""What ``import besovlab`` loads, each case in a fresh interpreter.

The analytic models need numpy and two compiled routines, HiGHS and LAPACK's
gelsy, which are loaded by their extension files; only meshes need scipy's
sparse and dense linear algebra, so the package imports its mesh module on
first use.
"""

SCIPY = ("scipy", "scipy.linalg", "scipy.optimize", "scipy.sparse", "scipy.special")
LOADED = f"print([m for m in {SCIPY!r} if m in sys.modules])"


def test_import_loads_no_scipy(fresh_python):
    assert fresh_python(f"import sys, besovlab; {LOADED}") == "[]"


def test_circle_solves_load_no_scipy(fresh_python):
    code = f"""
import sys
import numpy as np
import besovlab as bl

model = bl.build_circle(256)
es = bl.build_eigensystem(model, 1000.0)
f = bl.GridFunction(model, np.sign(np.sin(model.nodes[:, 0])))
for p, solver in ((1.0, "lp-highs"), (1.5, "irls"), (np.inf, "lp-highs")):
    res = bl.best_approx(model, es, f, 16.0, p)
    assert res.solver == solver and res.converged, res
{LOADED}
"""
    assert fresh_python(code) == "[]"


def test_mesh_names_load_the_mesh_module_on_first_use(fresh_python):
    code = """
import sys
import besovlab
assert "besovlab.mesh" not in sys.modules
verts, faces = besovlab.icosphere(1)
assert (len(verts), len(faces)) == (42, 80)
assert "besovlab.mesh" in sys.modules
from besovlab import MeshFormatError, load_mesh, write_off
from besovlab.mesh import icosphere
assert besovlab.icosphere is icosphere and issubclass(MeshFormatError, ValueError)
try:
    besovlab.no_such_name
except AttributeError as exc:
    print(exc)
"""
    assert fresh_python(code) == "module 'besovlab' has no attribute 'no_such_name'"
