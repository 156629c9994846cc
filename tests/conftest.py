import os
import subprocess
import sys

import numpy as np
import pytest

import besovlab
from besovlab.manifold import build_circle, build_sphere2, build_torus2
from besovlab.mesh import icosphere, load_mesh, write_off
from besovlab.spectrum import build_eigensystem


@pytest.fixture(scope="session")
def circle1024():
    return build_circle(1024)


@pytest.fixture(scope="session")
def circle1024_es(circle1024):
    return build_eigensystem(circle1024, 400.0)


@pytest.fixture(scope="session")
def circle512():
    return build_circle(512)


@pytest.fixture(scope="session")
def circle512_es(circle512):
    # full resolvable band: frequencies up to 255
    return build_eigensystem(circle512, 65025.0)


@pytest.fixture(scope="session")
def circle512_es_1024(circle512):
    return build_eigensystem(circle512, 1024.0)


@pytest.fixture(scope="session")
def circle2048():
    return build_circle(2048)


@pytest.fixture(scope="session")
def circle2048_es(circle2048):
    # covers lacunary frequencies up to 2^8 (lambda = 65536)
    return build_eigensystem(circle2048, 70000.0)


@pytest.fixture(scope="session")
def circle4096():
    return build_circle(4096)


@pytest.fixture(scope="session")
def circle4096_es(circle4096):
    return build_eigensystem(circle4096, 4100.0)


@pytest.fixture(scope="session")
def sphere16():
    return build_sphere2(16)


@pytest.fixture(scope="session")
def sphere16_es(sphere16):
    return build_eigensystem(sphere16, 16.0 * 17.0)


@pytest.fixture(scope="session")
def torus16():
    return build_torus2(16)


@pytest.fixture(scope="session")
def torus16_es(torus16):
    # frequencies up to 7 per axis: the largest band 16 nodes resolve
    return build_eigensystem(torus16, 49.0)


@pytest.fixture(scope="session")
def icosphere3_path(tmp_path_factory):
    verts, faces = icosphere(3)
    path = tmp_path_factory.mktemp("meshes") / "icosphere3.off"
    write_off(path, verts, faces)
    return path


@pytest.fixture(scope="session")
def icosphere3(icosphere3_path):
    return load_mesh(icosphere3_path)


@pytest.fixture(scope="session")
def icosphere3_es(icosphere3):
    return build_eigensystem(icosphere3, 30.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def fresh_python():
    """Run code in a new interpreter that imports this besovlab; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(besovlab.__file__)),
         os.environ.get("PYTHONPATH", "")]))

    def run(code):
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()
    return run
