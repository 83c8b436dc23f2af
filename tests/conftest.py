import math

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

PI = math.pi


@pytest.fixture(scope="session")
def bcr():
    from hardyconst import beta_critical

    return beta_critical()


@pytest.fixture(scope="session")
def sol_2pi():
    from hardyconst import solve_c_beta

    return solve_c_beta(2.0 * PI)


@pytest.fixture(scope="session")
def lshape_vertices():
    # unit square with its top-right quadrant notched out; reflex 3pi/2 at (1/2, 1/2)
    return [(0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.5, 0.5), (0.5, 1.0), (0.0, 1.0)]


@pytest.fixture(scope="session")
def slitlike_vertices():
    # deep thin notch: reflex 1.9 pi at the origin, both adjacent angles 0.9 pi
    import numpy as np

    sigma = 0.05 * PI
    gp = 0.9 * PI
    d_out = sigma + PI - gp
    a = (math.cos(sigma), math.sin(sigma))
    b = (a[0] + 1.2 * math.cos(d_out), a[1] + 1.2 * math.sin(d_out))
    cap = [(3 * math.cos(t), 3 * math.sin(t)) for t in np.deg2rad([60, 120, 180, 240, 300])]
    return [(0.0, 0.0), a, b] + cap + [(b[0], -b[1]), (a[0], -a[1])]


@pytest.fixture(scope="session")
def notched_disk_vertices():
    # 5,000 vertices on the unit circle and one notch vertex at (1/2, 0):
    # one reflex angle of about 1.8 pi, 5,001 vertices in all
    import numpy as np

    t = np.linspace(0.05 * PI, 1.95 * PI, 5000)
    return [(0.5, 0.0)] + [(math.cos(a), math.sin(a)) for a in t]


@pytest.fixture
def break_solver(monkeypatch):
    """Make one scipy solver fail: "eigsh" stops without converging, "splu" finds A singular."""
    import numpy as np
    import scipy.sparse.linalg as spla

    def eigsh(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK stopped", np.empty(0), np.empty((0, 0)))

    def splu(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    def apply(name):
        monkeypatch.setattr(spla, name, {"eigsh": eigsh, "splu": splu}[name])

    return apply
