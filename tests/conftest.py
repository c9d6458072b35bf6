import numpy as np
import pytest

from finsler_sharp.manifold import euclidean_instance, f_eps_instance, minkowski_instance
from finsler_sharp.norms import lp_norm, normalize


@pytest.fixture(scope="session")
def e2():
    return euclidean_instance(2)


@pytest.fixture(scope="session")
def e3():
    return euclidean_instance(3)


@pytest.fixture(scope="session")
def e4():
    return euclidean_instance(4)


@pytest.fixture(scope="session")
def l4_2():
    """Normalized ell^4 Minkowski instance in the plane."""
    return minkowski_instance(normalize(lp_norm(2, 4.0)))


@pytest.fixture(scope="session")
def l4_3():
    return minkowski_instance(normalize(lp_norm(3, 4.0)))


@pytest.fixture(scope="session")
def feps2():
    return f_eps_instance(2, 1.0, normalize=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20210817)


@pytest.fixture
def block_hits(monkeypatch):
    """spy(module) makes module's box_volume append each block's hit count
    to the list it returns."""

    def spy(module):
        seen = []
        real = module.box_volume

        def counted(inside, *args):
            def counting_inside(pts):
                mask = inside(pts)
                seen.append(int(np.count_nonzero(mask)))
                return mask

            return real(counting_inside, *args)

        monkeypatch.setattr(module, "box_volume", counted)
        return seen

    return spy
