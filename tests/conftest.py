import numpy as np
import pytest

from finsler_sharp import pde
from finsler_sharp.manifold import euclidean_instance, f_eps_instance, minkowski_instance
from finsler_sharp.norms import lp_norm, normalize


def _on_pinned_build():
    import platform

    import scipy

    if (platform.machine(), np.__version__, scipy.__version__) != ("x86_64", "2.4.6", "1.17.1"):
        return False
    from numpy._core._multiarray_umath import __cpu_features__  # numpy 2.4's SIMD dispatch table

    return bool(__cpu_features__.get("AVX512_SKX"))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "pinned_build: pins result bits of x86-64 (AVX-512) numpy 2.4.6 and scipy 1.17.1; "
        "skipped on other builds")


def pytest_runtest_setup(item):
    if item.get_closest_marker("pinned_build") is not None and not _on_pinned_build():
        pytest.skip("bits pinned on another build")


@pytest.fixture(autouse=True)
def cold_unit_eigen_shots():
    """Every test starts and ends with no cached lam = 1 eigen shot, so a test
    that spies on the shots sees its own, and a shot from a planted route
    reaches no later test."""
    pde._unit_eigen_shot.cache_clear()
    yield
    pde._unit_eigen_shot.cache_clear()


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


@pytest.fixture(scope="session")
def feps3():
    return f_eps_instance(3, 1.0, normalize=True)


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
