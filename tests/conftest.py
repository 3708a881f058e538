import pytest

from nilcoh.restricted import build_algebra, ext_dims
from nilcoh.rootsystem import build
from nilcoh.weyl import enumerate_group


@pytest.fixture(scope="session")
def b2_p5():
    """The B2 p=5 algebra and its resolution through degree 4, shared by
    the tests that only read them."""
    rs = build("B2")
    g = enumerate_group(rs)
    alg = build_algebra((), 5, rs)
    gc, res = ext_dims(alg, 4)
    return rs, g, alg, gc, res
