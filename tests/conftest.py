import pytest

from nilcoh.restricted import build_algebra, ext_dims
from nilcoh.rootsystem import build
from nilcoh.weyl import enumerate_group


def mat_mul(a, b):
    """The product of two square integer matrices, each a tuple of rows."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col))
                       for col in zip(*b)) for row in a)


def times(g, *factors):
    """The product of `factors` in the Weyl group g, found through
    `g.by_matrix`.  An int i stands for the simple reflection s_i, whose
    matrix has the columns s_i e_j (`RootSystem.reflect`); anything else
    is an element of g."""
    m = g.identity.matrix
    for f in factors:
        if isinstance(f, int):
            f = tuple(zip(*(g.rs.reflect(e, f) for e in g.identity.matrix)))
        else:
            f = f.matrix
        m = mat_mul(m, f)
    return g.by_matrix[m]


@pytest.fixture(scope="session", autouse=True)
def weyl_cache_dir(tmp_path_factory):
    """Weyl caches go to a fresh directory for the session (and to the
    subprocesses the tests start), never to the checkout's .nilcoh-cache/,
    so no file left by an earlier build decides between load and enumerate."""
    path = tmp_path_factory.mktemp("nilcoh-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("NILCOH_CACHE", str(path))
        yield path


@pytest.fixture(scope="session")
def b2_p5():
    """The B2 p=5 algebra and its resolution through degree 4, shared by
    the tests that only read them."""
    rs = build("B2")
    g = enumerate_group(rs)
    alg = build_algebra((), 5, rs)
    gc, res = ext_dims(alg, 4)
    return rs, g, alg, gc, res
