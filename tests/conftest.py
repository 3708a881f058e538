import pytest

from nilcoh.restricted import build_algebra, ext_dims
from nilcoh.rootsystem import build
from nilcoh.weyl import enumerate_group


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
