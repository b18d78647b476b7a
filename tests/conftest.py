import pytest

from solvgraph import cli, liealg


@pytest.fixture(scope="session")
def load_once():
    """cli.load_algebra memoized for the session, keyed by the parsed spec.

    Only for tests that compare output, so that an algebra several of them
    read, such as so4@3 or sl3@2, classifies its planes once.  Tests that
    count closures, series, brackets or quotients, patch the cap, or read
    the cache slots load fresh algebras."""
    memo, load = {}, cli.load_algebra

    def load_shared(spec):
        if spec not in memo:
            memo[spec] = load(spec)
        return memo[spec]
    return load_shared


@pytest.fixture
def main_loads_once(monkeypatch, load_once):
    """cli.main loads its algebra through the session memo."""
    monkeypatch.setattr(cli, "load_algebra", load_once)


@pytest.fixture(scope="session")
def sl2_2():
    return liealg.make_sl(2, 2)


@pytest.fixture(scope="session")
def sl2_3():
    return liealg.make_sl(2, 3)


@pytest.fixture(scope="session")
def sl2_5():
    return liealg.make_sl(2, 5)


@pytest.fixture(scope="session")
def gl2_2():
    return liealg.make_gl(2, 2)


@pytest.fixture(scope="session")
def gl2_3():
    return liealg.make_gl(2, 3)


@pytest.fixture(scope="session")
def t2_3():
    return liealg.make_t(2, 3)


@pytest.fixture(scope="session")
def w3():
    return liealg.make_w3(2)


def _file_algebra(tmp_path_factory, name, text):
    path = tmp_path_factory.mktemp("algebras") / f"{name}.txt"
    path.write_text(text)
    return liealg.from_file(path)


@pytest.fixture(scope="session")
def zero_file(tmp_path_factory):
    """The 0-dimensional algebra over F_3, loaded from a structure-constants file."""
    return _file_algebra(tmp_path_factory, "zero", "p 3\ndim 0\n")


@pytest.fixture(scope="session")
def abelian_file(tmp_path_factory):
    """The abelian 3-dimensional algebra over F_3, loaded from a file with no entries."""
    return _file_algebra(tmp_path_factory, "abelian", "p 3\ndim 3\n")
