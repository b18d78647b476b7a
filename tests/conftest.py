import pytest

from solvgraph import liealg


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
