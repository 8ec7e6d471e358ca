import pytest

from ringlab.constructions import make_zn, matrix_ring, upper_triangular_ring, ks_ring
from ringlab.suite import build_corpus, run_theorem_suite


@pytest.fixture(scope="session")
def zn():
    return {k: make_zn(k) for k in range(1, 10)}


@pytest.fixture(scope="session")
def m2z2(zn):
    return matrix_ring(2, zn[2])


@pytest.fixture(scope="session")
def m2z3(zn):
    return matrix_ring(2, zn[3])


@pytest.fixture(scope="session")
def m2z4(zn):
    return matrix_ring(2, zn[4])


@pytest.fixture(scope="session")
def t2z2(zn):
    return upper_triangular_ring(2, zn[2])


@pytest.fixture(scope="session")
def k0z2(zn):
    return ks_ring(zn[2], 0)


@pytest.fixture(scope="session")
def k0z4(zn):
    return ks_ring(zn[4], 0)


@pytest.fixture(scope="session")
def default_corpus():
    spec, members = build_corpus("default")
    return spec, members


@pytest.fixture(scope="session")
def suite_report(default_corpus):
    spec, members = default_corpus
    return run_theorem_suite(members, spec)
