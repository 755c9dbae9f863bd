import pathlib

import pytest

from homleib.definitions import build_algebra, build_operator, parse_definition
from homleib.structure import current_algebra, virasoro

DEFS = pathlib.Path(__file__).resolve().parent.parent / "defs"


def _algebra_with_q(name):
    """The algebra and the operator Q of a definition file under defs/."""
    file = parse_definition((DEFS / f"{name}.def").read_text(encoding="utf-8"))
    return build_algebra(file), build_operator(file, "Q")


@pytest.fixture(scope="session")
def vir():
    return virasoro()


@pytest.fixture(scope="session")
def cur2():
    # rank-2 current algebra: single product e2*e2 = e1, identity twist
    return current_algebra(2, {(1, 1): (1, 0)}, [[1, 0], [0, 1]])


@pytest.fixture(scope="session")
def twisted2():
    # same product, unipotent twist: exercises the alpha powers in every
    # formula (the other fixtures all carry the identity twist)
    return current_algebra(2, {(1, 1): (1, 0)}, [[1, 1], [0, 1]])


@pytest.fixture(scope="session")
def virm1_r2():
    # Virasoro plus one weight-1 module, twisted by L -> L + (5D + 1/3) M1:
    # a twist that depends on D, with its square-zero operator Q
    return _algebra_with_q("virm1_r2")


@pytest.fixture(scope="session")
def trunc_r3():
    # Virasoro tensor C[t]/t^3, twisted by t -> t + t^2/3, with its operator Q
    return _algebra_with_q("trunc_r3")
