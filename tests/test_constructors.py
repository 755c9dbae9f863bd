"""Every constructor of a shaped object refuses a malformed shape.

One table: per constructor, a key out of range, a vector of the wrong
length, a variable the object may not use and a wrong arity, where each
applies, with the exception type and message it raises.  The deformation
cases cover the bracket table of every order, not only the base one.
"""

import pytest

from homleib.cohomology import Cochain, HNLAPair
from homleib.deformation import DeformationData
from homleib.ns import NSAlgebra, TwistedRBData
from homleib.poly import MultiPoly, parse_poly
from homleib.representation import Representation, adjoint_rep
from homleib.structure import ConformalAlgebra, DimensionError, PdModuleMap, virasoro

ONE, ID1, ID2 = MultiPoly.const(1), PdModuleMap.identity(1), PdModuleMap.identity(2)
VIR = virasoro()
L1, X = parse_poly("l1"), parse_poly("x")


def _cochain(arity, table=None, rep_rank=1):
    return Cochain(arity, 1, rep_rank, table or {})


def _deformation(*orders, operators=(ID1, ID1)):
    return DeformationData(VIR, (VIR.structure, *orders), operators)


def _twisted_rb(rep=adjoint_rep(VIR), t_map=ID1, phi=_cochain(2)):
    return TwistedRBData(VIR, rep, t_map, phi)


CASES = {
    # ConformalAlgebra
    "algebra key": (lambda: ConformalAlgebra(1, ("L",), {(0, 1): (ONE,)}, ID1),
                    DimensionError, "bad structure entry at (0, 1)"),
    "algebra length": (lambda: ConformalAlgebra(1, ("L",), {(0, 0): (ONE, ONE)}, ID1),
                       DimensionError, "bad structure entry at (0, 0)"),
    "algebra variable": (lambda: ConformalAlgebra(1, ("L",), {(0, 0): (L1,)}, ID1),
                         ValueError, "structure polynomial at (0, 0) uses a forbidden variable"),
    "algebra arity": (lambda: ConformalAlgebra(1, ("L",), {(0,): (ONE,)}, ID1),
                      DimensionError, "bad structure entry at (0,)"),
    "algebra names": (lambda: ConformalAlgebra(1, ("L", "M"), {}, ID1),
                      DimensionError, "basis names do not match rank"),
    # Representation
    "representation key": (lambda: Representation(1, 2, {(1, 0): (ONE, ONE)}, {}, ID2),
                           DimensionError, "bad l_structure entry at (1, 0)"),
    "representation length": (lambda: Representation(1, 2, {}, {(1, 0): (ONE,)}, ID2),
                              DimensionError, "bad r_structure entry at (1, 0)"),
    "representation variable": (lambda: Representation(1, 1, {}, {(0, 0): (L1,)}, ID1),
                                ValueError, "r_structure polynomial at (0, 0) uses a forbidden variable"),
    "representation arity": (lambda: Representation(1, 1, {(0, 0, 0): (ONE,)}, {}, ID1),
                             DimensionError, "bad l_structure entry at (0, 0, 0)"),
    "representation names": (lambda: Representation(1, 2, {}, {}, ID2, basis_names=("m",)),
                             DimensionError, "module basis names do not match module rank"),
    # NSAlgebra
    "ns key": (lambda: NSAlgebra(1, ("a",), {}, {(0, 1): (ONE,)}, {}, ID1),
               DimensionError, "bad right entry at (0, 1)"),
    "ns length": (lambda: NSAlgebra(1, ("a",), {(0, 0): (ONE, ONE)}, {}, {}, ID1),
                  DimensionError, "bad left entry at (0, 0)"),
    "ns variable": (lambda: NSAlgebra(1, ("a",), {}, {}, {(0, 0): (L1,)}, ID1),
                    ValueError, "vee polynomial at (0, 0) uses a forbidden variable"),
    "ns arity": (lambda: NSAlgebra(1, ("a",), {}, {}, {(0,): (ONE,)}, ID1),
                 DimensionError, "bad vee entry at (0,)"),
    "ns names": (lambda: NSAlgebra(1, ("a", "b"), {}, {}, {}, ID1),
                 DimensionError, "basis names do not match rank"),
    # Cochain
    "cochain key": (lambda: _cochain(1, {(1,): (ONE,)}), DimensionError, "bad cochain entry at (1,)"),
    "cochain length": (lambda: _cochain(1, {(0,): (ONE,)}, rep_rank=2), DimensionError, "bad cochain entry at (0,)"),
    "cochain variable": (lambda: _cochain(2, {(0, 0): (X,)}),
                         ValueError, "cochain value at (0, 0) uses a variable outside D, l1..l1"),
    "cochain arity": (lambda: _cochain(1, {(0, 0): (ONE,)}), DimensionError, "bad cochain entry at (0, 0)"),
    "cochain arity 0": (lambda: _cochain(0), ValueError, "cochains start at arity 1"),
    # HNLAPair
    "pair arity": (lambda: HNLAPair(_cochain(3), _cochain(1)), DimensionError, "pair arities must differ by one"),
    "pair lower": (lambda: HNLAPair(_cochain(2), None),
                   DimensionError, "missing lower component only allowed at arity 1"),
    "pair length": (lambda: HNLAPair(_cochain(2), _cochain(1, rep_rank=2)),
                    DimensionError, "pair components live over different ranks"),
    # DeformationData, its bracket table of every order
    "deformation empty": (lambda: DeformationData(VIR, (), (ID1,)),
                          ValueError, "a deformation needs at least the order-0 data"),
    "deformation base": (lambda: DeformationData(VIR, ({},), (ID1,)),
                         ValueError, "order-0 bracket must be the base structure"),
    "deformation key 0": (lambda: DeformationData(VIR, ({**VIR.structure, (5, 0): (MultiPoly.zero(),)},), (ID1,)),
                          DimensionError, "bad order-0 bracket entry at (5, 0)"),
    # an order-1 key out of range used to be dropped unseen, and the
    # order-1 check then passed on a table it never read
    "deformation key 1": (lambda: _deformation({(5, 0): (ONE,)}), DimensionError, "bad order-1 bracket entry at (5, 0)"),
    "deformation key 2": (lambda: _deformation({}, {(0, 1): (ONE,)}),
                          DimensionError, "bad order-2 bracket entry at (0, 1)"),
    "deformation length": (lambda: _deformation({(0, 0): (ONE, ONE)}),
                           DimensionError, "bad order-1 bracket entry at (0, 0)"),
    "deformation variable": (lambda: _deformation({(0, 0): (L1,)}),
                             ValueError, "order-1 bracket polynomial at (0, 0) uses a forbidden variable"),
    "deformation arity": (lambda: _deformation({(0, 0, 0): (ONE,)}),
                          DimensionError, "bad order-1 bracket entry at (0, 0, 0)"),
    "deformation operator": (lambda: _deformation(operators=(ID1, ID2)),
                             DimensionError, "operator order has wrong shape"),
    # TwistedRBData
    "twisted rb representation": (lambda: _twisted_rb(rep=Representation(2, 1, {}, {}, ID1)),
                                  DimensionError, "representation is over a different algebra"),
    "twisted rb map": (lambda: _twisted_rb(t_map=PdModuleMap.zero(1, 2)),
                       DimensionError, "t_map must send the module into the algebra"),
    "twisted rb arity": (lambda: _twisted_rb(phi=_cochain(1)),
                         DimensionError, "phi must be an arity-2 cochain into the module"),
    "twisted rb length": (lambda: _twisted_rb(phi=_cochain(2, rep_rank=2)),
                          DimensionError, "phi must be an arity-2 cochain into the module"),
}


@pytest.mark.parametrize("build, error, message", CASES.values(), ids=CASES.keys())
def test_constructors_refuse_malformed_shapes(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


def test_well_shaped_objects_still_construct():
    rep = Representation(1, 2, {(0, 1): (ONE, X)}, {(1, 0): (ONE, ONE)}, ID2, basis_names=("m", "n"))
    assert rep.l_structure and rep.r_structure
    assert NSAlgebra(1, ("a",), {(0, 0): (ONE,)}, {}, {}, ID1).left
    assert _deformation({(0, 0): (X,)}, {}).order == 2
    assert HNLAPair(_cochain(2, {(0, 0): (L1,)}), _cochain(1)).f.table
    assert _twisted_rb().phi.arity == 2
