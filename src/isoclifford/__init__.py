"""Clifford algebras Cl(p,q), their isotopic liftings, and applications:
octonions on Cl(0,7) paravectors, su(n) generators inside Cl(2n,0) and
Cl(1,3;C), a 4x4 spacetime-algebra representation, and the diagonal
isounits that make the quark flavor symmetry exact in isospace.

The names live in the submodules (``isoclifford.multivector``,
``isotopy``, ``octonion``, ``lie_su``, ``dirac``, ``flavor``); importing
the package loads none of them, so a command loads only what it runs.
"""

__version__ = "0.1.0"


class AlgebraError(Exception):
    """Base class for algebra-level failures."""
