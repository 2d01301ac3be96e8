"""Exact comparison of multivector terms, shared by the test modules.

``bits(x)`` lists the terms of ``x`` in order, each as its blade mask and
the ``float.hex`` of both coefficient components, so two elements compare
equal only with the same blades in the same order and the same bits,
down to the sign of a zero.
"""


def bits(terms) -> list:
    """``(mask, real.hex(), imag.hex())`` for each ``(mask, coefficient)``
    of ``terms`` (a ``Multivector`` or any iterable of pairs), in order;
    the masks must be ``int`` and the coefficients ``complex``."""
    out = []
    for mask, c in terms:
        assert type(mask) is int and type(c) is complex, (mask, c)
        out.append((mask, c.real.hex(), c.imag.hex()))
    return out
