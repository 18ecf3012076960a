"""Test oracle: is a fully populated stripe a codeword of its code?"""

import numpy as np


def is_codeword(code, stripe) -> bool:
    """True when every block equals the code's encoding of the data blocks
    (works for any code with ``n``, ``k``, ``width`` and ``encode``)."""
    assert (stripe.n, stripe.k) == (code.n, code.k), "stripe shape does not match code"
    expected = code.encode([stripe.get_payload(i) for i in range(code.n)])
    return all(np.array_equal(expected[b], stripe.get_payload(b)) for b in range(code.width))
