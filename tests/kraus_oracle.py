"""Reference construction of a lifted channel, for the tests only.

kron_lift forms all |K|^n Kronecker products of a single-qubit Kraus set
as one explicit channel on the 2^n-dimensional register, which is the
textbook definition the package's factor-by-factor kernel must reproduce.
Its size grows as 4^n matrices of 2^n x 2^n, so keep n <= 4.

identity_channel is the trivial channel {I} that the tests compose, lift
and transform with.
"""

from itertools import product

import numpy as np

from vcsqse.channels import KrausChannel

ORACLE_QUBIT_LIMIT = 4


def identity_channel(dim: int = 2) -> KrausChannel:
    """The one-operator channel {I} on a dim-dimensional system."""
    return KrausChannel([np.eye(dim, dtype=complex)], label="identity")


def kron_lift(per_qubit: KrausChannel, n: int) -> KrausChannel:
    """Explicit one-factor channel with every product K_{n-1} x ... x K_0."""
    if per_qubit.dim != 2 or not 1 <= n <= ORACLE_QUBIT_LIMIT:
        raise ValueError("the Kronecker oracle takes a single-qubit set and n <= 4")
    ops = []
    # Factor for qubit n-1 first so bit i of the index is qubit i.
    for combo in product(per_qubit.kraus_ops, repeat=n):
        mat = np.array([[1.0 + 0.0j]])
        for k in reversed(combo):
            mat = np.kron(mat, k)
        ops.append(mat)
    return KrausChannel(ops, label=f"{per_qubit.label}^kron{n}")
