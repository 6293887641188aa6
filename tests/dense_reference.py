"""Dense Hamiltonian reference built from single-mode matrices with np.kron.

Independent of the library's matrix-free operator: the spin and field
ladders are written out here, and the product basis is m-major, n-minor
by the order of the Kronecker factors.
"""

import math

import numpy as np


def kron_hamiltonian(j, n_max, lam, omega0_eff, omega=1.0):
    """Dense H = omega0_eff J_z + omega a^dag a + lam/sqrt(2j) (J_+ + J_-)(a + a^dag),
    built from the single-mode matrices with np.kron."""
    two_j = int(round(2 * j))
    m = np.arange(two_j + 1) - j
    jp = np.diag(np.sqrt((j - m[:-1]) * (j + m[:-1] + 1)), k=-1)
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)), k=1)
    eye_s, eye_f = np.eye(two_j + 1), np.eye(n_max + 1)
    return (
        omega0_eff * np.kron(np.diag(m), eye_f)
        + omega * np.kron(eye_s, np.diag(np.arange(n_max + 1.0)))
        + lam / math.sqrt(2 * j) * np.kron(jp + jp.T, a + a.T)
    )
