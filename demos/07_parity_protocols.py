#!/usr/bin/env python3
"""Parity as a topological marker of the driven transition.

Finite-size runs conserve <Pi> exactly ([H, Pi] = 0): from the Fock state it
stays pinned at +1 for every coupling.  The mean-field (thermodynamic-limit)
parity of the stationary Dicke state instead drops from 1 toward 0 once the
coupling crosses lambda_c, tending to a step function.
"""

import numpy as np

from rotdicke import ModelParams, ProtocolSpec, run_protocol

print("finite size, Fock start: parity along 2 revolutions")
for lam in (0.3, 0.7, 1.1):
    spec = ProtocolSpec(
        params=ModelParams(lam=lam, j=4.0, delta_phi=1.0, n_max=100),
        engine="quantum",
        initial="fock",
        driven=True,
        n_revolutions=2,
        sample_count=150,
        observables=("parity",),
    )
    col = run_protocol(spec).data["parity"]
    print(f"  lambda={lam}: <Pi> in [{col.min():.12f}, {col.max():.12f}]")

print("\nthermodynamic limit, stationary Dicke state: initial parity vs coupling")
for lam in np.arange(0.3, 1.31, 0.2):
    lam = round(float(lam), 10)
    spec = ProtocolSpec(
        params=ModelParams(lam=lam, j=10.0, delta_phi=1.0),
        engine="meanfield",
        initial="stationary_dicke",
        sample_count=2,
        observables=("parity",),
    )
    parity = run_protocol(spec).data["parity"][0]
    print(f"  lambda={lam:4.2f}: parity = {parity:.6f}")
