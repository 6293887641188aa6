#!/usr/bin/env python3
"""Non-equilibrium phase diagram on a coarse (lambda, delta_phi) grid.

Each cell holds the time-averaged scaled photon number of a driven
nearly-Fock run; cells are classified zero/nonzero and printed as an ASCII
map together with the rotated critical line and the dynamical fit overlays.
Production grids (step 0.01, n_revolutions 150) go through the CLI:

    rotdicke phase-diagram --engine meanfield --initial nearly_fock \
        --lambda-min 0.2 --lambda-max 1.4 --lambda-step 0.01 \
        --delta-phi-min 0.25 --delta-phi-max 4.0 --delta-phi-step 0.05 \
        --out phase_diagram.csv
"""

import pathlib

import numpy as np

from rotdicke import ModelParams, ProtocolSpec, emit, phase_diagram

out_dir = pathlib.Path("out")
out_dir.mkdir(exist_ok=True)

spec = ProtocolSpec(
    params=ModelParams(lam=1.0, omega0=1.0, omega=1.0, j=1.0, delta_phi=1.0),
    engine="meanfield",
    initial="nearly_fock",
    epsilon=3.0,
    driven=True,
    n_revolutions=30,
    sample_count=1200,
    observables=("mean_photon_scaled",),
    rtol=1e-9,
)
lam_values = np.round(np.arange(0.3, 1.31, 0.1), 10)
dphi_values = np.round(np.arange(0.5, 3.51, 0.5), 10)
result = phase_diagram(spec, lam_values, dphi_values)

print("rows: lambda (down), columns: delta_phi (right); '#' nonzero, '.' zero")
header = "        " + "".join(f"{d:6.2f}" for d in dphi_values)
print(header)
# Cells run lambda major, delta_phi minor; each carries its region tag.
rows = np.reshape(result.cells, (len(lam_values), len(dphi_values)))
for lam, row in zip(lam_values, rows):
    cells = "".join("     #" if cell.region == "nonzero" else "     ." for cell in row)
    print(f"{lam:6.2f}  {cells}")
print("\nrotated critical coupling per velocity:",
      np.round(result.overlays["lambda_c_rot"], 3))
print("dynamical critical fit per velocity:   ",
      np.round(result.overlays["lambda_c_dyn"], 3))
emit(result, "csv", out_dir / "phase_diagram_coarse.csv")
print(f"wrote {out_dir}/phase_diagram_coarse.csv")
