"""Field evolution of the same kink, method of lines.

Compares the evolved field against the rigidly translated initial profile and
tracks the conserved quantities.

Run:  python3 demos/03_continuum_pde.py
"""
import numpy as np

from pendulon import ChainParams, ConfiningPotential, energy_drift
from pendulon.continuum import (energy_total, evolve, kink_field_grid,
                                topological_charge)

params = ChainParams(M=1.0, m=0.0, R=1.0, r=0.0, kappa_t=0.0, kappa_s=100.0,
                     g=1.0, delta=0.1, h_spec=ConfiningPotential())

v = 0.5
k = 1.0 / np.sqrt(1.0 - v**2)
x = np.linspace(0.0, 40.0, 801)
grid = kink_field_grid(params, k, v, x)

t_end = 4.0
snaps = evolve(grid, t_end, dt=0.01, params=params, snapshot_every=100)

print(f"domain [0, 40], {x.size} points, kink speed {v}")
print(f"charge at t = 0: {topological_charge(snaps[0])}")
print()
print("   t    energy        |Theta - translated profile|_inf")
energies = [energy_total(s, params) for s in snaps]
for s, E in zip(snaps, energies):
    ref = kink_field_grid(params, k, v, x, center=0.5 * (x[0] + x[-1]) + v * s.t)
    gap = np.max(np.abs(s.Theta - ref.Theta))
    print(f"{s.t:5.2f}  {E:.8f}   {gap:.3e}")
print()
drift = energy_drift(energies)
print(f"energy drift, max |E - E0| / (|E0| + 1): {drift:.3e}")
print(f"charge at t = {t_end}: {topological_charge(snaps[-1])}")
