"""A kink travelling on the discrete chain.

Seeds the lattice with a sampled travelling kink, integrates with fixed-step
RK4, and measures how rigidly it moved and how well energy was kept.

Run:  python3 demos/02_lattice_kink.py
"""
import numpy as np

from pendulon import ChainParams, ConfiningPotential, energy_drift
from pendulon.lattice import (kink_center, moving_kink_state, simulate,
                              total_energy)

delta = 0.1
params = ChainParams(M=1.0, m=0.0, R=1.0, r=0.0, kappa_t=0.0,
                     kappa_s=1.0 / delta**2, g=1.0, delta=delta,
                     h_spec=ConfiningPotential())

v = 0.5
k = 1.0 / np.sqrt(1.0 - v**2)  # subsonic width: contracts with speed
n = 400

state = moving_kink_state(params, k, v, n)
t_end = 2.0
snaps = simulate(state, t_end, dt=5e-3, params=params, snapshot_every=80)

x0 = kink_center(snaps[0], params)
print(f"sites {n}, spacing {delta}, speed {v}, width 1/k = {1/k:.4f}")
print(f"initial kink center x = {x0:.4f}")
print()
print("   t     center     center - (x0 + v t)")
for snap in snaps:
    c = kink_center(snap, params)
    print(f"{snap.t:5.2f}  {c:9.4f}   {c - (x0 + v * snap.t):+.2e}")
print()
print(f"energy drift over the snapshots: "
      f"{energy_drift([total_energy(s, params) for s in snaps]):.3e}")
print(f"winding number held at "
      f"{round(float(snaps[-1].theta[-1] - snaps[-1].theta[0]) / (2 * np.pi))}")
