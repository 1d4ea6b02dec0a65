"""The inner angle never acquires a momentum in the expanded Lagrangian.

Order by order, the expansion density depends on the inner corrections only
algebraically (no phi-prime of the same order survives), which is what makes
them slaved rather than dynamical. This demo evaluates that statement on
random smooth fields, then confirms that solving the resulting algebraic
identities reproduces the closed-form corrections on the kink branch.

Run:  python3 demos/06_auxiliary_field.py
"""
import numpy as np

from pendulon import (ConfiningPotential, ExpansionParams, auxiliary_check,
                      el_identities, slaving_consistency, smooth_sample)
from pendulon.perturbation import kink_grid

p = ExpansionParams(A=1.0, Mhat=1.0, Khat=1.0, g=1.0,
                    r1=0.4, r2=0.1, m1=0.5, m2=0.2, k1=0.3, k2=0.1,
                    v0=0.3, v1=0.1,
                    h_spec=ConfiningPotential(family="quadratic", c2=2.0))
z = np.linspace(-8.0, 8.0, 257)

worst = {0: 0.0, 1: 0.0, 2: 0.0}
worst_el = 0.0
for seed in range(25):
    sample = smooth_sample(p, z, seed=seed)
    for order in worst:
        worst[order] = max(worst[order], auxiliary_check(sample, order))
    e10, e21, _ = el_identities(sample)
    worst_el = max(worst_el, float(np.max(np.abs(e10 - e21))))

print("momentum-of-inner-angle checks over 25 random smooth samples")
for order, val in worst.items():
    print(f"  order {order}: max |dL{order}/dphi{order}'| = {val:.2e}")
print(f"two derivations of the same identity agree to {worst_el:.2e}")
print()

rep = slaving_consistency(p, kink_grid(p, n_points=2001,
                                      half_width_factor=25.0))
print("slaving on the kink branch (h'(0) = {:.1f}):".format(rep["h_prime_at_0"]))
print(f"  phi1 from the order-1 identity vs closed form: "
      f"{rep['phi1_from_E10_max_abs_diff']:.2e} "
      f"(scale {rep['phi1_scale']:.2e})")
print(f"  phi2 from the order-2 identity vs closed form: "
      f"{rep['phi2_from_E20_rel_max_diff']:.2e} relative")
