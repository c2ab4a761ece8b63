"""Scaling paths converge to projective laminations.

Drive a path by a lamination mu: curves crossed by mu grow like
e^t i(mu, .), leaves of mu decay super-exponentially, everything else holds.
Every curve and arc length then satisfies the sandwich

    e^t i(mu, a) - C  <=  l_a(X_t)  <=  e^t i(mu, a) + C_a,

so the projective length vector converges to the intersection vector of mu:
the path leaves every compact set and lands on the Thurston boundary.
"""

import math

from arcmetric import (boundary_convergence, enumerate_panel,
                       intersection_number, make_path_spec, pants_point,
                       rational_lamination, scaling_path, thurston_vector,
                       verify_key_inequality)
from arcmetric.geometry import panel_plan

S = pants_point(1, 1, 2).surface
panel = enumerate_panel(S, 0)
plan = panel_plan(panel)  # compiled once, evaluated at each point
a12_index = panel.entries.index(S.arc_alias("a12"))
a33 = S.arc_alias("a33")
mu = rational_lamination(S, {a33: 1.0})
base = pants_point(1, 1, 2)
spec = make_path_spec(mu, base)
print("driving lamination: the arc a33 with weight 1")
print("regimes:", spec.regime_dict())
print()

print("lengths along the path (the B3 coordinate is exact by construction):")
header = f"{'t':>4} " + " ".join(f"{lab:>12}" for lab in panel.labels()[:4])
print(header, f"{'l(a12)-e^t':>14}")
for t in (0.0, 2.0, 4.0, 6.0, 8.0):
    X = scaling_path(spec, t)
    vec = [math.exp(v) for v in plan.vector(X)]  # from log lengths
    vals = vec[:4]
    dev = vec[a12_index] - math.exp(t)
    print(f"{t:>4.1f} " + " ".join(f"{v:>12.4f}" for v in vals)
          + f" {dev:>14.9f}")
print(f"  the deviation settles at -2 log sinh(1/2) = "
      f"{-2 * math.log(math.sinh(0.5)):.9f}")
print()

reports, _ = verify_key_inequality(spec, list(panel))
print("sandwich envelopes over t in [0, 10] (all bounded):")
for r in reports:
    print(f"  {r.target:>12}: i(mu,.) = {r.i_mu:.1f}, "
          f"lower slack {r.max_lower_deviation:+.4f}, "
          f"upper slack {r.max_upper_deviation:+.4f}")
print()

print("projective distance to the intersection vector of mu:")
coarse = make_path_spec(mu, base, [2, 4, 6, 8, 10])
for t, dist in boundary_convergence(coarse, panel):
    print(f"  t = {t:>4.1f}: sup-norm distance {dist:.3e}")
ivec = [intersection_number(mu, e) for e in panel]
top = max(ivec)
final = thurston_vector(scaling_path(spec, 10.0), panel)
print()
print(f"{'class':>12} {'limit vector':>14} {'i(mu,.)/max':>12}")
for lab, got, want in zip(panel.labels(), final, ivec):
    print(f"{lab:>12} {got:>14.6f} {want / top:>12.6f}")
