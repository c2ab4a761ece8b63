"""Horofunctions of the arc metric and where scaling paths land.

Fix a base point X0.  Interior points X give functions
Phi_X = d(., X) - d(X0, X); projective laminations mu give functions built
from the normalized intersection form.  Along a scaling path driven by mu
the interior functions converge to the boundary function of mu: the
horofunction compactification sees the same limits as the projective
length-vector one.
"""

import random

from arcmetric import (boundary_horofunction, enumerate_panel, detect_limit,
                       horo_convergence, horofunction_eval,
                       interior_horofunction, make_path_spec, normalize,
                       normalized_length_vector, pants_point,
                       rational_lamination, scaling_path)

base = pants_point(1, 1, 2)
S = base.surface
panel = enumerate_panel(S, 0)
a33 = S.arc_alias("a33")
mu = normalize(rational_lamination(S, {a33: 1.0}), base)
spec = make_path_spec(mu, base)

print("interior horofunctions vanish at their base point and dip to -d at")
print("their defining point:")
X = pants_point(3, 1.5, 2.5)
h = interior_horofunction(X, base, panel)
print(f"  Phi_X(X0) = {horofunction_eval(h, base):+.6f}")
print(f"  Phi_X(X)  = {horofunction_eval(h, X):+.6f}  (= -d(X0, X))")
print()

h_mu = boundary_horofunction(mu, base, panel)
print("the boundary horofunction of mu = [a33]:")
for Y in (base, pants_point(2, 2, 2), pants_point(1, 1, 8)):
    labels = ",".join(f"{v:g}" for _, v in Y.boundary)
    print(f"  Phi_mu at ({labels}): {horofunction_eval(h_mu, Y):+.6f}")
print()

rng = random.Random(11)
probes = [pants_point(*[rng.uniform(1.0, 4.0) for _ in range(3)])
          for _ in range(5)]
print("max over 5 probe points of |Phi_{X_t} - Phi_mu| along the path:")
coarse = make_path_spec(mu, base, [2, 4, 6, 8, 10])
for t, dev in horo_convergence(coarse, probes, panel):
    print(f"  t = {t:>4.1f}: {dev:.3e}")
print()

seq = [scaling_path(spec, t) for t in (4, 5, 6, 7, 8)]
tolerance = 1e-3
rep = detect_limit(seq, panel, tolerance=tolerance, base_point=base)
print(f"limit detection on the sampled path: kind = {rep.kind!r}")
if rep.kind == "boundary":
    print("  projective vector:",
          " ".join(f"{v:.4f}" for v in rep.projective_vector))
    print("  (proportional to the intersection numbers of a33 with the panel)")
elif rep.kind == "none":
    # the verdict rests on the last step of the normalized length vectors
    last = normalized_length_vector(seq[-1], base, panel)
    prev = normalized_length_vector(seq[-2], base, panel)
    step = max(abs(a - b) for a, b in zip(last, prev))
    print(f"  last step of the normalized vector: {step:.3e} "
          f"(tolerance {tolerance:g})")
    print("  the path has not settled to this tolerance by t = 8")
