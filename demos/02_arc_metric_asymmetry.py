"""The arc metric is genuinely asymmetric.

The distance from X to Y is the log of the largest ratio l(Y)/l(X) over
essential curves and arcs.  Scaling all boundaries of a pants up doubles
every boundary curve, so d(X, Y) = log 2; coming back, the boundary ratios
are all 1/2 but the arcs between the now-shrinking boundaries have grown,
and one of them wins with a ratio bigger than 2.
"""

import math

from arcmetric import arc_metric, enumerate_panel, pants_point
from arcmetric.geometry import log_lengths

X = pants_point(2, 2, 2)
Y = pants_point(4, 4, 4)
panel = enumerate_panel(X.surface, 0)
# log_lengths gives the log length of each panel entry at a point
lengths_x, lengths_y = ([math.exp(v) for v in log_lengths(X.surface, panel.entries, P)]
                        for P in (X, Y))
print("panel (complete for the pair of pants):")
print(" ", ", ".join(panel.labels()))
print()

print(f"{'class':>12} {'l at X':>12} {'l at Y':>12} {'Y/X':>8} {'X/Y':>8}")
for entry, lx, ly in zip(panel, lengths_x, lengths_y):
    print(f"{str(entry):>12} {lx:>12.6f} {ly:>12.6f} "
          f"{ly / lx:>8.4f} {lx / ly:>8.4f}")

d_xy = arc_metric(X, Y, panel)
d_yx = arc_metric(Y, X, panel)
print()
print(f"d(X -> Y) = {d_xy.value:.9f}  (= log 2, maximizer {d_xy.maximizer})")
print(f"d(Y -> X) = {d_yx.value:.9f}  (maximizer {d_yx.maximizer})")
print(f"asymmetry: d(Y -> X) - d(X -> Y) = {d_yx.value - d_xy.value:+.9f}")
print()

# the one-sided triangle inequality is exact at panel level
Z = pants_point(1.0, 3.0, 5.0)
lhs = arc_metric(X, Z, panel).value
rhs = arc_metric(X, Y, panel).value + arc_metric(Y, Z, panel).value
print(f"triangle through Y: d(X,Z) = {lhs:.6f} <= d(X,Y) + d(Y,Z) = {rhs:.6f}")
assert lhs <= rhs + 1e-12

# using closed curves alone would fail: on a pants they are the boundaries,
# and from Y to X every boundary ratio is below 1
boundary_only = max(lx / ly for e, lx, ly in zip(panel, lengths_x, lengths_y)
                    if str(e).startswith("B"))
print()
print(f"best boundary-curve ratio from Y to X: {boundary_only:.4f} < 1 "
      f"(log would be negative: arcs are what make this a metric)")
print(f"best overall ratio from Y to X:        {math.exp(d_yx.value):.4f}")
