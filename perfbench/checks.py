"""Output checks that share no numerical route with the program.

Lengths are recomputed with mpmath at 50 digits from closed forms:

* pants arcs from the right-angled hexagon (distinct boundaries) and the
  cosh^2 relation for an arc returning to its boundary;
* one-holed-torus word curves from traces: the perpendicular d between the
  two copies of C1 in the pants (lC, lC, lB) gives
  tr w(0,1) = 2 cosh(d/2) cosh(tau/2) and tr w(+-1,1) = 2 cosh(d/2)
  cosh((tau +- lC)/2); every other slope follows by the Farey recursion
  tr W(u+v) = tr W(u) tr W(v) - tr W(u-v).  The reference traces satisfy
  the Fricke identity x^2 + y^2 + z^2 - xyz = 2 - 2 cosh(lB/2).

Intersection numbers (a topological count, not a length) are taken from the
program where a check needs them.  Each check returns None when the output
passes and a one-line reason when it does not.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import mpmath as mp

mp.mp.dps = 50

LENGTH_RTOL = 1e-9        # README: formula and oracle lengths agree to 1e-9
PRINTED_RTOL = 1e-8       # CLI scalars are printed with 9 significant digits
FRICKE_RTOL = 1e-9
BOUNDARY_LIMIT_TOL = 1e-3  # README: projective distance <= 1e-3 at t >= 8
BOUNDARY_LIMIT_KNOWN = 1e-2  # known misses at this commit reach 4.5e-3
HORO_TOL = 1e-2            # README: horofunction deviation <= 1e-2 at t = 10
SEPARATION_MIN_GAP = 1e-3  # separation_experiment's default min_gap
DESK_LOG2 = math.log(2.0)
DESK_REVERSE = 0.7232990423  # README desk number, ten digits

_W = re.compile(r"^w\((-?\d+),(-?\d+)\)$")
_SAME = re.compile(r"^a\((\w+);(\w+),(\w+)\)(?:~(-?\d+))?$")
_DISTINCT = re.compile(r"^a\((\w+),(\w+);(\w+)\)$")


# -- reference lengths --------------------------------------------------------


def _distinct(lb1, lb2, lg):
    """Hexagon side between boundaries lb1, lb2 opposite the side lg/2."""
    a, b, g = mp.mpf(lb1) / 2, mp.mpf(lb2) / 2, mp.mpf(lg) / 2
    return mp.acosh((mp.cosh(g) + mp.cosh(a) * mp.cosh(b))
                    / (mp.sinh(a) * mp.sinh(b)))


def _same(lb, lg1, lg2):
    """Arc from a boundary of length lb back to itself around lg1, lg2."""
    b, g1, g2 = mp.mpf(lb) / 2, mp.mpf(lg1) / 2, mp.mpf(lg2) / 2
    c2 = (-1 + mp.cosh(b) ** 2 + mp.cosh(g1) ** 2 + mp.cosh(g2) ** 2
          + 2 * mp.cosh(b) * mp.cosh(g1) * mp.cosh(g2)) / mp.sinh(b) ** 2
    return 2 * mp.acosh(mp.sqrt(c2))


def _length_from_trace(tr):
    return 2 * mp.acosh(tr / 2)


def _trace_from_length(length):
    return 2 * mp.cosh(mp.mpf(length) / 2)


class TorusReference:
    """Reference lengths on the one-holed torus (lC, tau, lB)."""

    def __init__(self, lC, tau, lB):
        self.lC, self.tau, self.lB = mp.mpf(lC), mp.mpf(tau), mp.mpf(lB)
        half_d = _distinct(lC, lC, lB) / 2
        self.x = _trace_from_length(lC)
        self.y = 2 * mp.cosh(half_d) * mp.cosh(self.tau / 2)
        self.z = 2 * mp.cosh(half_d) * mp.cosh((self.tau + self.lC) / 2)
        self.zm = 2 * mp.cosh(half_d) * mp.cosh((self.tau - self.lC) / 2)
        self._cache = {}

    def slope_trace(self, p, q):
        """Trace of the simple closed curve of slope (p, q)."""
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        if (p, q) == (1, 0):
            return self.x
        if (p, q) == (0, 1):
            return self.y
        z = self.z if p > 0 else self.zm
        p = abs(p)
        # Stern-Brocot descent from (lo, hi) = ((0,1), (1,0)), mediant (1,1)
        lo, hi = (0, 1), (1, 0)
        t_lo, t_hi, t_med = self.y, self.x, z
        while True:
            med = (lo[0] + hi[0], lo[1] + hi[1])
            if med == (p, q):
                return t_med
            if p * med[1] < med[0] * q:
                hi, t_hi, t_med = med, t_med, t_lo * t_med - t_hi
            else:
                lo, t_lo, t_med = med, t_med, t_med * t_hi - t_lo

    def length(self, label):
        if label not in self._cache:
            self._cache[label] = self._length(label)
        return self._cache[label]

    def _length(self, label):
        if label == "B1":
            return self.lB
        if label == "C1":
            return self.lC
        m = _W.match(label)
        if m:
            return _length_from_trace(self.slope_trace(int(m[1]), int(m[2])))
        m = _SAME.match(label)
        if m:
            k = int(m[4] or 0)
            host = self.lC if k == 0 else _length_from_trace(
                self.slope_trace(1, k))
            return _same(self.lB, host, host)
        raise ValueError(f"no torus reference for {label!r}")


class PantsReference:
    """Reference lengths on the pants with cuffs (l1, l2, l3)."""

    def __init__(self, l1, l2, l3):
        self.sides = {"B1": l1, "B2": l2, "B3": l3}

    def length(self, label):
        if label in self.sides:
            return mp.mpf(self.sides[label])
        m = _SAME.match(label)
        if m and not m[4]:
            return _same(*(self.sides[s] for s in m.groups()[:3]))
        m = _DISTINCT.match(label)
        if m:
            return _distinct(*(self.sides[s] for s in m.groups()))
        raise ValueError(f"no pants reference for {label!r}")


def reference(surface, coords):
    """Reference for a tier-1 point: 'pants' (l1,l2,l3) or 'torus' (lC,tau,lB)."""
    return PantsReference(*coords) if surface == "pants" else TorusReference(*coords)


# -- comparisons ----------------------------------------------------------------


def _close(value, ref, rtol=LENGTH_RTOL):
    ref = float(ref)
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


def _ref_metric(rx, ry, labels):
    best = max(ry.length(lab) / rx.length(lab) for lab in labels)
    return float(mp.log(best))


def check_distance(rx, ry, labels, d_xy, d_yx):
    for name, got, want in (("d_xy", d_xy, _ref_metric(rx, ry, labels)),
                            ("d_yx", d_yx, _ref_metric(ry, rx, labels))):
        if not _close(got, want):
            return f"{name}={got!r} reference {want!r}"
    return None


def check_vector(ref, labels, vector):
    lengths = [ref.length(lab) for lab in labels]
    top = max(lengths)
    for lab, got, length in zip(labels, vector, lengths):
        if abs(got - float(length / top)) > LENGTH_RTOL:
            return f"{lab}: normalized length {got!r} reference {float(length / top)!r}"
    return None


def check_lengths(ref, lengths, rtol=LENGTH_RTOL):
    for lab, got in lengths.items():
        want = ref.length(lab)
        if not _close(got, want, rtol):
            return f"{lab}: length {got!r} reference {float(want)!r}"
    return None


def check_fricke(lC, lB, l01, l11):
    """Fricke identity on the program's own lengths of C1, w(0,1), w(1,1)."""
    x, y, z = (_trace_from_length(v) for v in (lC, l01, l11))
    lhs = x * x + y * y + z * z - x * y * z
    rhs = 2 - 2 * mp.cosh(mp.mpf(lB) / 2)
    scale = x * x + y * y + z * z + x * y * z
    res = abs(lhs - rhs) / scale
    if res > FRICKE_RTOL:
        return f"Fricke identity residual {float(res):.3g}"
    return None


def check_boundary_horofunction(ref_base, ref_y, ivec, labels, value,
                                rtol=LENGTH_RTOL):
    """log sup_e i(mu,e)/(N l_Y(e)), N = sup_e i(mu,e)/l_base(e)."""
    pairs = [(i, lab) for i, lab in zip(ivec, labels) if i > 0]
    norm = max(mp.mpf(i) / ref_base.length(lab) for i, lab in pairs)
    want = float(mp.log(max(mp.mpf(i) / (norm * ref_y.length(lab))
                            for i, lab in pairs)))
    if not _close(value, want, rtol):
        return f"horofunction {value!r} reference {want!r}"
    return None


def check_interior_horofunction(ref_point, ref_base, ref_at, labels, value,
                                rtol=LENGTH_RTOL):
    want = (_ref_metric(ref_at, ref_point, labels)
            - _ref_metric(ref_base, ref_point, labels))
    if not _close(value, want, rtol):
        return f"horofunction {value!r} reference {want!r}"
    return None


# -- experiment summaries (README tolerances) ---------------------------------------


def _csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return [[float(v) for v in row[:2]] for row in rows[1:]]


def check_experiment(verb, exit_code, stdout, files):
    """README tolerances on one experiment's CSV and JSON outputs."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    summary = json.loads(files.get("json") or stdout)
    if verb == "inequality":
        flagged = [r["target"] for r in summary["targets"] if r["flagged"]]
        return f"flagged targets {flagged}" if flagged else None
    if verb == "boundary-limit":
        worst = _boundary_limit_worst(files)
        if not worst <= BOUNDARY_LIMIT_TOL:
            return f"projective distance {worst:.3g} at t >= 8"
        return None
    if verb == "horo-converge":
        t, dev = _csv_rows(files["csv"])[-1]
        if not (t == 10.0 and dev <= HORO_TOL):
            return f"horofunction deviation {dev:.3g} at t = {t}"
        return None
    if verb == "separate":
        gap = summary["lhs"] - summary["rhs"]
        if not gap >= SEPARATION_MIN_GAP:
            return f"separation gap {gap:.3g}"
        return None
    if verb == "dt-sphere":
        if summary["roundtrip_pass"] != summary["samples"]:
            return f"{summary['roundtrip_pass']}/{summary['samples']} round trips"
        return None
    raise ValueError(f"unknown experiment verb {verb!r}")


def _boundary_limit_worst(files):
    return max(d for t, d in _csv_rows(files["csv"]) if t >= 8.0)


def boundary_limit_miss(files):
    """The projective distance of a boundary-limit run that misses the README
    tolerance by no more than the known defect does (BOUNDARY_LIMIT_KNOWN),
    else None."""
    worst = _boundary_limit_worst(files)
    return worst if BOUNDARY_LIMIT_TOL < worst <= BOUNDARY_LIMIT_KNOWN else None


def check_desk(d_xy, d_yx):
    """README desk numbers for d((2,2,2),(4,4,4)) and its reverse."""
    if abs(d_xy - DESK_LOG2) > 1e-12 or abs(d_yx - DESK_REVERSE) > 5e-11:
        return f"desk numbers {d_xy!r}, {d_yx!r}"
    return None
