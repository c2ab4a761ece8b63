"""Surface signatures, pants decompositions, curve/arc classes, panels, ids.

Surfaces are bordered (at least one boundary component) except for the
closed doubles of `double_topology`.  Every surface gets a deterministic
canonical pants decomposition and keeps the tables lamination and geometry
fill (intersection numbers, compiled length routes).  Slopes are decided
here: the one-holed torus registers C1 as its slope host, of slope (1, 0);
Surface.slope_of reads any class's slope and Surface.slope_curve builds a
slope's curve.  Panels are never empty.

Labels: interior decomposition curves "C1", "C2", ...; boundary components
"B1", ...; punctures "U1", ...; mirrored curves on a double get an "m"
suffix.  Pair-of-pants arc aliases "a11" ... "a23" index the boundary pair
the arc joins.  A class's id is its label: class_from_id parses each id
back, and refuses a torus id whose slope descent takes over _MAX_DESCENT steps.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import NamedTuple

from .errors import DomainError, UnsupportedSurfaceError


class SurfaceSignature(NamedTuple):
    genus: int
    punctures: int
    boundary: int

    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus - self.punctures - self.boundary

    def __str__(self):
        return f"S_{self.genus},{self.punctures},{self.boundary}"


class Pants(NamedTuple):
    pants_id: str
    sides: tuple[str, str, str]


class CurveClass(NamedTuple):
    """Essential simple closed curve: boundary, decomposition, or word class.

    A word class is the curve w(p,q) of a slope (p, q), q >= 1, relative to
    the slope host (1, 0) and its dual (0, 1); see Surface.slope_curve.
    """

    kind: str  # "boundary" | "interior" | "word"
    label: str
    slope: tuple[int, int] | None = None

    def __str__(self):
        return self.label


class ArcClass(NamedTuple):
    """Essential arc, pants-local: both endpoints on boundary components.

    pattern is ("same", beta, gamma1, gamma2) for an arc from boundary beta
    back to itself separating the other two sides, or
    ("distinct", beta1, beta2, gamma) for an arc joining two boundaries.
    host is None, or the slope of the curve that replaces the slope host in
    the arc's pants: on the torus (1, k), or (-1, -k) if k < 0, is the base
    arc twisted k times along the dual curve, labelled ~k.  Other hosts have
    no id yet (they print another host's ~pq): compare arcs, not labels.
    """

    pants_id: str
    pattern: tuple
    host: tuple[int, int] | None = None

    @property
    def label(self) -> str:
        kind = self.pattern[0]
        if kind == "same":
            body = f"a({self.pattern[1]};{self.pattern[2]},{self.pattern[3]})"
        else:
            body = f"a({self.pattern[1]},{self.pattern[2]};{self.pattern[3]})"
        return body if self.host is None else f"{body}~{self.host[0] * self.host[1]}"

    def endpoints(self) -> tuple[str, str]:
        if self.pattern[0] == "same":
            return (self.pattern[1], self.pattern[1])
        return (self.pattern[1], self.pattern[2])

    def __str__(self):
        return self.label


def _immutable(self, name, value=None):
    raise AttributeError(f"cannot set {name!r}: {type(self).__name__} is immutable")


class Surface(namedtuple("Surface", "signature pants interior_curves boundaries "
                         "punctures tier1 double_of", defaults=(None,))):
    """A signature with its pants decomposition and curve labels.  Not
    slotted: the cached_property caches below live in the instance __dict__,
    outside equality and hash."""

    __setattr__ = __delattr__ = _immutable

    # -- class constructors --------------------------------------------------

    def boundary_classes(self) -> list[CurveClass]:
        return [CurveClass("boundary", b) for b in self.boundaries]

    def interior_classes(self) -> list[CurveClass]:
        return [CurveClass("interior", c) for c in self.interior_curves]

    def curve_class(self, label: str) -> CurveClass:
        if label in self.boundaries:
            return CurveClass("boundary", label)
        if label in self.interior_curves:
            return CurveClass("interior", label)
        raise DomainError(f"unknown curve label {label!r} on {self.signature}")

    def pants_arcs(self) -> list[ArcClass]:
        """All pants-local arc classes, in deterministic order (a new list
        on each call; the classes are built once per surface)."""
        return list(self._arcs_by_label.values())

    @functools.cached_property
    def _arcs_by_label(self) -> dict:
        arcs = {}
        for pants in self.pants:
            s = pants.sides
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                if s[i] in self.boundaries:
                    g1, g2 = sorted((s[j], s[k]))
                    arc = ArcClass(pants.pants_id, ("same", s[i], g1, g2))
                    arcs.setdefault(arc.label, arc)
            for i in range(3):
                for j in range(i + 1, 3):
                    k = 3 - i - j
                    if (s[i] in self.boundaries and s[j] in self.boundaries
                            and s[i] != s[j]):
                        b1, b2 = sorted((s[i], s[j]))
                        arc = ArcClass(pants.pants_id, ("distinct", b1, b2, s[k]))
                        arcs.setdefault(arc.label, arc)
        order = sorted(arcs, key=lambda label: (arcs[label].pattern[0] != "same",
                                                label))
        return {label: arcs[label] for label in order}

    @functools.cached_property
    def _panels(self) -> dict:
        return {}  # complexity -> Panel, filled by enumerate_panel

    @functools.cached_property
    def _intersections(self) -> dict:
        return {}  # (c, target) -> i(c, target), filled by lamination

    @functools.cached_property
    def _routes(self) -> dict:
        return {}  # class -> its compiled log length formula, filled by geometry

    def is_torus(self) -> bool:
        return self.signature == SurfaceSignature(1, 0, 1)

    def is_pants(self) -> bool:
        return self.signature == SurfaceSignature(0, 0, 3)

    @functools.cached_property
    def _slope_host(self) -> str | None:  # the curve of slope (1, 0)
        return "C1" if self.is_torus() else None

    def slope_of(self, cls) -> tuple[int, int] | None:
        """A word curve's slope, an arc's host, (1, 0) for the slope host
        and its pants' arcs; else None."""
        host = self._slope_host
        if host is None:
            return None
        if isinstance(cls, ArcClass):
            return cls.host or ((1, 0) if host in cls.pattern[1:] else None)
        return (1, 0) if cls == CurveClass("interior", host) else cls.slope

    def slope_curve(self, p: int, q: int) -> CurveClass:
        """The curve of slope (p, q) = (-p, -q), q >= 1: w(p,q), or the slope
        host for (1, 0)."""
        if q < 0 or q == 0 and p < 0:
            p, q = -p, -q
        if q == 0 and self._slope_host:
            return CurveClass("interior", self._slope_host)
        return CurveClass("word", f"w({p},{q})", (p, q))

    def arc_alias(self, name: str) -> ArcClass:
        """Resolve full arc labels and, on the pants, the short aliases ajk
        of the arc from Bj to Bk (a11..a33, a12, a13, a23, in either order)."""
        arcs = self._arcs_by_label
        if name in arcs:
            return arcs[name]
        if self.is_pants() and len(name) == 3 and name[0] == "a":
            ends = sorted(f"B{d}" for d in name[1:])
            for arc in arcs.values():
                if sorted(arc.endpoints()) == ends:
                    return arc
        raise DomainError(f"unknown arc {name!r} on {self.signature}")


# the most steps a class id's torus length may take: the slope descent of
# hyptrig.torus_slope_length takes one step per unit of partial quotient
_MAX_DESCENT = 10 ** 6


def _check_descent(class_id: str, p: int, q: int) -> None:
    """Refuse an id whose slope (p, q), q >= 1, descends from (p // q, 1) in
    over _MAX_DESCENT steps: the partial quotients of (p mod q)/q, summed,
    less one, counted by Euclid in O(log q)."""
    a, b, steps = q, p % q, -1
    while b:
        steps += a // b
        a, b = b, a % b
    if steps > _MAX_DESCENT:
        raise DomainError(f"class id {class_id!r} takes {steps} slope descent "
                          f"steps, over the cap {_MAX_DESCENT}")


def class_from_id(surface: Surface, class_id: str):
    """The class of an id: curve label, w(p,q) slope, or arc label or alias;
    a slope or twisted arc whose length descent is over the cap is refused."""
    if not isinstance(class_id, str):
        raise DomainError(f"class id must be a string, got {class_id!r}")
    if class_id in surface.boundaries or class_id in surface.interior_curves:
        return surface.curve_class(class_id)
    if class_id.startswith("w(") and class_id.endswith(")"):
        try:
            p, q = (int(t) for t in class_id[2:-1].split(","))
        except ValueError:
            raise DomainError(f"slope id {class_id!r} is not w(p,q) with "
                              f"integers p and q") from None
        if q < 1 or math.gcd(abs(p), q) != 1:
            raise DomainError(f"slope ({p},{q}) is not primitive with q >= 1")
        _check_descent(class_id, p, q)
        return surface.slope_curve(p, q)
    body, tilde, twist = class_id.partition("~")
    if tilde:  # the slope host pants' arc around the slope (1, k)
        try:
            host = surface.slope_curve(1, int(twist)).slope  # None for k = 0
        except ValueError:
            raise DomainError(f"arc twist in {class_id!r} is not an integer") from None
        arc = surface._arcs_by_label.get(body)
        if arc is not None and surface.slope_of(arc) == (1, 0):
            arc = arc._replace(host=host)
            if arc.label == class_id:
                _check_descent(class_id, *host)
                return arc
    return surface.arc_alias(class_id)  # refuses an arc id it does not know


@functools.cache
def build_surface(genus: int, punctures: int, boundary: int) -> Surface:
    """Checked signature, canonical pants decomposition; built once each."""
    sig = SurfaceSignature(genus, punctures, boundary)
    if genus < 0 or punctures < 0 or boundary < 1:
        raise UnsupportedSurfaceError(
            f"{sig} is not a bordered surface (need g,n >= 0 and p >= 1)")
    if sig.euler_characteristic() >= 0:
        raise UnsupportedSurfaceError(
            f"{sig} has Euler characteristic {sig.euler_characteristic()} >= 0")

    boundaries = tuple(f"B{i + 1}" for i in range(boundary))
    puncture_labels = tuple(f"U{i + 1}" for i in range(punctures))
    pants_list: list[Pants] = []
    curves: list[str] = []

    def new_curve() -> str:
        curves.append(f"C{len(curves) + 1}")
        return curves[-1]

    def new_pants(sides):
        pants_list.append(Pants(f"P{len(pants_list) + 1}", tuple(sides)))

    def decompose(g, ends):
        if g == 0 and len(ends) == 3:
            new_pants(ends)
            return
        if len(ends) >= 2:
            c = new_curve()
            new_pants((ends[0], ends[1], c))
            decompose(g, [c] + list(ends[2:]))
            return
        if g == 1:
            h = new_curve()
            new_pants((ends[0], h, h))
            return
        a, b = new_curve(), new_curve()
        c = new_curve()
        new_pants((ends[0], a, b))
        new_pants((a, b, c))
        decompose(g - 1, [c])

    decompose(genus, list(boundaries) + list(puncture_labels))

    expected_pants = 2 * genus - 2 + punctures + boundary
    expected_curves = 3 * genus - 3 + punctures + boundary
    assert len(pants_list) == expected_pants, "pants count mismatch"
    assert len(curves) == expected_curves, "interior curve count mismatch"

    tier1 = sig in (SurfaceSignature(0, 0, 3), SurfaceSignature(1, 0, 1))
    return Surface(sig, tuple(pants_list), tuple(curves), boundaries,
                   puncture_labels, tier1)


def double_topology(surface: Surface) -> Surface:
    """Closed double: genus 2g+p-1, 2n punctures, symmetric decomposition.

    Decomposition curves of the double are the original interior curves, the
    former boundary curves, and the mirrored interior curves ("m" suffix);
    every pants reappears twice, once mirrored.
    """
    sig = surface.signature
    dsig = SurfaceSignature(2 * sig.genus + sig.boundary - 1,
                            2 * sig.punctures, 0)

    pants = list(surface.pants)
    for p in surface.pants:  # a boundary is its own mirror; a puncture doubles
        pants.append(Pants(p.pants_id + "m", tuple(
            s if s in surface.boundaries else s + "m" for s in p.sides)))
    curves = (tuple(surface.interior_curves) + tuple(surface.boundaries)
              + tuple(c + "m" for c in surface.interior_curves))
    punctures = tuple(surface.punctures) + tuple(u + "m" for u in surface.punctures)
    return Surface(dsig, tuple(pants), curves, (), punctures,
                   surface.tier1, double_of=sig)


class Panel:
    """Finite nonempty ordered family of curve/arc classes truncating the
    suprema.  Its len and iteration run over the entries."""

    __slots__ = ("surface", "complexity", "entries")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, surface: Surface, complexity: int, entries: tuple):
        if not entries:
            raise DomainError("panel is empty")
        for name, value in zip(self.__slots__, (surface, complexity, entries)):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return self.surface, self.complexity, self.entries

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is Panel else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Panel(surface=%r, complexity=%r, entries=%r)" % self._key()

    def labels(self) -> list[str]:
        return [str(e) for e in self.entries]

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


# the level comes from outside input; the torus panel grows quadratically in
# it (610,384 entries at level 1000), and other panels stop at level 0
_MAX_PANEL_LEVEL = 1000


def _word_classes(surface: Surface, n: int) -> list:
    """The slope curves (p, q), |p| + q = n, by q and p > 0 first, then the
    host-pants arcs around those with |p| = 1."""
    curves = [surface.slope_curve(s * (n - q), q) for q in range(1, n + 1)
              if math.gcd(n - q, q) == 1 for s in ((1, -1) if q < n else (1,))]
    base = [arc for arc in surface.pants_arcs() if surface.slope_of(arc)]
    return curves + [arc._replace(host=c.slope) for c in curves
                     if abs(c.slope[0]) == 1 for arc in base]


def enumerate_panel(surface: Surface, complexity: int = 0) -> Panel:
    """Deterministic panel, monotone in complexity; built once per level.

    Level 0 holds the boundary classes, the decomposition curves, and all
    pants-local arcs; each level n above 0 appends the classes of word
    length n.  Levels outside [0, 1000] are a DomainError.
    """
    if complexity < 0:
        raise DomainError("panel complexity must be >= 0")
    if complexity > _MAX_PANEL_LEVEL:
        raise DomainError(f"panel complexity must be <= {_MAX_PANEL_LEVEL}, "
                          f"got {complexity}")
    if complexity in surface._panels:
        return surface._panels[complexity]
    entries: list = []
    entries.extend(surface.boundary_classes())
    entries.extend(surface.interior_classes())
    entries.extend(surface.pants_arcs())
    if surface._slope_host:  # level order makes panels nested
        for n in range(1, complexity + 1):
            entries.extend(_word_classes(surface, n))
    panel = surface._panels[complexity] = Panel(surface, complexity, tuple(entries))
    return panel


# -- JSON schema ---------------------------------------------------------------


def surface_to_dict(surface: Surface) -> dict:
    return {
        "signature": {"genus": surface.signature.genus,
                      "punctures": surface.signature.punctures,
                      "boundary": surface.signature.boundary},
        "interior_curves": list(surface.interior_curves),
        "boundaries": list(surface.boundaries),
        "punctures": list(surface.punctures),
        "pants": [{"id": p.pants_id, "sides": list(p.sides)} for p in surface.pants],
        "tier1": surface.tier1,
        "double_of": None if surface.double_of is None else
            [surface.double_of.genus, surface.double_of.punctures,
             surface.double_of.boundary],
    }


def panel_to_dict(panel: Panel) -> dict:
    return {
        "surface": surface_to_dict(panel.surface),
        "complexity": panel.complexity,
        "entries": [{"kind": "arc" if isinstance(e, ArcClass) else e.kind,
                     "id": str(e)} for e in panel.entries],
    }
