"""Surface signatures, pants decompositions, curve/arc classes, panels.

Surfaces are bordered (at least one boundary component) except for the
closed doubles of `double_topology`.  Every surface gets a deterministic
canonical pants decomposition and keeps the tables lamination and geometry
fill (intersection numbers, compiled length routes).  On the "tier 1"
surfaces S_{0,0,3} and S_{1,0,1}, which carry holonomy markings, panels
extend beyond decomposition data to registered word classes.  Panels are
never empty.

Labels: interior decomposition curves "C1", "C2", ...; boundary components
"B1", ...; punctures "U1", ...; mirrored curves on a double get an "m"
suffix.  Pair-of-pants arc aliases "a11" ... "a23" index the boundary pair
the arc joins.
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

    Word classes exist on tier-1 surfaces only; on the one-holed torus the
    slope (p, q) records the homology class relative to the decomposition
    curve (1, 0) and its dual (0, 1).
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
    On the one-holed torus, `twist` = k registers the image of the base arc
    under k Dehn twists along the dual curve; its host pants is then bounded
    by two copies of the slope-(1, k) curve.
    """

    pants_id: str
    pattern: tuple
    twist: int = 0

    @property
    def label(self) -> str:
        kind = self.pattern[0]
        if kind == "same":
            body = f"a({self.pattern[1]};{self.pattern[2]},{self.pattern[3]})"
        else:
            body = f"a({self.pattern[1]},{self.pattern[2]};{self.pattern[3]})"
        return body if self.twist == 0 else f"{body}~{self.twist}"

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

    def word_curves_at(self, word_length: int) -> list[CurveClass]:
        """Registered word curves of exactly the given word length (tier 1)."""
        if not (self.tier1 and self.is_torus()) or word_length < 1:
            return []
        out = []
        for q in range(1, word_length + 1):
            p = word_length - q
            if math.gcd(p, q) != 1:
                continue
            out.append(CurveClass("word", f"w({p},{q})", (p, q)))
            if p > 0:
                out.append(CurveClass("word", f"w({-p},{q})", (-p, q)))
        return out

    def word_arcs_at(self, word_length: int) -> list[ArcClass]:
        """Twisted torus arcs whose host curve has the given word length."""
        if not (self.tier1 and self.is_torus()) or word_length < 2:
            return []
        base = self.pants_arcs()[0]
        k = word_length - 1
        return [ArcClass(base.pants_id, base.pattern, twist=k),
                ArcClass(base.pants_id, base.pattern, twist=-k)]

    def arc_alias(self, name: str) -> ArcClass:
        """Resolve short pants aliases a11..a33, a12, a13, a23 and full labels."""
        arcs = self._arcs_by_label
        if name in arcs:
            return arcs[name]
        if self.is_pants() and len(name) == 3 and name[0] == "a":
            j, k = name[1], name[2]
            if j == k:
                others = sorted(b for b in self.boundaries if b != f"B{j}")
                label = f"a(B{j};{others[0]},{others[1]})"
            else:
                g = ({"1", "2", "3"} - {j, k}).pop()
                label = f"a(B{min(j,k)},B{max(j,k)};B{g})"
            if label in arcs:
                return arcs[label]
        raise DomainError(f"unknown arc {name!r} on {self.signature}")


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
        if g == 0:
            if len(ends) == 3:
                new_pants(ends)
                return
            c = new_curve()
            new_pants((ends[0], ends[1], c))
            decompose(0, [c] + list(ends[2:]))
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

    def mirror_side(s: str) -> str:
        if s in surface.boundaries:
            return s
        if s in surface.interior_curves:
            return s + "m"
        return s + "m"  # punctures double to two punctures

    pants = list(surface.pants)
    for p in surface.pants:
        pants.append(Pants(p.pants_id + "m", tuple(mirror_side(s) for s in p.sides)))
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
# it (610,384 entries at level 1000), and off the torus levels above 0 add
# nothing but loop iterations
_MAX_PANEL_LEVEL = 1000


def enumerate_panel(surface: Surface, complexity: int = 0) -> Panel:
    """Deterministic panel, monotone in complexity; built once per level.

    Level 0 holds the boundary classes, the decomposition curves, and all
    pants-local arcs; higher levels append registered word classes (tier-1
    surfaces only).  Levels outside [0, 1000] are a DomainError.
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
    for n in range(1, complexity + 1):  # level order makes panels nested
        entries.extend(surface.word_curves_at(n))
        entries.extend(surface.word_arcs_at(n))
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
