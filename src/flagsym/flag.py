"""Painted Dynkin diagrams and the root data of the flag manifold G/H.

Painting a nonempty node set turns the roots supported on the white nodes
into the isotropy system R_h; the rest is R_m, identified with the tangent
space at the base point.  The canonical invariant ordering R_m+ = R+ n R_m
encodes the invariant complex structure, and a strictly positive rational
coefficient vector on the painted nodes is a Kahler parameter xi with
a(xi) > 0 exactly on R_m+.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .rootsystem import (
    Diagram,
    Root,
    RootSystem,
    bits,
    build_root_system,
)

_PAINTED_RE = re.compile(r"\s*([A-G])\s*(\d+)\s*:\s*\{([0-9,\s]*)\}\s*\Z")


def painting_spec(type_name: str, painted) -> str:
    """The compact form '<Family><rank>:{i,j,...}' of a painting, nodes ascending."""
    return f"{type_name}:{{{','.join(map(str, sorted(painted)))}}}"


@dataclass(frozen=True)
class PaintedDiagram:
    rs: RootSystem
    painted: frozenset[int]

    def __post_init__(self):
        if not self.painted:
            raise ValueError("painted set must be nonempty (empty would give H = G)")
        bad = [i for i in self.painted if not 1 <= i <= self.rs.rank]
        if bad:
            raise ValueError(f"painted nodes out of range for {self.rs.name}: {bad}")

    @property
    def spec(self) -> str:
        return painting_spec(self.rs.name, self.painted)

    def __repr__(self) -> str:
        return f"PaintedDiagram({self.spec})"


def parse_painted(text: str) -> PaintedDiagram:
    """Parse the compact form '<Family><rank>:{i,j,...}', e.g. 'A3:{2,3}'."""
    m = _PAINTED_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse painted diagram {text!r}; expected e.g. 'A3:{{2,3}}'")
    family, rank = m.group(1), int(m.group(2))
    toks = [t.strip() for t in m.group(3).split(",") if t.strip()]
    rs = build_root_system(family, rank)
    return PaintedDiagram(rs, frozenset(int(t) for t in toks))


class KahlerParam:
    """Strictly positive rational coefficients of xi on the painted nodes."""

    def __init__(self, coeffs: dict[int, Fraction]):
        coeffs = {i: Fraction(v) for i, v in coeffs.items()}
        if not coeffs or any(v <= 0 for v in coeffs.values()):
            raise ValueError("Kahler parameter needs strictly positive coefficients")
        self.coeffs = dict(sorted(coeffs.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}: {v}" for i, v in self.coeffs.items())
        return f"KahlerParam({{{inner}}})"

    def __eq__(self, other) -> bool:
        return isinstance(other, KahlerParam) and self.coeffs == other.coeffs


class FlagData:
    """Root-level description of G/H for one painted diagram.

    The root sets are masks over the root index of ``rs``; the tuple views
    ``r_h``, ``r_m``, ``r_m_plus`` and ``r_m_plus_set`` are built on first
    read.  What it describes is fixed at construction; the lazy views and
    the caches filled by :mod:`flagsym.symmetry` only ever take one value,
    so concurrent reads are safe.
    """

    def __init__(self, pd: PaintedDiagram):
        self.pd = pd
        rs = pd.rs
        # R_m: the roots with a nonzero coefficient on a painted node; R_h: the rest
        m_mask = painted_mask = 0
        for i in pd.painted:
            m_mask |= rs.support[i - 1]
            painted_mask |= 1 << (i - 1)
        self.m_mask = m_mask
        self.painted_mask = painted_mask  # the painted nodes, bit n for node n + 1
        self.h_mask = ((1 << len(rs.roots)) - 1) & ~m_mask
        self.m_plus_mask = m_mask & rs.positive_mask
        self.dim_m = m_mask.bit_count()
        self._symmetric: bool | None = None
        # filled once by flagsym.symmetry: the symmetry roots and their mask,
        # then the p, [p, p] and h' masks, then the verified roots of h'
        self._symmetry: tuple[frozenset, int] | None = None
        self._masks: tuple[int, int, int] | None = None
        self._h_prime: frozenset | None = None

    @property
    def rs(self) -> RootSystem:
        return self.pd.rs

    @property
    def center_dim(self) -> int:
        return len(self.pd.painted)

    @cached_property
    def r_h(self) -> frozenset:
        return self.rs.roots_of(self.h_mask)

    @cached_property
    def r_m(self) -> frozenset:
        return self.rs.roots_of(self.m_mask)

    @cached_property
    def r_m_plus(self) -> tuple[Root, ...]:
        """R_m+ in index order: by height, then coordinates."""
        return tuple(map(self.rs.roots.__getitem__, bits(self.m_plus_mask)))

    @cached_property
    def r_m_plus_set(self) -> frozenset:
        return frozenset(self.r_m_plus)

    def is_symmetric_coset(self) -> bool:
        """True iff no two roots of R_m+ sum to a root ([m, m] inside h)."""
        if self._symmetric is None:
            sums, plus = self.rs.sums, self.m_plus_mask
            self._symmetric = not any(sums[i] & plus for i in bits(plus))
        return self._symmetric

    def __repr__(self) -> str:
        return f"FlagData({self.pd.spec})"


def make_flag(pd: PaintedDiagram) -> FlagData:
    return FlagData(pd)


def kahler_param(flag: FlagData, values) -> KahlerParam:
    """Kahler parameter from coefficients listed in increasing painted-node order."""
    painted = sorted(flag.pd.painted)
    vals = [Fraction(v) for v in values]
    if len(vals) != len(painted):
        raise ValueError(
            f"expected {len(painted)} coefficients for painted nodes {painted}, got {len(vals)}"
        )
    return KahlerParam(dict(zip(painted, vals)))


def random_kahler_param(flag: FlagData, seed) -> KahlerParam:
    """Deterministic pseudo-random parameter with coefficients in (0, 10]."""
    rng = random.Random(str(seed))
    coeffs = {}
    for i in sorted(flag.pd.painted):
        den = rng.randint(1, 12)
        coeffs[i] = Fraction(rng.randint(1, 10 * den), den)
    return KahlerParam(coeffs)


def to_dot(diagram: Diagram, painted=frozenset(), name: str = "dynkin") -> str:
    """DOT rendering of a (possibly extended) diagram with painted nodes filled."""
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for v in diagram.nodes:
        attrs = []
        if v == 0:
            attrs.append('label="0 (affine)"')
        if v in painted:
            attrs.append("style=filled fillcolor=black fontcolor=white")
        lines.append(f"  n{v}" + (f" [{' '.join(attrs)}]" if attrs else "") + ";")
    for a, b, mult, short in diagram.edges:
        attrs = []
        if mult > 1:
            attrs.append(f'label="{mult}"')
        if short == a:
            attrs.append("dir=back")
        elif short == b:
            attrs.append("dir=forward")
        elif short == "both":
            attrs.append("dir=both")
        lines.append(f"  n{a} -- n{b}" + (f" [{' '.join(attrs)}]" if attrs else "") + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"
