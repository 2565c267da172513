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
from collections import namedtuple
from numbers import Rational

from .rootsystem import Diagram, RootSystem, build_root_system

_PAINTED_RE = re.compile(r"\s*([A-G])\s*([0-9]+)\s*:\s*\{([0-9,\s]*)\}\s*\Z")


def painting_spec(type_name: str, painted) -> str:
    """The compact form '<Family><rank>:{i,j,...}' of a painting, nodes ascending."""
    return f"{type_name}:{{{','.join(map(str, sorted(painted)))}}}"


class PaintedDiagram(namedtuple("PaintedDiagram", "rs painted")):
    """A root system and a nonempty frozenset of its nodes, painted."""

    __slots__ = ()

    def __new__(cls, rs: RootSystem, painted: frozenset[int]):
        if not painted:
            raise ValueError("painted set must be nonempty (empty would give H = G)")
        bad = [i for i in painted if not 1 <= i <= rs.rank]
        if bad:
            raise ValueError(f"painted nodes out of range for {rs.name}: {bad}")
        return super().__new__(cls, rs, painted)

    @property
    def spec(self) -> str:
        return painting_spec(self.rs.name, self.painted)

    def __repr__(self) -> str:
        return f"PaintedDiagram({self.spec})"


def split_painted(text: str) -> tuple[str, int, frozenset[int]]:
    """The family, rank and painted nodes of the compact form
    '<Family><rank>:{i,j,...}', e.g. 'A3:{2,3}', before any root system is built."""
    m = _PAINTED_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse painted diagram {text!r}; expected e.g. 'A3:{{2,3}}'")
    toks = [t.strip() for t in m.group(3).split(",") if t.strip()]
    for t in toks:
        if not t.isdigit():  # digits and blanks pass the pattern: '1 2' lacks a comma
            raise ValueError(
                f"cannot parse painted node {t!r} in {text!r}; expected e.g. 'A3:{{2,3}}'"
            )
    return m.group(1), int(m.group(2)), frozenset(int(t) for t in toks)


def parse_painted(text: str) -> PaintedDiagram:
    """Parse the compact form '<Family><rank>:{i,j,...}', e.g. 'A3:{2,3}'."""
    family, rank, painted = split_painted(text)
    return PaintedDiagram(build_root_system(family, rank), painted)


class KahlerParam:
    """Strictly positive rational coefficients of xi on the painted nodes: ints,
    Fractions or strings such as "1/3", never floats (binary approximations)
    or bools (flags, though ``True`` is the int 1)."""

    def __init__(self, coeffs: dict[int, Rational | str]):
        from fractions import Fraction  # not on the CLI path: no command builds a xi
        for i, v in coeffs.items():
            if isinstance(v, (bool, float)):
                raise ValueError(
                    f"Kahler coefficient {v!r} on node {i} is a {type(v).__name__}; "
                    "give an int, a Fraction or a string such as '1/3'"
                )
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

    The root sets are masks over the root index of ``rs``: ``h_mask``,
    ``m_mask`` and ``m_plus_mask``.  What it describes is fixed at
    construction; the one record that :mod:`flagsym.symmetry` keeps here only
    ever takes one value, so concurrent reads are safe.
    """

    def __init__(self, pd: PaintedDiagram):
        self.pd = pd
        self.rs = rs = pd.rs
        # R_m: the roots with a nonzero coefficient on a painted node; R_h: the rest
        m_mask = 0
        for i in pd.painted:
            m_mask |= rs.support[i - 1]
        self.m_mask = m_mask
        self.h_mask = ((1 << len(rs.roots)) - 1) & ~m_mask
        self.m_plus_mask = m_mask & rs.positive_mask
        self.dim_m = m_mask.bit_count()
        # filled once by flagsym.symmetry: the symmetry roots and the masks
        # of p, [p, p] and h' (a symmetry.Structure)
        self._structure = None

    def is_symmetric_coset(self) -> bool:
        """True iff no two roots of R_m+ sum to a root ([m, m] inside h), that
        is iff one node is painted and its coefficient in the highest root is 1."""
        painted = self.pd.painted
        return len(painted) == 1 and self.rs.highest[min(painted) - 1] == 1

    def __repr__(self) -> str:
        return f"FlagData({self.pd.spec})"


def make_flag(pd: PaintedDiagram) -> FlagData:
    return FlagData(pd)


def kahler_param(flag: FlagData, values) -> KahlerParam:
    """Kahler parameter from coefficients listed in increasing painted-node order."""
    painted = sorted(flag.pd.painted)
    vals = list(values)
    if len(vals) != len(painted):
        raise ValueError(
            f"expected {len(painted)} coefficients for painted nodes {painted}, got {len(vals)}"
        )
    return KahlerParam(dict(zip(painted, vals)))


def random_kahler_param(flag: FlagData, seed) -> KahlerParam:
    """Deterministic pseudo-random parameter with coefficients in (0, 10]."""
    from fractions import Fraction
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
