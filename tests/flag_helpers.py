"""Tuple-level views of a flag that only the tests read.

The program works on the root-index masks of ``FlagData`` and decides the
transvection oracles on the whole Kahler cone, so these helpers moved here
from ``FlagData`` and ``flagsym.oracle``: the root sets R_h, R_m and R_m+
built from coordinates, independent of the masks, the value of a root at a
Kahler parameter, the sign epsilon of a tangent root, the T-root modules and
the pairing r(d) of the cyclic sums of the Nomizu map.
"""

from fractions import Fraction

from flagsym.rootsystem import root_str
from table_helpers import b_of


def is_tangent(flag, a) -> bool:
    """a is in R_m: it has a nonzero coefficient on a painted node."""
    return any(a[i - 1] for i in flag.pd.painted)


def ref_r_m(flag) -> frozenset:
    """R_m from coordinates."""
    return frozenset(a for a in flag.rs.roots if is_tangent(flag, a))


def ref_r_h(flag) -> frozenset:
    """R_h from coordinates: the roots with no painted node in their support."""
    return frozenset(a for a in flag.rs.roots if not is_tangent(flag, a))


def ref_r_m_plus(flag) -> frozenset:
    """R_m+ from coordinates: the tangent roots with no negative coefficient."""
    return frozenset(a for a in flag.rs.roots if is_tangent(flag, a) and min(a) >= 0)


def eval_root(flag, xi, a) -> Fraction:
    """a(xi): the pairing of a root with the Kahler parameter."""
    return sum((a[i - 1] * xi.coeffs[i] for i in sorted(flag.pd.painted)), Fraction(0))


def epsilon(flag, a) -> int:
    """+1 on R_m+, -1 on R_m-; undefined on isotropy roots."""
    if not is_tangent(flag, a):
        raise ValueError(f"epsilon undefined on isotropy root {root_str(a)}")
    return 1 if min(a) >= 0 else -1


def t_modules(flag) -> dict:
    """The T-root cells of R_m+, keyed by the restriction to the painted nodes."""
    painted = sorted(flag.pd.painted)
    cells: dict = {}
    for r in sorted(ref_r_m_plus(flag)):
        cells.setdefault(tuple(r[i - 1] for i in painted), []).append(r)
    return {fp: tuple(roots) for fp, roots in cells.items()}


def pairing(flag, xi, table, d) -> Fraction:
    """r(d) = epsilon_d * d(xi) * b(d); strictly positive on all of R_m."""
    if not is_tangent(flag, d):
        raise ValueError("pairing is defined on tangent roots only")
    return epsilon(flag, d) * eval_root(flag, xi, d) * b_of(table, d)
