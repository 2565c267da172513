"""Tuple-level views of a flag that only the tests read.

The program works on the root-index masks of ``FlagData`` and decides the
transvection oracles on the whole Kahler cone, so these helpers moved here
from ``FlagData`` and ``flagsym.oracle``: the value of a root at a Kahler
parameter, the sign epsilon of a tangent root, the T-root modules and the
pairing r(d) of the Levi-Civita equations.
"""

from fractions import Fraction

from flagsym.rootsystem import root_str


def eval_root(flag, xi, a) -> Fraction:
    """a(xi): the pairing of a root with the Kahler parameter."""
    return sum((a[i - 1] * xi.coeffs[i] for i in sorted(flag.pd.painted)), Fraction(0))


def epsilon(flag, a) -> int:
    """+1 on R_m+, -1 on R_m-; undefined on isotropy roots."""
    if a in flag.r_m_plus_set:
        return 1
    if a in flag.r_m:
        return -1
    raise ValueError(f"epsilon undefined on isotropy root {root_str(a)}")


def t_modules(flag) -> dict:
    """The T-root cells of R_m+, keyed by the restriction to the painted nodes."""
    painted = sorted(flag.pd.painted)
    cells: dict = {}
    for r in flag.r_m_plus:
        cells.setdefault(tuple(r[i - 1] for i in painted), []).append(r)
    return {fp: tuple(roots) for fp, roots in cells.items()}


def pairing(flag, xi, table, d) -> Fraction:
    """r(d) = epsilon_d * d(xi) * b(d); strictly positive on all of R_m."""
    if d not in flag.r_m:
        raise ValueError("pairing is defined on tangent roots only")
    return epsilon(flag, d) * eval_root(flag, xi, d) * table.b_of(d)
