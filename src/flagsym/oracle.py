"""Brute-force transvection oracle via the Levi-Civita equations.

A root vector E_a (a in R_m+) generates a transvection exactly when, for
every decomposition -a = beta + gamma with beta, gamma in R_m, the cyclic sum

    n(beta, gamma) r(a) + n(a, gamma) r(beta) + n(beta, a) r(gamma)

vanishes, where r(d) = epsilon_d * d(xi) * b(d) is the pairing of E_d with
E_{-d} (a common factor -i is dropped; every significant term carries one).
Everything is exact arithmetic: a sum is zero or it is not.

The shortcut variant evaluates the equivalent scalar condition

    ((1 + epsilon_gamma) gamma + (1 + epsilon_beta) beta)(xi) = 0

without structure constants; the two must agree on every input.  Neither
reuses the combinatorial criterion (a + R_m+) n R = empty from the symmetry
module, so agreement with it is a genuine cross-check.

Both oracles work in integers.  Once per call, xi is scaled by L, the lcm of
the denominators of its coefficients, so d(xi) * L is an integer for every
root d; b(d) = 2/(d, d) is 1, 2 or 3 and is checked to be integral.  Each
cyclic sum and each scalar is linear in the d(xi), so scaling multiplies it
by L > 0: its sign, and whether it is zero, are unchanged.  The witnesses the
``*_violations`` functions report are divided by L again, so they are the
exact rational values of the unscaled sums.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .chevalley import ChevalleyTable, _int_b
from .flag import FlagData, KahlerParam
from .rootsystem import Root, rneg


def pairing(flag: FlagData, xi: KahlerParam, table: ChevalleyTable, d: Root) -> Fraction:
    """r(d) = epsilon_d * d(xi) * b(d); strictly positive on all of R_m."""
    if d not in flag.r_m:
        raise ValueError("pairing is defined on tangent roots only")
    return flag.epsilon(d) * flag.eval_root(xi, d) * table.b_of(d)


def _scaled_values(flag: FlagData, xi: KahlerParam) -> tuple[int, dict[Root, int]]:
    """L and the integers d(xi) * L for every d in R_m."""
    painted = sorted(flag.pd.painted)
    coeffs = [xi.coeffs[i] for i in painted]
    scale = lcm(*(c.denominator for c in coeffs))
    weights = [
        (i - 1, c.numerator * (scale // c.denominator)) for i, c in zip(painted, coeffs)
    ]
    return scale, {d: sum(d[j] * w for j, w in weights) for d in flag.r_m}


def _decompositions(flag: FlagData, a: Root):
    """Unordered pairs (beta, gamma) in R_m x R_m with beta + gamma = -a."""
    r_m = flag.r_m
    for beta, gamma in flag.rs.splittings[rneg(a)]:
        if beta <= gamma and beta in r_m and gamma in r_m:
            yield beta, gamma


def _cyclic_sums(flag: FlagData, table: ChevalleyTable, r: dict[Root, int], a: Root):
    """Nonzero (beta, gamma, sum) over the decompositions of -a, in r's scale."""
    sum_index = flag.rs.sum_index
    r_h = flag.r_h
    n = table.n

    def n_m(x: Root, y: Root) -> int:
        # m-projection: brackets landing in the isotropy algebra drop out
        s = sum_index.get((x, y))
        if s is None or s in r_h:
            return 0
        return n.get((x, y), 0)

    ra = r[a]
    for beta, gamma in _decompositions(flag, a):
        total = n_m(beta, gamma) * ra + n_m(a, gamma) * r[beta] + n_m(beta, a) * r[gamma]
        if total:
            yield beta, gamma, total


def _shortcut_sums(flag: FlagData, w: dict[Root, int], a: Root):
    """Nonzero (beta, gamma, w(beta) + w(gamma)), w(d) = (1 + eps_d) d(xi) scaled."""
    for beta, gamma in _decompositions(flag, a):
        total = w[gamma] + w[beta]
        if total:
            yield beta, gamma, total


def _pairings(flag: FlagData, xi: KahlerParam, table: ChevalleyTable) -> tuple[int, dict]:
    scale, v = _scaled_values(flag, xi)
    return scale, {d: flag.epsilon(d) * x * _int_b(table, d) for d, x in v.items()}


def _shortcut_weights(flag: FlagData, xi: KahlerParam) -> tuple[int, dict]:
    scale, v = _scaled_values(flag, xi)
    return scale, {d: (1 + flag.epsilon(d)) * x for d, x in v.items()}


def _check_candidate(flag: FlagData, a: Root) -> None:
    if a not in flag.r_m_plus_set:
        raise ValueError("transvection candidates live in R_m+")


def transvection_violations(
    flag: FlagData, xi: KahlerParam, table: ChevalleyTable, a: Root
) -> list[tuple[Root, Root, Fraction]]:
    """Witnessing (beta, gamma, sum) tuples where the cyclic sum is nonzero."""
    _check_candidate(flag, a)
    scale, r = _pairings(flag, xi, table)
    return [(b, g, Fraction(t, scale)) for b, g, t in _cyclic_sums(flag, table, r, a)]


def transvection_check(
    flag: FlagData, xi: KahlerParam, table: ChevalleyTable, a: Root
) -> bool:
    return not transvection_violations(flag, xi, table, a)


def shortcut_violations(
    flag: FlagData, xi: KahlerParam, a: Root
) -> list[tuple[Root, Root, Fraction]]:
    """Nonzero evaluations of ((1+eps_g) g + (1+eps_b) b)(xi) over decompositions."""
    _check_candidate(flag, a)
    scale, w = _shortcut_weights(flag, xi)
    return [(b, g, Fraction(t, scale)) for b, g, t in _shortcut_sums(flag, w, a)]


def transvection_check_shortcut(flag: FlagData, xi: KahlerParam, a: Root) -> bool:
    return not shortcut_violations(flag, xi, a)


def transvection_set(
    flag: FlagData, xi: KahlerParam, table: ChevalleyTable
) -> frozenset:
    """All transvection roots for one Kahler parameter (structure constants)."""
    _, r = _pairings(flag, xi, table)
    return frozenset(
        a for a in flag.r_m_plus if next(_cyclic_sums(flag, table, r, a), None) is None
    )


def shortcut_set(flag: FlagData, xi: KahlerParam) -> frozenset:
    """All transvection roots by the scalar condition (no structure constants)."""
    _, w = _shortcut_weights(flag, xi)
    return frozenset(
        a for a in flag.r_m_plus if next(_shortcut_sums(flag, w, a), None) is None
    )
