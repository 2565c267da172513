"""Integer structure constants of a Chevalley basis.

For every pair of roots with a + b again a root the table stores the integer
n(a, b) with [E_a, E_b] = n(a, b) E_{a+b}.  The pairing weights b(d) =
2/(d, d) are fixed by the root system and live there, as
``RootSystem.weights``.  In this basis the Killing pairing of E_d with E_{-d}
is proportional to b(d), and for any zero-sum triple a + b + c = 0 the
constants satisfy the weighted cyclic identity

    n(a, b) b(c) = n(b, c) b(a) = n(c, a) b(b),

which collapses to n(a, b) = n(b, c) = n(c, a) on simply-laced systems.

Signs are fixed by the extraspecial-pair convention: positive roots are
ordered by (height, coordinates); for each non-simple positive root the
special decomposition with the smallest first summand gets n = +(p+1), and
every other constant is propagated from those choices through the Jacobi and
cyclic identities.  The construction is deterministic and reproducible.

Table and build live on the dense root index of :class:`RootSystem`.  The
positive roots are the indices 0..N-1 in (height, coordinates) order, so the
order of the convention is the index order.  The decompositions gamma =
alpha + beta of a positive root, alpha < beta, alpha ascending, are
``rs.decompositions[gamma]``, listed when the root index is built; the audit
never reads them, so a wrong list gives a table whose digest misses its pin
and that is then judged against ``sums`` and ``add``.  Every
weight b(d) is the int 1, 2 or 3.  The table stores n as ``n_dense``, an int8
array with n(roots[i], roots[j]) at ``i * C + j`` (C = 2N, zero where the sum
is no root).

Orbits.  Antisymmetry n(b, a) = -n(a, b) and the negation rule n(-a, -b) =
-n(a, b) tie the four pairs {(a, b), (b, a), (-a, -b), (-b, -a)} of an orbit
to one value.  A zero-sum class {T, -T}, T = (a, b, c) with a + b + c = 0,
holds three orbits, those of (a, b), (b, c) and (c, a), and the weighted
cyclic identity ties their values.  A sum pair (a, b) lies in the one class
closed by c = -(a + b), so the classes part the sum pairs, twelve to a
class.  The build writes each class once, from its member with two positive
roots, (alpha, beta, -gamma) with alpha < beta: the member at which the
verdict checks the cyclic identity.  Given x = n(alpha, beta), the identity
gives n(beta, -gamma) = x b(gamma) / b(alpha) and n(-gamma, alpha) = x
b(gamma) / b(beta), each an exact integer quotient with its remainder
checked.

The build is one pass over the non-simple positive roots gamma in index
order, and over the decompositions of each with alpha ascending.  The
extraspecial pair (eps, eta), the first, gets x = p + 1.  Every other pair
takes x from the E_beta coefficient of the Jacobi identity on (E_{-alpha},
E_eps, E_eta), which reads, with top = n(eps, eta) = p + 1,

    top n(-alpha, gamma) = n(-alpha, eps) n(eps - alpha, eta)
                           + n(eta, -alpha) n(eta - alpha, eps),

each term zero where eps - alpha or eta - alpha is no root; the cyclic
identity on (alpha, beta, -gamma) makes n(alpha, beta) = n(-alpha, gamma)
b(beta) / b(gamma).  That quotient is exact, and |x| is p + 1, or the build
raises.  The four constants on the right lie in the classes of alpha = eps +
(alpha - eps), eta = (alpha - eps) + beta and beta = (beta - eps) + eps, all
of lower height than gamma, so they were written before gamma was reached.

The audit (:func:`convention_violations`) reads the stored array, so a table
changed after construction is audited as it stands.  It has two tiers.  The
verdict, :func:`sign_convention_check`, checks each identity once per orbit
and stops at the first fault.  Only when it fails does the witness tier run:
the pair and cyclic checks on every pair, then the zero check on every
other pair, in index order, then the Jacobi check on every triple that can
fail, so the witnesses and their order are those of the exhaustive
enumeration.  The verdict passes exactly when the witness tier reports
nothing, by the arguments below.

- Weights.  The verdict first requires b(-r) = b(r) on every root, and the
  witness tier first names each positive root r where it fails.  The cycle
  argument below needs it: the three weights of a negated triple are those
  of the triple.
- Pairs.  The antisymmetry, negation and |n| = p+1 checks of a pair read
  only the entries of its orbit.  The verdict visits each orbit once, from
  its member (i, j) with i positive and j > i (j positive) or -j > i (j
  negative), and checks antisymmetry and the negation rule on all four
  entries, and |n| against the i-string through j.  That one walk serves
  the orbit: the strings of (-i, -j) and (-j, -i) are those of (i, j) and
  (j, i) negated, and the j-string through i runs down as far as the
  i-string through j whenever i + j is a root, since n(j, i) = -n(i, j) and
  |n| = p + 1 in any Chevalley basis (Carter, *Simple Groups of Lie Type*,
  ch. 4; the tests check it on every sum pair through rank 8).
- Cycles.  A zero-sum triple {a, b, c} and its negation carry twelve
  identities, one per ordered pair.  The three rotations state the same
  equalities; reversing the order negates every term by antisymmetry, and
  negating the roots does too by the negation rule.  So once the pair checks
  are clean the twelve hold together.  One triple of each class {T, -T} has
  two positive roots i < j, and the verdict checks the identity there.
- Zeros.  n is zero where a + b is no root.  Once |n| = p + 1 >= 1 holds on
  every sum pair, that is so exactly when ``n_dense`` has as many nonzero
  entries as the ``sums`` masks have bits, and the verdict counts them.

The exhaustive Jacobi check visits only the triples that can fail, and this
pruning is exact.  Each term of

    [[E_x, E_y], E_z] + [[E_y, E_z], E_x] + [[E_z, E_x], E_y]

lies in the weight space g_{x+y+z}, which is zero unless x + y + z is a root
or 0, and each term vanishes unless its first two roots sum to a root or to
0.  So, whatever the constants in the table, a triple whose sum is not in
R ∪ {0}, or none of whose pairs sums into R ∪ {0}, has defect zero.  The
remaining triples, the candidates, are found from the ``sums`` masks, each
once, from its first pair (in index order) that sums into R ∪ {0}.  The
witness tier walks every pair (:func:`_jacobi_pairs`); the verdict walks
only the pairs of a simple root (:func:`_jacobi_candidates`).

Once the pair and cyclic checks are clean, the verdict reasons as follows.

- Negation.  The Jacobi terms read n only at sum pairs, where the negation
  rule n(-a, -b) = -n(a, b) holds.  Negating a triple negates both factors
  of each root term n(a, c) n(a + c, d), so the term keeps its value; a
  Cartan term m H_{s^v} becomes (-m) H_{-s^v}, the same element; the
  a-string lengths that give <d, a^v> are those of the (-a)-string through
  -d; and the sorted negated triple is a cyclic shift of (-x, -y, -z), whose
  defect is the same sum.  So the defect of (-x, -y, -z) is the image of the
  defect of (x, y, z) under the negation, and one is zero exactly when the
  other is (Carter, *Simple Groups of Lie Type*, ch. 4).  Antisymmetry holds
  at the same pairs, so permuting a triple changes its defect only in sign.
- Zero-sum triples (x + y + z = 0) have no root term; the defect is the
  Cartan part n(x, y) H_{(x+y)^v} + n(y, z) H_{(y+z)^v} + n(z, x)
  H_{(z+x)^v}.  Under the identification of h with h* by the invariant form,
  H_{(-z)^v} = -b(z) z, and the weighted cyclic identity n(x, y) b(z) =
  n(y, z) b(x) = n(z, x) b(y) = K makes the sum -K (x + y + z) = 0.
- Opposite-pair triples (p, -p, r) have x + y + z = r, and the defect is the
  E_r coefficient <r, p^v> + n(-p, r) n(r - p, p) + n(r, p) n(r + p, -p).
  The Cartan integer depends on the root system alone.  By the negation rule
  n(r - p, p) = -n(p - r, -p), and the weighted cyclic identity on the
  zero-sum triple (-p, r, p - r) gives n(p - r, -p) b(r) = n(-p, r) b(p - r),
  so the first product is -n(-p, r)^2 b(r - p) / b(r), zero when r - p is no
  root.  Antisymmetry, the negation rule and the identity on (r, p, -(r + p))
  make the second +n(r, p)^2 b(r + p) / b(r) in the same way.  The check
  |n| = p + 1 fixes each square, so the defect is the same on every table
  that passes the pair and cyclic checks.  A Chevalley basis passes them and
  satisfies the Jacobi identity, so that defect is zero (the tests evaluate
  every such triple of the built tables through E8).
- Generic triples T = (x, y, z) have no opposite pair and a root t = x + y +
  z.  With u = -t the quadruple Q = {x, y, z, u} sums to zero.  The weighted
  cyclic identity on (x + y, z, u) gives n(x + y, z) b(t) = n(z, u) b(x + y),
  and likewise for the other two terms, so the defect of T, the coefficient
  of E_t, is G(Q) / b(t) with

      G(Q) = n(x, y) n(z, u) b(x + y) + n(y, z) n(x, u) b(y + z)
             + n(z, x) n(y, u) b(z + x),

  one term per pairing of Q, zero when its pairs sum to no root.  Since
  b(x + y) = b(z + u), antisymmetry makes every transposition of Q map G to
  -G, so G changes only sign under every permutation of Q, and every triple
  Q - {w} has defect +-G(Q) / b(w): all four are zero together.  G = 0 is the
  identity of Carter, Lemma 4.1.2, for four roots of zero sum.  With the
  negation argument, every triple of Q and of -Q has zero defect once one
  has.  A quadruple that repeats a root, Q = {a, a, y, u}, has G(Q) = 0 on
  every such table: the two pairings that part the copies of a cancel by
  antisymmetry (b(a + y) = b(a + u)), and the third pairs a with itself.
- Derivation.  It is enough to evaluate the classes that hold a simple
  root.  Read the table as the bracket of g = h + sum E_d, with [H, E_d] =
  d(H) E_d and [E_d, E_{-d}] = H_{d^v}.  The x in g for which ad x is a
  derivation, [x, [v, w]] = [[x, v], w] + [v, [x, w]], form a subalgebra D,
  since ad [x, x'] = [ad x, ad x'] once ad x is a derivation, and the
  commutator of two derivations is one.  h lies in D by the grading: every
  bracket of table entries [E_v, E_w] lies in g_{v+w}.  E_{+-a_i} lies in D
  when every triple (+-a_i, v, w) of roots has zero defect; a triple with an
  element of h in it has zero defect by the grading.  The pair checks give
  |n| = p + 1 >= 1 on every sum pair, so [E_{a_i}, E_d] != 0 whenever a_i + d
  is a root, and the E_{+-a_i} generate g: every positive root is a sum of
  simple roots with each partial sum a root, and H_{a_i^v} = [E_{a_i},
  E_{-a_i}] span h.  So D = g, and the Jacobi identity holds on all of g
  (Humphreys, *Introduction to Lie Algebras and Representation Theory*,
  §18; Carter, Lemma 4.1.2).  By the negation argument, a triple (-a_i, v, w)
  has zero defect when (a_i, -v, -w) has, so the classes {Q, -Q} with a
  simple root a in Q are the ones to evaluate.  Take such a Q = {a, y, z,
  u}, and say a pairs with w when a + w is a root.  If a pairs with no
  other root of Q, every pairing of Q puts a beside a root it does not pair
  with, and G(Q) = 0.  If a pairs with y, it pairs with a second root of Q:
  were a + z and a + u no roots, ad E_a would kill E_z and E_u in the
  simple Lie algebra of the root system, and so [E_z, E_u], a nonzero
  multiple of E_{-(a+y)}; but a - (a + y) = -y is a root, so [E_a,
  E_{-(a+y)}] != 0 (Humphreys, Prop. 8.4).  :func:`_jacobi_candidates`
  therefore walks each simple root a (the indices 0..rank-1) against its
  partners y in index order, with s = a + y, and takes as third roots the
  partners z > y of a with s + z a root.  From each class with a and a
  pairing it takes the triple of a and the two smallest partners of a in
  Q, and it leaves out
  - z = -y, an opposite pair, and z = -(2a + y), whose Q repeats a;
  - y and z among the +-simple roots of lower index than a: their class
    holds a lower simple root and is met there, at its lowest one, where
    nothing is left out this way.
  E8 evaluates 5 859 triples: one in each of the 5 614 classes that hold a
  simple root, and 245 more in classes that hold two.  A class in which a
  pairs with all three other roots (types C and F) gives up to three.
  Every evaluated triple is a candidate of the witness tier, whose defect
  is that of the sorted triple up to sign, so the verdict stays exact.  The
  verdict takes the bits of each mask lowest first, so it evaluates the
  triples in the order of the walk.

The witness tier evaluates every candidate triple, sorted, with one
evaluator: the sum of its three terms, at E_{x+y+z} or, for a zero-sum
triple, in the Cartan subalgebra.  It assumes nothing of the pair checks, so
it decides a triple with an opposite pair or a zero sum as it decides any
other.  A zero-sum defect sum m H_{s^v} is zero exactly when sum m <a_k,
s^v> = 0 for every simple root a_k, since the simple roots span h*.

Certificates.  The verdict is a function of the arrays it reads: the roots
in index order (the heights and the count), ``rs.neg``, ``rs.weights``,
``sums``, ``add`` and ``n_dense``.  :func:`digest` is the sha256 of exactly
these, in a byte order that does not depend on the host (``add`` rows are
read-only views of native-endian ``array('H')``, and are hashed
little-endian).  Two tables with the same digest have the same arrays, so the
verdict on one is the verdict on the other.  ``AUDITED_DIGESTS`` pins one digest per type through rank 8, and
the tests build every one of those types with the audit and require its
digest to equal the pin, so a pin names only a build that passed the audit.
:func:`build_constants` therefore certifies a table whose digest equals its
pin without running the audit again: equality with an audited build is the
audit's verdict, not the audit run once more, and the table says which of the
two it has (``certified``).  A table whose digest misses its pin (a changed
builder or root system) or whose type has no pin gets the exhaustive audit,
whatever its size, and raises when the audit fails.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from itertools import chain, islice

from .rootsystem import (
    InternalConsistencyError,
    Root,
    RootSystem,
    bits,
    walk,
)


class ChevalleyTable:
    """Structure constants n for one root system.

    ``n_dense`` holds n(roots[i], roots[j]) at ``i * C + j`` over the root
    index (C = |R|) as int8, zero where roots[i] + roots[j] is no root; the
    weights b are ``rs.weights``.  ``certified`` says how
    :func:`build_constants` knows the table passes the audit: ``"audit"``
    when it ran the exhaustive audit in this process, ``"digest"`` when the
    table's digest equals the pin of an audited build, None on a table it
    did not build (a changed copy).  :func:`flagsym.oracle.oracle_check`
    reads the oracles' verdict off the certificate, and audits an
    uncertified table.  Two tables are equal only when they are one object.
    """

    __slots__ = ("rs", "n_dense", "certified")

    def __init__(self, rs: RootSystem, n_dense: array, certified: str | None = None):
        self.rs, self.n_dense, self.certified = rs, n_dense, certified

    def n_of(self, a: Root, b: Root) -> int:
        """n(a, b); zero when a + b is not a root."""
        index = self.rs.index
        return self.n_dense[index[a] * len(self.rs.roots) + index[b]]


def digest(table: ChevalleyTable) -> str:
    """The sha256 (hex) of every array the audit reads (module docstring)."""
    rs = table.rs
    count = len(rs.roots)
    width = (count + 7) // 8
    wide = array("H", rs.neg)  # the 16-bit arrays, little-endian
    wide.frombytes(b"".join(rs.add))
    if sys.byteorder == "big":
        wide.byteswap()
    h = hashlib.sha256(f"{rs.name} {count}\n".encode())
    h.update(array("b", chain.from_iterable(rs.roots)))
    h.update(bytes(rs.weights))
    h.update(b"".join(s.to_bytes(width, "little") for s in rs.sums))
    h.update(wide)
    h.update(table.n_dense)
    return h.hexdigest()


# the digest of each type's table as built and audited exhaustively; the
# tests audit every one of them again and compare
AUDITED_DIGESTS = {
    "A1": "3ed934a28efdea2cd1ccb0b38fbf5025a5bceb4eebeb0d7a4560dd81851d2949",
    "A2": "be1c20b09ed5769ff82918e82e1185f1b12ef3798a1186b0688963ed26343526",
    "A3": "e128ba76c6528ef16d926f600005da28bae1657cc8ea1e2910c20faf13e61bf4",
    "A4": "39fc232e64dd8e53acbb2be396edae0f5a472f817b1e4575e4880118ce47f30a",
    "A5": "6c541d547ce03869a4177908ddaa38398cd1f82132af67905bf979b802018bf7",
    "A6": "31a83949185b6e78f4b955df984415ddc7d51558559d1a3ef8cc198f7f15bf5f",
    "A7": "d6afdccb24aa2c84fc677020542723301414c150f3d758de8a19a01fba0229bc",
    "A8": "a75e820d393177e0b5282bd8fcc74b910ee0622e9ffc62da86d8eda4f5eb7181",
    "B2": "b4bb65f30927d183279d0c90dc820e69b658609c9759f7887466305d4eed4fc0",
    "B3": "e749f9a68e50cacd6f8208a34d2489b361c5763ae0c01a6a2198bb609afa10c5",
    "B4": "f1820e1acaff4730127310a1d79cc9b0aa93f20ab67a62416d9d69d3f1def27b",
    "B5": "fe5c54af0f1b47a1756a2c95f36b4d6cf6d37f52c9927c1c7aab3cb0ec682f4c",
    "B6": "dee748d290bc771be132d5760c61568eeea8f8b6d2ea54962ee94a537785460c",
    "B7": "455018f6b292e8355802be27ee6e1f44a18f36c9d992712829004f9a921b7c1a",
    "B8": "f508d77c95537f46a0898dc78e9ef19ac550f676243b9dfed9d1edd30bc96606",
    "C3": "f249fdb08f3fda9342d94e9c676f815160829d720c386202a2d6e8a1dfd103b8",
    "C4": "5443b8e7eb41ad32aa436b44e335c3cd31a8e36cae37b88ac69cca91a35c00c8",
    "C5": "f75ab99ae99070352756a7875c5fc6098ac5b1f7ff4c6c685ee0035302118ee9",
    "C6": "c9aa73991d42ada646aa6abfd2245a04fd9445373791b1c548d0814e8719bd0a",
    "C7": "78622670a1aa253185b37d7bc7e99198583408088fdbfec468b139440b9a8138",
    "C8": "45e095e80112c4b5a107431cd65f57dae437f1f010dafb132153e6a71ed02d89",
    "D4": "8d581d1b4f229e8ab0147aec0aa396ec74aa719c1481ab04fd8369bd7a162a34",
    "D5": "9cbc12b8d4123d9740666db2cc57776072e6a347ee6c4cc05bb7be62567c493f",
    "D6": "4bff98b59062cf39d66723189e2ae52648a4b997edf7ec71df7799901e999925",
    "D7": "2067d5ee697d608d60fb474e2b99b3b4ed4736a3f21f28cecb74b4c34a2b8e85",
    "D8": "4925652b243e82a008375c81dbe8cd6cffb67eafa1f325df2af1e2af9ea0ffbe",
    "E6": "30d178a24255a6e8076cff8093c6cbd6deef433ecb65f81b31c7beae31db0d38",
    "E7": "d020fa11649fc2628b4e1471ca155c5a01152cdbe5e08a7bb216643d3bd9bda6",
    "E8": "4fb84b045ed958297e9927ca615f1216c65a0292b8d744f917f6602af5666ecf",
    "F4": "41564bfdd1c59871f22bcab7cba5556282c22f73d7f8346f8aec21de84ace66e",
    "G2": "85b7a43f4fcae65a1be0e7b110e374dd77a39b739be5c97b000eebe78eb1777c",
}


def build_constants(rs: RootSystem, verify: bool = False) -> ChevalleyTable:
    """Build the full constant table for ``rs``.

    ``verify`` controls the certificate (module docstring): False certifies
    a table whose digest equals its pin in ``AUDITED_DIGESTS`` and runs the
    exhaustive audit on any other, True always runs the audit.  A failed
    audit raises InternalConsistencyError.
    """
    roots, neg, add = rs.roots, rs.neg, rs.add
    count, half = len(roots), len(rs.positive_roots)
    b = rs.weights
    n = array("b", bytes(count * count))

    for gamma in range(rs.rank, half):  # the simple roots 0..rank-1 do not split
        pairs = rs.decompositions[gamma]  # gamma = al + be, al < be, al ascending
        if not pairs:
            raise InternalConsistencyError(f"no decomposition for {roots[gamma]}")
        eps, eta = pairs[0]  # the extraspecial pair: minimal first summand
        x = top = walk(add[neg[eps]], eta) + 1
        ng = neg[gamma]
        for al, be in pairs:
            na = neg[al]
            if al != eps:
                # Jacobi on (E_{-al}, E_eps, E_eta) at E_be: top n(-al, gamma)
                # = num, a term zero where eps - al or eta - al is no root; the
                # cyclic identity on (al, be, -gamma) gives n(al, be) =
                # n(-al, gamma) b(be) / b(gamma) (module docstring)
                u, w = add[na][eps], add[eta][na]  # eps - al, eta - al
                num = (n[na * count + eps] * n[u * count + eta] if u < count else 0) + (
                    n[eta * count + na] * n[w * count + eps] if w < count else 0
                )
                num, den = num * b[be], top * b[gamma]
                x, rem = divmod(num, den)
                expected = walk(add[na], be) + 1
                if rem or abs(x) != expected:
                    raise InternalConsistencyError(
                        f"constant for ({roots[al]}, {roots[be]}) came out "
                        f"{f'{num}/{den}' if rem else x}, |.| != {expected}"
                    )
            # the three orbits of the class {(al, be, -gamma), its negation}:
            # n(p, q) b(r) = x b(-gamma) on each rotation (p, q, r), and each
            # orbit is filled by antisymmetry and the negation rule
            k = x * b[ng]
            for p, q, r in ((al, be, ng), (be, ng, al), (ng, al, be)):
                v, rem = divmod(k, b[r])
                if rem:
                    raise InternalConsistencyError(
                        f"non-integral constant for ({roots[p]}, {roots[q]})"
                    )
                np, nq = neg[p], neg[q]
                n[p * count + q] = n[nq * count + np] = v
                n[q * count + p] = n[np * count + nq] = -v

    table = ChevalleyTable(rs, n)
    if not verify and AUDITED_DIGESTS.get(rs.name) == digest(table):
        table.certified = "digest"
    elif sign_convention_check(table):
        table.certified = "audit"
    else:
        raise InternalConsistencyError(f"{rs.name}: constant table fails the audit")
    return table


def _jacobi_pairs(rs: RootSystem):
    """The candidate Jacobi triples as (p, q, third): the triples (p, q, r), r in ``third``.

    A pair (p, q) qualifies when roots p + q lies in R ∪ {0}.  For each
    qualifying pair p < q the third root r must put p + q + r in R ∪ {0}
    (any r when q = -p), and the triple is kept only when (p, q) is its first
    qualifying pair: no r < q pairs with p, and no r < p pairs with q.
    """
    count, neg, add = len(rs.roots), rs.neg, rs.add
    pairs = [rs.sums[i] | 1 << neg[i] for i in range(count)]
    every = (1 << count) - 1
    for p in range(count):
        later = pairs[p] >> (p + 1) << (p + 1)
        below_p = (1 << p) - 1
        for q in bits(later):
            third = every if q == neg[p] else pairs[add[p][q]]
            third &= ~(1 << p | 1 << q | pairs[p] & ((1 << q) - 1) | pairs[q] & below_p)
            if third:
                yield p, q, third


def _jacobi_candidates(rs: RootSystem):
    """The generic triples the verdict evaluates, as (a, y, third).

    For each simple root a, in index order, and each partner y of a (a + y a
    root) that is no +-simple root of lower index, ``third`` holds the
    partners z > y of a with a + y + z a root, less -y, -(2a + y) and the
    +-simple roots of lower index: the triples (a, y, z) of the derivation
    argument (module docstring).
    """
    neg, add, sums = rs.neg, rs.add, rs.sums
    # 1 << neg[u] for each root u, and 0 for add's no-root mark u = count
    negbit = [1 << i for i in neg]
    negbit.append(0)
    lower = 0  # the +-simple roots of lower index than a
    for a in range(rs.rank):
        row, partners = add[a], sums[a] & ~lower
        for y in bits(partners):
            s = row[y]
            third = sums[s] & partners >> (y + 1) << (y + 1) & ~(negbit[y] | negbit[row[s]])
            if third:
                yield a, y, third
        lower |= 1 << a | negbit[a]


def _witnesses(table: ChevalleyTable):
    """Every witness of the audit: b(-r) = b(r) on each positive root r,
    then the pair checks on each pair, then the weighted cyclic identity on
    each pair, then each nonzero n off the sum pairs, in index order, then
    the Jacobi check on each candidate triple, in the order of the walk."""
    rs = table.rs
    roots, neg, add, sums, b = rs.roots, rs.neg, rs.add, rs.sums, rs.weights
    count = len(roots)
    # the stored constants as they stand now, as a list: CPython indexes a
    # list faster than an array, and the Jacobi loop reads one entry per term
    n = table.n_dense.tolist()
    for i in range(count // 2):
        if b[neg[i]] != b[i]:
            yield f"b(-r) != b(r) at r = {roots[i]}: {b[neg[i]]} vs {b[i]}"
    for i in range(count):
        for j in bits(sums[i]):
            v = n[i * count + j]
            if v != -n[j * count + i]:
                yield f"antisymmetry fails at ({roots[i]}, {roots[j]})"
            if v != -n[neg[i] * count + neg[j]]:
                yield f"negation rule fails at ({roots[i]}, {roots[j]})"
            p = walk(add[neg[i]], j)
            if abs(v) != p + 1:
                yield f"|n| != p+1 at ({roots[i]}, {roots[j]}): {v} vs {p + 1}"
    for i in range(count):
        row = add[i]
        for j in bits(sums[i]):
            k = neg[row[j]]
            lhs = n[i * count + j] * b[k]
            if lhs != n[j * count + k] * b[i] or lhs != n[k * count + i] * b[j]:
                yield f"weighted cyclic identity fails on ({roots[i]}, {roots[j]}, {roots[k]})"
    for i in range(count):
        for j in range(count):
            if n[i * count + j] and not sums[i] >> j & 1:
                yield f"n nonzero off the sum pairs at ({roots[i]}, {roots[j]})"

    def defective(x: int, y: int, z: int) -> bool:
        """Whether [[E_x,E_y],E_z] + [[E_y,E_z],E_x] + [[E_z,E_x],E_y] != 0."""
        at_root = 0  # the coefficient of E_{x+y+z}
        at_cartan = []  # (n, s) for each term n [E_s, E_{-s}] = n H_{s^v}
        for a, c, d in ((x, y, z), (y, z, x), (z, x, y)):
            if c == neg[a]:
                # [H_{a^v}, E_d] = <d, a^v> E_d
                at_root += rs.cartan_integer(d, a)
                continue
            s = add[a][c]
            if s == count:
                continue
            if s == neg[d]:
                at_cartan.append((n[a * count + c], s))
            elif add[s][d] != count:
                at_root += n[a * count + c] * n[s * count + d]
        if at_cartan:  # x + y + z = 0: the defect lies in the Cartan subalgebra
            # sum m s^v != 0 iff it pairs nonzero with some simple root, the
            # indices 0..rank-1, which span h*
            return any(
                sum(m * rs.cartan_integer(k, s) for m, s in at_cartan) for k in range(rs.rank)
            )
        return at_root != 0

    for p, q, third in _jacobi_pairs(rs):
        for r in bits(third):
            x, y, z = sorted((p, q, r))
            if defective(x, y, z):
                yield f"Jacobi fails on ({roots[x]}, {roots[y]}, {roots[z]})"


def convention_violations(table: ChevalleyTable, *, limit: int | None = None) -> list[str]:
    """Audit the table; returns human-readable witnesses (empty = clean).

    Checks b(-r) = b(r), antisymmetry, the negation rule, |n| = p+1, the
    weighted cyclic identity on every zero-sum triple, n = 0 where a + b is
    no root, and the Jacobi identity on every triple that can fail.  A
    table that passes the verdict (:func:`sign_convention_check`) has no
    witness; any other gets the witness tier, each check on each pair and
    candidate triple in index order.  With ``limit`` the audit stops after that many witnesses.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    if sign_convention_check(table):
        return []
    return list(islice(_witnesses(table), limit))


def sign_convention_check(table: ChevalleyTable) -> bool:
    """True iff b(-r) = b(r) and the pair, weighted cyclic and Jacobi audits pass.

    This is the verdict of :func:`convention_violations`, which checks each
    identity once per orbit (module docstring) and stops at the first fault.
    """
    rs = table.rs
    neg, add, sums = rs.neg, rs.add, rs.sums
    count, half = len(rs.roots), len(rs.positive_roots)
    n, b = table.n_dense.tolist(), rs.weights
    if b[half:] != b[:half]:  # b(-r) = b(r), which the one cyclic check per class needs
        return False
    positive, every = rs.positive_mask, (1 << count) - 1
    for i in range(half):
        ni = neg[i]
        row, row_ni, ic, nic = add[i], add[ni], i * count, ni * count
        # one pair per orbit {(i, j), (j, i), (-i, -j), (-j, -i)}: j > i
        # when j is positive, -j > i when j is negative
        for j in bits(sums[i] & (positive >> (i + 1) << (i + 1) | every >> (ni + 1) << (ni + 1))):
            v, nj = n[ic + j], neg[j]
            if n[j * count + i] != -v or n[nic + nj] != -v or n[nj * count + ni] != v:
                return False
            # |n| = p + 1, p the steps down the i-string from j
            k, m = row_ni[j], 1
            while k != count:
                k, m = row_ni[k], m + 1
            if abs(v) != m:
                return False
            if j < half:  # the one pair of its zero-sum class with both roots positive
                k = neg[row[j]]
                lhs = v * b[k]
                if lhs != n[j * count + k] * b[i] or lhs != n[k * count + i] * b[j]:
                    return False
    # |n| >= 1 on every sum pair, so a count tells that n is zero off them
    if count * count - table.n_dense.tobytes().count(0) != sum(map(int.bit_count, sums)):
        return False
    # the rows of the simple roots, padded with 0 at add's no-root mark count
    simple = [n[a * count : (a + 1) * count] + [0] for a in range(rs.rank)]
    for a, y, third in _jacobi_candidates(rs):
        # the pair checks hold, so the defect of (a, y, z) is that of the
        # sorted triple up to sign: the E_{a+y+z} coefficient
        # n(a, y) n(a + y, z) - n(y, z) n(a, y + z) + n(a, z) n(y, a + z),
        # whose second term reads 0 where y + z is no root
        n_a, yc, row_a, row_y = simple[a], y * count, add[a], add[y]
        ay, sc = n_a[y], row_a[y] * count
        while third:  # the bits of third, lowest first
            low = third & -third
            third ^= low
            z = low.bit_length() - 1
            if ay * n[sc + z] - n[yc + z] * n_a[row_y[z]] + n_a[z] * n[yc + row_a[z]]:
                return False
    return True
