"""Finite rings with dense integer element indices.

Every ring here is small enough (|R| <= 81) that exhaustive verification is
the default posture: arithmetic runs on Cayley tables built once per ring,
unit groups come from a brute-force two-sided inverse scan, subfields are
re-verified axiom by axiom no matter how they were described, and the full
ring axioms can be checked on demand over the whole element set.

Families:

    finite-field(q)       F_q, q a prime power <= 9
    dual-numbers(q)       F_q[e] with e^2 = 0
    matrix2(q)            2x2 matrices over F_q, q in {2, 3}
    upper-triangular2(q)  upper triangular 2x2 matrices over F_q
    product(q,q)          F_q x F_q, componentwise operations

Fixed irreducible polynomials (little-endian coefficient tuples, leading
coefficient included) keep element indices reproducible across runs:

    F_4: x^2 + x + 1      F_8: x^3 + x + 1      F_9: x^2 + 1

The same quadratics drive the Singer embeddings F_{q^2} -> matrix2(q) via
their companion matrices.

Element encodings (all little-endian in the field index, so 0 is always the
zero element):

    finite-field       index = field element
    dual-numbers       a + b*e            -> a + q*b
    matrix2            [[a,b],[c,d]]      -> a + q*b + q^2*c + q^3*d
    upper-triangular2  [[a,b],[0,d]]      -> a + q*b + q^2*d
    product            (a, b)             -> a + q*b
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

SIZE_CAP = 81     # largest ring admitted into the zoo

IRREDUCIBLE = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
}

FAMILIES = ("finite-field", "dual-numbers", "matrix2", "upper-triangular2", "product")


class UnsupportedParameterError(ValueError):
    pass


class NotAFieldError(ValueError):
    pass


class NotProperError(ValueError):
    pass


class NotAUnitError(ValueError):
    pass


class RingMapError(ValueError):
    pass


class RingAxiomError(ValueError):
    """A ring axiom fails on the operation tables; names the first witness."""


def prime_power(q: int) -> tuple[int, int]:
    """Factor q = p^k with p prime, or raise UnsupportedParameterError."""
    for p in (2, 3, 5, 7):
        if q % p == 0:
            m, k = q, 0
            while m % p == 0:
                m //= p
                k += 1
            if m == 1:
                return p, k
            break
    raise UnsupportedParameterError(f"{q} is not a prime power")


class GF:
    """F_q arithmetic tables for q <= 9.

    Elements are integers 0..q-1 read as base-p digit strings: the digits
    are the coefficients of the element as a polynomial in the generator,
    constant term first.  For prime q the index is the residue itself.
    """

    def __init__(self, q: int):
        p, k = prime_power(q)
        if q > 9:
            raise UnsupportedParameterError(f"field order {q} exceeds 9")
        self.q, self.p, self.k = q, p, k
        if k == 1:
            self.add_t = [[(a + b) % p for b in range(p)] for a in range(p)]
            self.mul_t = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            poly = IRREDUCIBLE[q]
            digits = [self._digits(i) for i in range(q)]
            self.add_t = [
                [self._undigits([(x + y) % p for x, y in zip(digits[a], digits[b])])
                 for b in range(q)]
                for a in range(q)
            ]
            self.mul_t = [[self._polymul(digits[a], digits[b], poly) for b in range(q)]
                          for a in range(q)]
        self.neg_t = [self.add_t[a].index(0) for a in range(q)]
        self.inv_t = [None] + [self.mul_t[a].index(1) if 1 in self.mul_t[a] else None
                               for a in range(1, q)]

    def _digits(self, i: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(i % self.p)
            i //= self.p
        return out

    def _undigits(self, ds) -> int:
        val = 0
        for d in reversed(ds):
            val = val * self.p + d
        return val

    def _polymul(self, xs, ys, poly) -> int:
        p, k = self.p, self.k
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                conv[i + j] = (conv[i + j] + x * y) % p
        for deg in range(2 * k - 2, k - 1, -1):
            c = conv[deg]
            if c:
                conv[deg] = 0
                for j in range(k):
                    conv[deg - k + j] = (conv[deg - k + j] - c * poly[j]) % p
        return self._undigits(conv[:k])

    def add(self, a, b):
        return self.add_t[a][b]

    def mul(self, a, b):
        return self.mul_t[a][b]

    def neg(self, a):
        return self.neg_t[a]

    def inv(self, a):
        return self.inv_t[a]


@dataclass(frozen=True)
class RingSpec:
    family: str
    q: int

    def __str__(self):
        if self.family == "product":
            return f"product({self.q},{self.q})"
        return f"{self.family}({self.q})"


class Ring:
    """Finite associative unital ring on element indices 0..size-1.

    Arithmetic is one representation for every family and size: add, mul
    and neg Cayley tables, filled once from the family's structural
    formulas at construction, so add/mul/neg are plain lookups.  The
    transposed mul table serves right multiplication, and the left and
    right canonical-pair tables (least unit multiple of every pair) make
    canonicalizing a single lookup.  Units come from a brute-force
    two-sided inverse scan over the mul table.  Instances are immutable
    after construction and safe to share; the hot loops of projline and
    duality index _add_t, _mul_t and _neg_t directly.
    """

    def __init__(self, spec: RingSpec, size: int, one: int):
        if size > SIZE_CAP:
            raise UnsupportedParameterError(
                f"{spec}: size {size} exceeds the zoo cap {SIZE_CAP}")
        self.spec = spec
        self.size = size
        self.zero = 0
        self.one = one
        els = range(size)
        self._add_t = tuple(tuple(self._struct_add(a, b) for b in els) for a in els)
        self._mul_t = tuple(tuple(self._struct_mul(a, b) for b in els) for a in els)
        self._neg_t = tuple(self._struct_neg(a) for a in els)
        self._mul_cols = tuple(zip(*self._mul_t))  # _mul_cols[b][a] == a*b
        # two-sided inverses by exhaustive scan
        inv: list[Optional[int]] = [None] * size
        for a in els:
            row, col = self._mul_t[a], self._mul_cols[a]
            for b in els:
                if row[b] == one and col[b] == one:
                    inv[a] = b
                    break
        self._inv_t = inv
        self.units = tuple(a for a in els if inv[a] is not None)
        self.unit_set = frozenset(self.units)
        self._pair_left = self._canonical_pairs(np.array(self._mul_t, dtype=np.int64))
        self._pair_right = self._canonical_pairs(np.array(self._mul_cols, dtype=np.int64))
        self._opposite: Optional[Ring] = None

    def _canonical_pairs(self, products: np.ndarray) -> tuple:
        """Table of the least (p[u][a], p[u][b]) over units u, for all a, b.

        The minimum is folded over the units one at a time, so the scratch
        space stays at two |R| x |R| arrays.
        """
        n = self.size
        best = None
        for u in self.units:
            row = products[u]
            key = row[:, None] * n + row[None, :]
            best = key if best is None else np.minimum(best, key, out=best)
        first, second = np.divmod(best, n)
        return tuple(tuple(zip(f, s)) for f, s in zip(first.tolist(), second.tolist()))

    # family hooks -----------------------------------------------------
    def _struct_add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def _struct_mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def _struct_neg(self, a: int) -> int:
        raise NotImplementedError

    def elem_str(self, a: int) -> str:
        return str(a)

    # arithmetic ---------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return self._add_t[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul_t[a][b]

    def neg(self, a: int) -> int:
        return self._neg_t[a]

    def sub(self, a: int, b: int) -> int:
        return self._add_t[a][self._neg_t[b]]

    def inv(self, a: int) -> Optional[int]:
        return self._inv_t[a]

    def is_unit(self, a: int) -> bool:
        return self._inv_t[a] is not None

    def elements(self) -> range:
        return range(self.size)

    def left_products(self, a: int) -> tuple[int, ...]:
        """(a*x for every x), indexable by x: a row of the mul table."""
        return self._mul_t[a]

    def right_products(self, a: int) -> tuple[int, ...]:
        """(x*a for every x), indexable by x: a column of the mul table."""
        return self._mul_cols[a]

    def canonical_pair_left(self, a: int, b: int) -> tuple[int, int]:
        """Least (u*a, u*b) over units u, in index-lexicographic order."""
        return self._pair_left[a][b]

    def canonical_pair_right(self, v: int, w: int) -> tuple[int, int]:
        """Least (v*u, w*u) over units u."""
        return self._pair_right[v][w]

    def opposite(self) -> "Ring":
        """Same elements, reversed multiplication.  Involutive."""
        if self._opposite is None:
            self._opposite = OppositeRing(self)
        return self._opposite

    @property
    def name(self) -> str:
        return str(self.spec)

    def __repr__(self):
        return f"<Ring {self.name}, |R|={self.size}, |R*|={len(self.units)}>"


class FiniteFieldRing(Ring):
    def __init__(self, spec: RingSpec):
        self.gf = GF(spec.q)
        super().__init__(spec, spec.q, 1)

    def _struct_add(self, a, b):
        return self.gf.add_t[a][b]

    def _struct_mul(self, a, b):
        return self.gf.mul_t[a][b]

    def _struct_neg(self, a):
        return self.gf.neg_t[a]

    def elem_str(self, a):
        if self.gf.k == 1:
            return str(a)
        terms = []
        for i, d in enumerate(self.gf._digits(a)):
            if d == 0:
                continue
            if i == 0:
                terms.append(str(d))
            else:
                coeff = "" if d == 1 else str(d)
                power = "g" if i == 1 else f"g^{i}"
                terms.append(coeff + power)
        return "+".join(terms) if terms else "0"


class DigitRing(Ring):
    """Base for rings encoded as tuples of F_q digits with componentwise addition,
    unrolled over four digit places (shorter encodings padded with zeros), each
    place reading the field table pre-multiplied by its place value."""

    ndigits = 0  # at most 4

    def __init__(self, spec: RingSpec, one_digits: tuple[int, ...]):
        self.gf = GF(spec.q)
        self.q = q = spec.q
        size = q ** self.ndigits
        places = [q ** k for k in range(4)]
        self._padded = [tuple(i // w % q for w in places) for i in range(size)]
        self._tuples = [d[:self.ndigits] for d in self._padded]
        self._place_add = [[[w * s for s in row] for row in self.gf.add_t] for w in places]
        self._place_neg = [[w * s for s in self.gf.neg_t] for w in places]
        super().__init__(spec, size, self._encode(one_digits))

    def _encode(self, ds) -> int:
        val = 0
        for d in reversed(ds):
            val = val * self.q + d
        return val

    def _struct_add(self, a, b):
        a0, a1, a2, a3 = self._padded[a]
        b0, b1, b2, b3 = self._padded[b]
        t0, t1, t2, t3 = self._place_add
        return t0[a0][b0] + t1[a1][b1] + t2[a2][b2] + t3[a3][b3]

    def _struct_neg(self, a):
        return sum(n[d] for n, d in zip(self._place_neg, self._padded[a]))


class DualNumbersRing(DigitRing):
    ndigits = 2

    def __init__(self, spec):
        super().__init__(spec, (1, 0))

    def _struct_mul(self, a, b):
        m, ad = self.gf.mul_t, self.gf.add_t
        a0, a1 = self._tuples[a]
        b0, b1 = self._tuples[b]
        return self._encode((m[a0][b0], ad[m[a0][b1]][m[a1][b0]]))

    def elem_str(self, a):
        a0, a1 = self._tuples[a]
        if a1 == 0:
            return str(a0)
        eps = "e" if a1 == 1 else f"{a1}e"
        return eps if a0 == 0 else f"{a0}+{eps}"


class ProductRing(DigitRing):
    ndigits = 2

    def __init__(self, spec):
        super().__init__(spec, (1, 1))

    def _struct_mul(self, a, b):
        m = self.gf.mul_t
        a0, a1 = self._tuples[a]
        b0, b1 = self._tuples[b]
        return self._encode((m[a0][b0], m[a1][b1]))

    def elem_str(self, a):
        a0, a1 = self._tuples[a]
        return f"({a0},{a1})"


class UpperTriangularRing(DigitRing):
    ndigits = 3  # (a, b, d) for [[a, b], [0, d]]

    def __init__(self, spec):
        super().__init__(spec, (1, 0, 1))

    def _struct_mul(self, x, y):
        m, ad = self.gf.mul_t, self.gf.add_t
        a, b, d = self._tuples[x]
        a2, b2, d2 = self._tuples[y]
        return self._encode((m[a][a2], ad[m[a][b2]][m[b][d2]], m[d][d2]))

    def elem_str(self, x):
        a, b, d = self._tuples[x]
        return f"[[{a},{b}],[0,{d}]]"


class Matrix2Ring(DigitRing):
    ndigits = 4  # (a11, a12, a21, a22) row-major

    def __init__(self, spec):
        if spec.q not in (2, 3):
            raise UnsupportedParameterError(
                f"matrix2({spec.q}): only q in {{2, 3}} stays under the size cap")
        super().__init__(spec, (1, 0, 0, 1))

    def _struct_mul(self, x, y):
        m, ad = self.gf.mul_t, self.gf.add_t
        a11, a12, a21, a22 = self._tuples[x]
        b11, b12, b21, b22 = self._tuples[y]
        q = self.q
        return (ad[m[a11][b11]][m[a12][b21]]
                + q * ad[m[a11][b12]][m[a12][b22]]
                + q * q * ad[m[a21][b11]][m[a22][b21]]
                + q * q * q * ad[m[a21][b12]][m[a22][b22]])

    def elem_str(self, x):
        a, b, c, d = self._tuples[x]
        return f"[[{a},{b}],[{c},{d}]]"


class OppositeRing(Ring):
    """Reversed multiplication over the same element set: the mul table is
    the base ring's table transposed."""

    def __init__(self, base: Ring):
        self.base = base
        super().__init__(base.spec, base.size, base.one)
        self._opposite = base

    def _struct_add(self, a, b):
        return self.base.add(a, b)

    def _struct_mul(self, a, b):
        return self.base.mul(b, a)

    def _struct_neg(self, a):
        return self.base.neg(a)

    def elem_str(self, a):
        return self.base.elem_str(a)

    @property
    def name(self):
        return self.base.name + "^op"


_FAMILY_CLASSES: dict[str, Callable[[RingSpec], Ring]] = {
    "finite-field": FiniteFieldRing,
    "dual-numbers": DualNumbersRing,
    "matrix2": Matrix2Ring,
    "upper-triangular2": UpperTriangularRing,
    "product": ProductRing,
}

_RING_CACHE: dict[RingSpec, Ring] = {}


def build_ring(spec: RingSpec) -> Ring:
    """Construct (and cache) the ring described by spec."""
    if spec.family not in _FAMILY_CLASSES:
        raise UnsupportedParameterError(f"unknown family {spec.family!r}")
    prime_power(spec.q)
    if spec not in _RING_CACHE:
        _RING_CACHE[spec] = _FAMILY_CLASSES[spec.family](spec)
    return _RING_CACHE[spec]


# subfields -------------------------------------------------------------

@dataclass(frozen=True)
class Subfield:
    """A verified proper subfield K of a ring, as a sorted element tuple."""

    ring: Ring
    elements: tuple[int, ...]
    descriptor: str

    @property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    @property
    def nonzero(self) -> tuple[int, ...]:
        return tuple(k for k in self.elements if k != 0)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"<Subfield {self.descriptor} of {self.ring.name}, |K|={len(self.elements)}>"


def verify_subfield(ring: Ring, elems: frozenset) -> None:
    """Brute-force field axioms for a subset; raise NotAFieldError/NotProperError.

    Associativity and distributivity are inherited from the ring; what is
    checked is closure, 0 and 1, additive inverses, and that every nonzero
    element is a unit of the ring with its inverse inside the subset.
    """
    if ring.zero not in elems or ring.one not in elems:
        raise NotAFieldError("subset must contain 0 and 1")
    for a in elems:
        if ring.neg(a) not in elems:
            raise NotAFieldError(f"additive inverse of {a} escapes the subset")
        if a != ring.zero:
            b = ring.inv(a)
            if b is None:
                raise NotAFieldError(f"nonzero element {a} is not a unit of the ring")
            if b not in elems:
                raise NotAFieldError(f"inverse of {a} escapes the subset")
        for c in elems:
            if ring.add(a, c) not in elems or ring.mul(a, c) not in elems:
                raise NotAFieldError(f"subset not closed at ({a}, {c})")
    if len(elems) == ring.size:
        raise NotProperError("subfield must be a proper subset of the ring")


def _scalar_embed(ring: Ring, k: int) -> int:
    """Image of the field index k under k -> k*1 for the ring's base field."""
    if isinstance(ring, FiniteFieldRing):
        return k
    if isinstance(ring, DualNumbersRing):
        return ring._encode((k, 0))
    if isinstance(ring, ProductRing):
        return ring._encode((k, k))
    if isinstance(ring, UpperTriangularRing):
        return ring._encode((k, 0, k))
    if isinstance(ring, Matrix2Ring):
        return ring._encode((k, 0, 0, k))
    raise UnsupportedParameterError(f"no scalar embedding for {ring.name}")


def build_subfield(ring: Ring, kind: str) -> Subfield:
    """Construct and verify a distinguished subfield.

    kind: "prime" (closure of 1 under addition), "scalar" (k -> k*1),
    "singer" (matrix2 only: F_{q^2} via the fixed companion matrix), or
    "diagonal" (product only; alias of scalar).
    """
    if kind == "prime":
        elems = {ring.zero}
        x = ring.one
        while x not in elems:
            elems.add(x)
            x = ring.add(x, ring.one)
    elif kind in ("scalar", "diagonal"):
        if kind == "diagonal" and not isinstance(ring, ProductRing):
            raise UnsupportedParameterError("diagonal embedding needs a product ring")
        q = ring.spec.q
        elems = {_scalar_embed(ring, k) for k in range(q)}
    elif kind == "singer":
        if not isinstance(ring, Matrix2Ring):
            raise UnsupportedParameterError("singer embedding needs a matrix2 ring")
        q = ring.spec.q
        poly = IRREDUCIBLE[q * q]
        c0, c1 = poly[0], poly[1]
        comp = ring._encode((0, 1, ring.gf.neg_t[c0], ring.gf.neg_t[c1]))
        elems = {ring.add(_scalar_embed(ring, a), ring.mul(_scalar_embed(ring, b), comp))
                 for a in range(q) for b in range(q)}
    else:
        raise UnsupportedParameterError(f"unknown subfield descriptor {kind!r}")
    elems = frozenset(elems)
    verify_subfield(ring, elems)
    return Subfield(ring, tuple(sorted(elems)), kind)


def conjugate_subfield(K: Subfield, u: int) -> Subfield:
    """The subfield u^-1 K u; raises NotAUnitError for non-units."""
    ring = K.ring
    uinv = ring.inv(u)
    if uinv is None:
        raise NotAUnitError(f"{u} is not a unit")
    elems = frozenset(ring.mul(ring.mul(uinv, k), u) for k in K.elements)
    verify_subfield(ring, elems)
    return Subfield(ring, tuple(sorted(elems)), f"{K.descriptor}^({u})")


def subfield_in_opposite(K: Subfield) -> Subfield:
    """K carried over to the opposite ring (same element set)."""
    ring = K.ring.opposite()
    verify_subfield(ring, K.element_set)
    return Subfield(ring, K.elements, K.descriptor + "^op")


def normality_witness(K: Subfield) -> Optional[int]:
    """A unit u with u^-1 K* u != K*, or None if K* is normal in R*."""
    ring = K.ring
    kstar = frozenset(K.nonzero)
    for u in ring.units:
        uinv = ring.inv(u)
        if any(ring.mul(ring.mul(uinv, k), u) not in kstar for k in kstar):
            return u
    return None


def is_normal_subgroup(K: Subfield, ring: Ring) -> bool:
    """True iff u^-1 K* u = K* for every unit u."""
    assert K.ring is ring
    return normality_witness(K) is None


# generating sets --------------------------------------------------------

def unit_generators(ring: Ring) -> tuple[int, ...]:
    """Small generating set for R*, greedy by element order."""
    gens: list[int] = []
    span = {ring.one}
    for u in ring.units:
        if u in span:
            continue
        gens.append(u)
        frontier = list(span)
        span.add(u)
        frontier.append(u)
        while frontier:
            x = frontier.pop()
            for g in gens:
                for y in (ring.mul(x, g), ring.mul(g, x)):
                    if y not in span:
                        span.add(y)
                        frontier.append(y)
        if len(span) == len(ring.units):
            break
    return tuple(gens)


def additive_generators(ring: Ring) -> tuple[int, ...]:
    """Small generating set for (R, +), greedy by element order."""
    gens: list[int] = []
    span = {ring.zero}
    for a in ring.elements():
        if a in span:
            continue
        gens.append(a)
        frontier = list(span)
        span.add(a)
        frontier.append(a)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = ring.add(x, g)
                if y not in span:
                    span.add(y)
                    frontier.append(y)
        if len(span) == ring.size:
            break
    return tuple(gens)


# ring maps ---------------------------------------------------------------

@dataclass(frozen=True)
class RingMap:
    """A verified ring isomorphism or antiisomorphism given as a table.

    For kind "antiisomorphism" the table reverses products.  conjugator, if
    set, is a unit u' of the target with image(K) = u'^-1 K' u' for the
    distinguished subfields of the geometries under study.
    """

    source: Ring
    target: Ring
    table: tuple[int, ...]
    kind: str
    conjugator: Optional[int] = None

    def __call__(self, a: int) -> int:
        return self.table[a]


def verify_ring_map(m: RingMap) -> None:
    """Raise RingMapError unless m is a bijective (anti)homomorphism fixing 1."""
    R, S, t = m.source, m.target, m.table
    if m.kind not in ("isomorphism", "antiisomorphism"):
        raise RingMapError(f"unknown kind {m.kind!r}")
    if len(t) != R.size or len(set(t)) != S.size or R.size != S.size:
        raise RingMapError("table is not a bijection")
    if t[R.one] != S.one:
        raise RingMapError("1 is not preserved")
    for a in R.elements():
        for b in R.elements():
            if t[R.add(a, b)] != S.add(t[a], t[b]):
                raise RingMapError(f"additivity fails at ({a}, {b})")
            want = S.mul(t[a], t[b]) if m.kind == "isomorphism" else S.mul(t[b], t[a])
            if t[R.mul(a, b)] != want:
                raise RingMapError(f"multiplicativity fails at ({a}, {b})")


def make_ring_map(source: Ring, target: Ring, func, kind: str,
                  conjugator: Optional[int] = None) -> RingMap:
    m = RingMap(source, target, tuple(func(a) for a in source.elements()),
                kind, conjugator)
    verify_ring_map(m)
    return m


# exhaustive ring axioms --------------------------------------------------

def _require(holds: np.ndarray, axiom: str) -> None:
    """Raise RingAxiomError at the first index where holds is False."""
    if not holds.all():
        witness = tuple(int(i) for i in np.argwhere(~holds)[0])
        raise RingAxiomError(f"{axiom} fails at {witness}")


def verify_axioms(ring: Ring) -> None:
    """Check associativity, commutative addition, distributivity, the
    additive inverse table and the two-sided unit over the whole ring,
    reading the operation tables directly; raise RingAxiomError naming the
    broken axiom and its first witness."""
    n = ring.size
    A = np.array(ring._add_t, dtype=np.int16)
    M = np.array(ring._mul_t, dtype=np.int16)
    idx = np.arange(n, dtype=np.int16)
    _require(A == A.T, "commutativity of addition")
    _require(A[0, :] == idx, "neutrality of 0")
    _require(A[A, :] == A[:, A], "associativity of addition")
    _require(A[idx, np.array(ring._neg_t)] == 0, "additive inverse")
    _require(M[M, :] == M[:, M], "associativity of multiplication")
    # left distributivity: a*(b+c) == a*b + a*c
    _require(M[idx[:, None, None], A[None, :, :]] == A[M[:, :, None], M[:, None, :]],
             "left distributivity")
    # right distributivity: (a+b)*c == a*c + b*c
    _require(M[A[:, :, None], idx[None, None, :]] == A[M[:, None, :], M[None, :, :]],
             "right distributivity")
    _require(M[ring.one, :] == idx, "1 as left unit")
    _require(M[:, ring.one] == idx, "1 as right unit")
    for u in ring.units:
        if ring.inv(u) not in ring.unit_set:
            raise RingAxiomError(f"inverse of the unit {u} is not a unit")
        for v in ring.units:
            if ring.mul(u, v) not in ring.unit_set:
                raise RingAxiomError(f"units not closed under product at ({u}, {v})")
