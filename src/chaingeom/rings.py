"""Finite rings with dense integer element indices.

Every ring here is small enough (|R| <= 81) that exhaustive verification is
the default posture: a ring is its add, mul and neg tables, three
read-only numpy arrays built once per ring (each family gives its product
as one digit formula over numpy digit arrays; sums and negatives are
digitwise; F_{p^k} is k digits over F_p, multiplied as polynomials; the
opposite ring transposes mul), and every other table is derived from
those three.  Unit groups come from a brute-force two-sided inverse
scan, subfields are re-verified axiom by axiom no matter how they were
described, and the full ring axioms can be checked on demand over the
whole element set.

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

    finite-field       c_0 + c_1*g + ...  -> c_0 + p*c_1 + ...  (g the generator)
    dual-numbers       a + b*e            -> a + q*b
    matrix2            [[a,b],[c,d]]      -> a + q*b + q^2*c + q^3*d
    upper-triangular2  [[a,b],[0,d]]      -> a + q*b + q^2*d
    product            (a, b)             -> a + q*b
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    """Factor q = p^k with p one of the primes 2, 3, 5 and 7, or raise
    UnsupportedParameterError."""
    if q >= 2:  # 0 % p == 0 for every p, and 0 // p never reaches 1
        for p in (2, 3, 5, 7):
            if q % p == 0:
                m, k = q, 0
                while m % p == 0:
                    m //= p
                    k += 1
                if m == 1:
                    return p, k
                break
    raise UnsupportedParameterError(
        f"unsupported q = {q}: only the primes 2, 3, 5 and 7 and their powers are supported")


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

    Arithmetic is one representation for every family and size: the add,
    mul and neg tables _add_a, _mul_a and _neg_a, read-only numpy arrays
    given at construction.  The families build them from digit formulas
    (DigitRing), and the opposite ring is the transposed mul table.
    Everything else is derived from those three arrays: the admissibility
    tables, the units (a two-sided inverse scan) and the left and right
    canonical-pair keys (least unit multiple of every pair), which make
    canonicalizing a single lookup.  The scalar methods read single
    entries of the arrays.  Instances are shared by build_ring and never
    change after construction; the array kernels of projline and duality
    index the tables directly.  What depends on the ring alone and is not
    needed by every caller, the opposite ring and the two generating sets,
    is a cached property, computed on first use.
    """

    def __init__(self, spec: RingSpec, one: int, add: np.ndarray, mul: np.ndarray,
                 neg: np.ndarray):
        self.spec = spec
        self.size = len(neg)
        self.zero = 0
        self.one = one
        self._add_a, self._mul_a, self._neg_a = add, mul, neg
        self._fill_arrays()
        # two-sided inverses by exhaustive scan: the first b with a*b = b*a = 1
        inverse = (mul == one) & (mul.T == one)
        self._inv_t = [b if found else None for b, found in
                       zip(inverse.argmax(axis=1).tolist(), inverse.any(axis=1).tolist())]
        self.units = tuple(a for a, b in enumerate(self._inv_t) if b is not None)
        self.unit_set = frozenset(self.units)
        self._left_key = self._canonical_keys(self._mul_a)
        self._right_key = self._canonical_keys(self._mul_a.T)

    def _fill_arrays(self) -> None:
        """Derive from the operation tables the admissibility tables
        _rows_ok[a, b] iff 1 in aR + bR and _cols_ok[v, w] iff 1 in Rv + Rw;
        then lock the operation and admissibility tables read-only.  Runs
        again where the tests corrupt a table; the units and canonical keys
        stay as built.

        member[a, v] says v lies in aR.  The pair (a, b) is unimodular iff
        some v in aR has 1 - v in bR, so the whole row table is one boolean
        product member @ member[:, 1 - v].T; the column table is the same
        product over the memberships in Ra.
        """
        n = self.size
        one_minus = self._add_a[self.one][self._neg_a]
        tables = []
        for products in (self._mul_a, self._mul_a.T):  # products[a] = (a*x), (x*a)
            member = np.zeros((n, n), dtype=bool)
            member[np.arange(n)[:, None], products] = True
            tables.append(member @ member[:, one_minus].T)
        self._rows_ok, self._cols_ok = tables
        for table in (self._add_a, self._mul_a, self._neg_a, *tables):
            table.flags.writeable = False

    def _canonical_keys(self, products: np.ndarray) -> np.ndarray:
        """Table of the least key p[u][a] * size + p[u][b] over units u, for
        all a, b.  The minimum is folded over the units one at a time, so
        the scratch space stays at two |R| x |R| arrays."""
        n = self.size
        best = None
        for u in self.units:
            row = products[u]
            key = row[:, None] * n + row[None, :]
            best = key if best is None else np.minimum(best, key, out=best)
        best.flags.writeable = False
        return best

    def elem_str(self, a: int) -> str:
        return str(a)

    # arithmetic ---------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return self._add_a.item(a, b)

    def mul(self, a: int, b: int) -> int:
        return self._mul_a.item(a, b)

    def neg(self, a: int) -> int:
        return self._neg_a.item(a)

    def sub(self, a: int, b: int) -> int:
        return self._add_a.item(a, self._neg_a.item(b))

    def inv(self, a: int) -> Optional[int]:
        return self._inv_t[a]

    def is_unit(self, a: int) -> bool:
        return self._inv_t[a] is not None

    def elements(self) -> range:
        return range(self.size)

    def left_products(self, a: int) -> tuple[int, ...]:
        """(a*x for every x), indexable by x: a row of the mul table."""
        return tuple(self._mul_a[a].tolist())

    def right_products(self, a: int) -> tuple[int, ...]:
        """(x*a for every x), indexable by x: a column of the mul table."""
        return tuple(self._mul_a[:, a].tolist())

    def canonical_pair_left(self, a: int, b: int) -> tuple[int, int]:
        """Least (u*a, u*b) over units u, in index-lexicographic order."""
        return divmod(self._left_key.item(a, b), self.size)

    def canonical_pair_right(self, v: int, w: int) -> tuple[int, int]:
        """Least (v*u, w*u) over units u."""
        return divmod(self._right_key.item(v, w), self.size)

    @cached_property
    def opposite(self) -> "Ring":
        """Same elements, reversed multiplication.  Involutive."""
        return OppositeRing(self)

    @cached_property
    def unit_generators(self) -> tuple[int, ...]:
        """Small generating set for R*, greedy by element order."""
        return _greedy_generators(self.units, self.one,
                                  lambda x, g: (self.mul(x, g), self.mul(g, x)),
                                  len(self.units))

    @cached_property
    def additive_generators(self) -> tuple[int, ...]:
        """Small generating set for (R, +), greedy by element order."""
        return _greedy_generators(self.elements(), self.zero,
                                  lambda x, g: (self.add(x, g),), self.size)

    @property
    def name(self) -> str:
        return str(self.spec)

    def __repr__(self):
        return f"<Ring {self.name}, |R|={self.size}, |R*|={len(self.units)}>"


class DigitRing(Ring):
    """A ring whose elements are tuples of ndigits digits in a field F_q,
    encoded little-endian as the sum of d_k q^k.  Addition and negation are
    digitwise in F_q.  Each family gives its multiplication once, as a
    digit formula _digit_mul(m, s, x, y) over numpy digit arrays: m and s
    are the field's mul and add tables, x and y the digit columns of the
    left and right factors, broadcast against each other, and the result
    is the product's digit columns.  So every table is one vectorized pass
    over all pairs.  The digit field is F_{spec.q}, or F_base if given."""

    def __init__(self, spec: RingSpec, base: Optional[int] = None):
        self.q = q = base or spec.q
        if prime_power(q)[1] > 1:  # F_q's tables are the shared finite-field(q) ring's
            F = build_ring(RingSpec("finite-field", q))
            s, m, neg = F._add_a, F._mul_a, F._neg_a
        else:  # residues mod the prime q
            x = np.arange(q)
            s, m, neg = (x[:, None] + x) % q, x[:, None] * x % q, -x % q
        size = q ** self.ndigits
        if size > SIZE_CAP:
            raise UnsupportedParameterError(
                f"{spec}: size {size} exceeds the zoo cap {SIZE_CAP}")
        self._places = q ** np.arange(self.ndigits)
        self._digits = np.arange(size)[:, None] // self._places % q  # element x digit
        # digit k of every left factor down the rows, of every right factor
        # along the columns; a table's digits encode along the first axis
        x, y = self._digits.T[:, :, None], self._digits.T[:, None, :]
        add = np.tensordot(self._places, s[x, y], axes=1)
        mul = np.tensordot(self._places, np.stack(self._digit_mul(m, s, x, y)), axes=1)
        super().__init__(spec, self._encode(self.one_digits), add, mul,
                         neg[self._digits] @ self._places)

    def _encode(self, ds) -> int:
        val = 0
        for d in reversed(ds):
            val = val * self.q + d
        return val

    def permuted_digits(self, order) -> list[int]:
        """The element map that rearranges every element's digits: digit i
        of the image is digit order[i] of the element."""
        return (self._digits[:, list(order)] @ self._places).tolist()


class FiniteFieldRing(DigitRing):
    """F_q for q = p^k: k digits over F_p, the coefficients of a polynomial
    in the generator, constant term first, multiplied modulo the fixed
    irreducible IRREDUCIBLE[q]; a prime q is the one-digit case."""

    def __init__(self, spec):
        p, self.ndigits = prime_power(spec.q)
        if self.ndigits > 1 and spec.q not in IRREDUCIBLE:
            raise UnsupportedParameterError(f"field order {spec.q} exceeds 9")
        self.one_digits = (1,) + (0,) * (self.ndigits - 1)
        self._modulus = IRREDUCIBLE.get(spec.q)  # none for a prime q, one digit
        super().__init__(spec, p)

    def _digit_mul(self, m, s, x, y):
        # the product of the polynomials over the integers; then, top degree
        # first, x^k becomes minus the lower terms of the monic modulus; and
        # every coefficient is reduced mod p
        k = self.ndigits
        conv = [sum(x[i] * y[d - i] for i in range(max(0, d - k + 1), min(d, k - 1) + 1))
                for d in range(2 * k - 1)]
        for deg in range(2 * k - 2, k - 1, -1):
            for j in range(k):
                conv[deg - k + j] = conv[deg - k + j] - conv[deg] * self._modulus[j]
        return tuple(c % self.q for c in conv[:k])

    def elem_str(self, a):
        if self.ndigits == 1:
            return str(a)
        terms = []
        for i, d in enumerate(self._digits[a].tolist()):
            if d == 0:
                continue
            if i == 0:
                terms.append(str(d))
            else:
                coeff = "" if d == 1 else str(d)
                power = "g" if i == 1 else f"g^{i}"
                terms.append(coeff + power)
        return "+".join(terms) if terms else "0"


class DualNumbersRing(DigitRing):
    ndigits = 2  # a + b*e
    one_digits = (1, 0)

    @staticmethod
    def _digit_mul(m, s, x, y):
        a0, a1 = x
        b0, b1 = y
        return m[a0, b0], s[m[a0, b1], m[a1, b0]]

    def elem_str(self, a):
        a0, a1 = self._digits[a].tolist()
        if a1 == 0:
            return str(a0)
        eps = "e" if a1 == 1 else f"{a1}e"
        return eps if a0 == 0 else f"{a0}+{eps}"


class ProductRing(DigitRing):
    ndigits = 2
    one_digits = (1, 1)

    @staticmethod
    def _digit_mul(m, s, x, y):
        return m[x[0], y[0]], m[x[1], y[1]]

    def elem_str(self, a):
        a0, a1 = self._digits[a].tolist()
        return f"({a0},{a1})"


class UpperTriangularRing(DigitRing):
    ndigits = 3  # (a, b, d) for [[a, b], [0, d]]
    one_digits = (1, 0, 1)

    @staticmethod
    def _digit_mul(m, s, x, y):
        a, b, d = x
        a2, b2, d2 = y
        return m[a, a2], s[m[a, b2], m[b, d2]], m[d, d2]

    def elem_str(self, x):
        a, b, d = self._digits[x].tolist()
        return f"[[{a},{b}],[0,{d}]]"


class Matrix2Ring(DigitRing):
    ndigits = 4  # (a11, a12, a21, a22) row-major
    one_digits = (1, 0, 0, 1)

    def __init__(self, spec):
        if spec.q not in (2, 3):
            raise UnsupportedParameterError(
                f"matrix2({spec.q}): only q in {{2, 3}} stays under the size cap")
        super().__init__(spec)

    @staticmethod
    def _digit_mul(m, s, x, y):
        a11, a12, a21, a22 = x
        b11, b12, b21, b22 = y
        return (s[m[a11, b11], m[a12, b21]], s[m[a11, b12], m[a12, b22]],
                s[m[a21, b11], m[a22, b21]], s[m[a21, b12], m[a22, b22]])

    def elem_str(self, x):
        a, b, c, d = self._digits[x].tolist()
        return f"[[{a},{b}],[{c},{d}]]"


class OppositeRing(Ring):
    """Reversed multiplication over the same element set: the mul table is
    the base ring's table transposed."""

    def __init__(self, base: Ring):
        self.base = base
        super().__init__(base.spec, base.one, base._add_a,
                         np.ascontiguousarray(base._mul_a.T), base._neg_a)
        self.opposite = base

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
    """A verified proper subfield K of a ring, as a sorted element tuple,
    with its conjugates u^-1 K u as a cached table."""

    ring: Ring
    elements: tuple[int, ...]
    descriptor: str

    @property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    @property
    def nonzero(self) -> tuple[int, ...]:
        return tuple(k for k in self.elements if k != 0)

    @cached_property
    def conjugates(self) -> np.ndarray:
        """Row i: the sorted elements of u^-1 K u for u = ring.units[i], by
        one gather over the mul table."""
        R, units = self.ring, np.array(self.ring.units)
        inv = np.array([R.inv(u) for u in R.units])
        rows = R._mul_a[R._mul_a[inv[:, None], list(self.elements)], units[:, None]]
        rows.sort(axis=1)
        rows.flags.writeable = False
        return rows

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


def _scalar_embed(ring: DigitRing, k: int) -> int:
    """Image of the field index k under k -> k*1 for the ring's base field:
    k in every digit where 1 has a 1."""
    return ring._encode([k * d for d in ring.one_digits])


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
        comp = ring._encode((0, 1, -c0 % q, -c1 % q))  # q is prime
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
    ring = K.ring.opposite
    verify_subfield(ring, K.element_set)
    return Subfield(ring, K.elements, K.descriptor + "^op")


def normality_witness(K: Subfield) -> Optional[int]:
    """The least unit u with u^-1 K u != K, read off K.conjugates, or None
    if K* is normal in R*."""
    moved = np.flatnonzero((K.conjugates != K.elements).any(axis=1))
    return K.ring.units[moved[0]] if len(moved) else None


# generating sets --------------------------------------------------------

def _greedy_generators(candidates, start: int, images, order: int) -> tuple[int, ...]:
    """A small generating set, greedy by candidate order: a candidate outside
    the span so far becomes a generator, and the span is closed again under
    x -> each of images(x, g) for every generator g, until it has order
    members."""
    gens: list[int] = []
    span = {start}
    for u in candidates:
        if u in span:
            continue
        gens.append(u)
        frontier = list(span)
        span.add(u)
        frontier.append(u)
        while frontier:
            x = frontier.pop()
            for g in gens:
                for y in images(x, g):
                    if y not in span:
                        span.add(y)
                        frontier.append(y)
        if len(span) == order:
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
    """Raise RingMapError unless m is a bijective (anti)homomorphism fixing 1.
    Additivity and multiplicativity are one table comparison each over all
    pairs; the message names the first failing pair (a, b) in row-major
    order, and additivity first where both fail."""
    R, S, t = m.source, m.target, m.table
    if m.kind not in ("isomorphism", "antiisomorphism"):
        raise RingMapError(f"unknown kind {m.kind!r}")
    if len(t) != R.size or R.size != S.size or set(t) != set(S.elements()):
        raise RingMapError("table is not a bijection")
    if t[R.one] != S.one:
        raise RingMapError("1 is not preserved")
    t = np.array(t, dtype=np.intp)
    ta, tb = t[:, None], t[None, :]
    additive = t[R._add_a] == S._add_a[ta, tb]
    products = S._mul_a if m.kind == "isomorphism" else S._mul_a.T
    multiplicative = t[R._mul_a] == products[ta, tb]
    bad = np.argwhere(~(additive & multiplicative))
    if len(bad):
        a, b = bad[0].tolist()
        law = "additivity" if not additive[a, b] else "multiplicativity"
        raise RingMapError(f"{law} fails at ({a}, {b})")


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
    A, M = ring._add_a, ring._mul_a
    idx = np.arange(ring.size)
    _require(A == A.T, "commutativity of addition")
    _require(A[0, :] == idx, "neutrality of 0")
    _require(A[A, :] == A[:, A], "associativity of addition")
    _require(A[idx, ring._neg_a] == 0, "additive inverse")
    _require(M[M, :] == M[:, M], "associativity of multiplication")
    # left distributivity: a*(b+c) == a*b + a*c
    _require(M[idx[:, None, None], A[None, :, :]] == A[M[:, :, None], M[:, None, :]],
             "left distributivity")
    # right distributivity: (a+b)*c == a*c + b*c
    _require(M[A[:, :, None], idx[None, None, :]] == A[M[:, None, :], M[None, :, :]],
             "right distributivity")
    _require(M[ring.one, :] == idx, "1 as left unit")
    _require(M[:, ring.one] == idx, "1 as right unit")
    # per unit u: its inverse, then each product u*v, is a unit; the first
    # failure in that order is the witness
    units = np.array(ring.units, dtype=np.intp)
    is_unit = np.zeros(ring.size, dtype=bool)
    is_unit[list(ring.unit_set)] = True
    inverse_ok = [ring.inv(u) in ring.unit_set for u in ring.units]
    closed = np.column_stack([inverse_ok, is_unit[M[np.ix_(units, units)]]])
    if not closed.all():
        i, j = np.argwhere(~closed)[0].tolist()
        if j == 0:
            raise RingAxiomError(f"inverse of the unit {ring.units[i]} is not a unit")
        raise RingAxiomError(
            f"units not closed under product at ({ring.units[i]}, {ring.units[j - 1]})")
