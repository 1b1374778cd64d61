"""Exact arithmetic in the two ground fields.

A ground field here is either F_p((t)) ("equal" mode, uniformizer t) or
Q_p ("mixed" mode, uniformizer p), always with residue field F_p.  A
scalar is stored with an absolute precision ``prec``:

* equal mode: one integer whose 16-bit slot k holds the coefficient of
  t^k in [0, p) for k < prec, and 0 from prec on: known mod t^prec;
* mixed mode: a single integer in [0, p^prec), known mod p^prec.

Precision is tracked per scalar.  Sums and products carry the minimum of
the operands' precisions; dividing by the uniformizer costs one digit.
A scalar whose tracked digits are all zero is ambiguous (it may have any
valuation >= prec), so valuation queries on it raise PrecisionExhausted
unless the scalar is flagged ``exact_zero``, meaning it was produced
purely from exact zeros and is genuinely 0.

The equal-mode integer is the digit polynomial at t = 2^16 (Kronecker
substitution kept as the storage format), so each operation acts on all
slots at once.  No slot overflows into the next:

* add: a slot of a sum lies in [0, 2p - 2].  Adding 2^15 - p to every
  slot sets bit 15 of exactly the slots >= p, where the fold subtracts p;
  this needs every slot below 2^15 + p.  For p = 2 add is an XOR.
* mul: slot k < m of the product of two m-slot scalars is the sum of
  a_i b_j over i + j = k, at most m (p-1)^2 < 2^16, as GroundField
  refuses prec (p-1)^2 >= 2^16.  Higher slots may overflow, but carries
  only travel upward.  The m slots kept are reduced mod p by masking bit
  0 for p = 2, else by folding each slot's high byte onto its low one
  (2^8 = r mod p; a slot stays at most 255 (p-1) + 255 = 255 p < 2^16,
  as p <= 256) until every slot fits a byte, which a table reduces.
* sums of products (_ground_product, _pair_matvec): for p = 2 the raw
  products are XORed.  No slot of one product carries (it is at most
  prec), XOR never does, and bit 0 of a slot of the XOR is the parity of
  the slot sum, so one mask per output reduces it.  For odd p the raw
  products are added and reduced once per output.  A kept slot of one raw
  product of reduced operands is at most prec (p-1)^2, prec the field's;
  a remainder left by an intermediate reduce counts as one term of at
  most p - 1 per slot.
  So (2^16 - 1 - (p-1)) // (prec (p-1)^2) raw products fit on top of a
  remainder before the sum is reduced again.  That budget is at least 1
  for every odd p < 257 at every accepted prec (GroundField checks it);
  at p = 3, prec 16383 it is exactly 1, so every product is reduced
  before the next one is added.

Mixed-mode sums of products are plain int sums with one reduction mod
p^m per output.  An output's precision m is the least min(prec_a, prec_b)
over the products it sums, which is what adding the scalar products one
by one would give.

Linear maps on ground coordinates (multiplying by an element of a floor
over another floor, and multiplying and dividing by the uniformizer of a
floor) run in one pair kernel, _pair_matvec, on (data, prec) pairs with
None for an exact zero, so the hot loops build no scalar per step.  Given
a window of w digits it settles each output at min(prec, w) digits and
keeps prec as it is.  The low w digits of a product read only the low w
digits of each factor, so the digit expansion (digit_expand_base) carries
only the digits it will read, on rows kept at full precision, while the
precision it tracks, and every refusal that reads it, is unchanged.
"""

from __future__ import annotations

import math

from .errors import NotAUnit, NotDivisible, PrecisionExhausted

_SLOT = 16
_new_object = object.__new__


def _cut(x, m):
    """The low m slots of a packed equal-mode scalar."""
    return x & ((1 << _SLOT * m) - 1)


INFINITY = math.inf  # the valuation of 0


def vp(n: int, p: int):
    """p-adic valuation of the integer n; INFINITY for n = 0."""
    if n == 0:
        return INFINITY
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# Miller-Rabin to the prime bases up to 37 is exact below this bound, the
# least strong pseudoprime to all twelve (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PROVEN_BELOW = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Whether n is prime; exact for n < _PROVEN_BELOW."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _convolve(a, b, out_len, zero):
    """Schoolbook product of two coefficient sequences, cut at ``out_len``:
    the product of two dual-ring elements.

    Only exact zeros are skipped: a coefficient that is merely zero to
    precision still carries its precision into every term it touches.
    Ground scalars take the raw-integer kernel, _ground_product.
    """
    if type(zero) is BaseScalar:
        return _ground_product(a, b, out_len, zero)
    buf = [zero] * out_len
    for i, ai in enumerate(a[:out_len]):
        if ai.exact_zero:
            continue
        for j, bj in enumerate(b[: out_len - i]):
            if bj.exact_zero:
                continue
            buf[i + j] = buf[i + j] + ai * bj
    return buf


def _ground_product(a, b, out_len, zero, fold=()):
    """_convolve of two sequences of ground scalars, on their raw integers.

    With ``fold`` = (c_0, ..., c_{n-1}) the product is also reduced mod
    X^n + c_{n-1} X^{n-1} + ... + c_0 to n coordinates: each coordinate
    k >= n, from the top down, is folded as X^k = -X^(k-n) sum c_i X^i,
    the product of a flat floor.  The result is the one BaseScalar
    arithmetic gives term by term: every product of two scalars that are
    not exact zeros, convolution and fold terms alike, sets its output's
    precision to at most min(prec_a, prec_b), and an output with no term
    is ``zero``.
    """
    f = zero.field
    xor = f.mode == "equal" and f.p == 2
    acc, pr = [0] * out_len, [INFINITY] * out_len
    since = 0  # rows added since the last reduce

    def row(k0, x, xp, terms):
        """Add x * y to coordinate k0 + j for each (j, y, yp) in terms."""
        nonlocal since
        if since == f._budget:
            acc[:] = [f._settle(v, f.prec) for v in acc]
            since = 0
        since += 1
        for j, y, yp in terms:
            k = k0 + j
            if k >= out_len:
                break
            if xor:
                acc[k] ^= x * y
            else:
                acc[k] += x * y
            q = xp if xp < yp else yp
            if q < pr[k]:
                pr[k] = q

    terms = [(j, y.data, y.prec) for j, y in enumerate(b[:out_len])
             if not y.exact_zero]
    for i, x in enumerate(a[:out_len]):
        if not x.exact_zero:
            row(i, x.data, x.prec, terms)
    n = len(fold) or out_len
    if fold:
        terms = [(i, c.data, c.prec) for i, c in enumerate(fold)
                 if not c.exact_zero]
        for k in range(out_len - 1, n - 1, -1):
            if pr[k] != INFINITY:
                t = f._settle(acc[k], pr[k])  # the top, negated below
                if f.mode == "mixed":
                    t = -t
                elif not xor:
                    t = f._fold(f._ones * f.p - t)
                row(k - n, t, pr[k], terms)
    return [zero if m == INFINITY else _scalar(f, f._settle(v, m), m, False)
            for v, m in zip(acc[:n], pr)]


def _pair_matvec(terms, field, window=None):
    """The sum of M x over (M, x) in terms, on (data, prec) pairs.

    M is given by rows: rows[k] lists (j, d, dp) for each nonzero entry
    M[k][j], d its data at precision dp; x lists the pair (data, prec) of
    each ground coordinate, or None for an exact zero.  As in
    _ground_product, each product of an entry and an x_j that is not an
    exact zero bounds its output's precision, and an output with no such
    product is None.  Output k is (data, q), q the least precision of its
    products; with a ``window`` its data is settled at min(q, window)
    digits, the low digits of what the full data would be.
    """
    f = field
    xor = f.mode == "equal" and f.p == 2
    mixed = f.mode == "mixed"
    ppow, budget = f._ppow, f._budget
    cap = f.prec if window is None else window
    out = []
    for k in range(len(terms[0][0])):
        v, q, since = 0, INFINITY, 0  # since: products since the last reduce
        for rows, x in terms:
            for j, d, dp in rows[k]:
                y = x[j]
                if y is None:
                    continue
                if since == budget:
                    v, since = f._settle(v, cap), 0
                since += 1
                yd, yp = y
                if xor:
                    v ^= yd * d
                else:
                    v += yd * d
                m = yp if yp < dp else dp
                if m < q:
                    q = m
        if q == INFINITY:
            out.append(None)
            continue
        m = q if q < cap else cap
        if mixed:  # the p^m lookup of _settle, bound once per call
            pw = ppow.get(m)
            if pw is None:
                pw = f.ppow(m)
            out.append((v % pw, q))
        else:
            out.append((f._reduce(_cut(v, m), m), q))
    return out


def _pairs(scalars):
    """The (data, prec) pairs of ground scalars, None for an exact zero."""
    return [None if g.exact_zero else (g.data, g.prec) for g in scalars]


def _scalars(field, pairs):
    """The ground scalars of (data, prec) pairs; None is the exact zero."""
    zero = field.zero()
    return [zero if y is None else _scalar(field, y[0], y[1], False)
            for y in pairs]


class GroundField:
    """F_p((t)) or Q_p at a fixed default precision.

    Acts as the bottom floor of an extension tower: it exposes the same
    constructors (zero, one, from_int, uniformizer, teichmuller, embed)
    as the Eisenstein floors stacked on top of it.
    """

    __slots__ = ("mode", "p", "prec", "base", "ground", "degree",
                 "absolute_degree", "ceiling", "_ppow", "_teich", "_budget",
                 "_ones", "_bias", "_low", "_table")

    def __init__(self, mode, p, prec):
        if mode not in ("equal", "mixed"):
            raise ValueError("mode must be 'equal' or 'mixed'")
        if p >= _PROVEN_BELOW:
            raise ValueError("p must be below %d, where primality is proven"
                             % _PROVEN_BELOW)
        if not _is_prime(p):
            raise ValueError("p must be prime, got %r" % (p,))
        if prec < 1:
            raise ValueError("prec must be positive")
        self.mode = mode
        self.p = p
        self.prec = prec
        # the floor protocol: the bottom floor of every tower
        self.base, self.ground, self.degree = None, self, 1
        self.absolute_degree, self.ceiling = 1, prec
        self._ppow, self._teich = {}, {}
        # rows _ground_product adds between reduces (see the docstring)
        self._budget = INFINITY
        if mode == "equal":
            if p >= 257:
                raise ValueError("F_p((t)) needs p < 257, got p = %d" % p)
            top = ((1 << _SLOT) - 1) // (p - 1) ** 2
            if prec > top:
                raise ValueError("precision %d too large for F_%d((t)): "
                                 "at most %d" % (prec, p, top))
            # the add and byte folds stay inside a slot (see the docstring)
            assert 2 * p - 2 < (1 << 15) + p and 255 * p < 1 << _SLOT
            self._ones = int.from_bytes(b"\1\0" * prec, "little")
            self._bias = self._ones * ((1 << 15) - p)
            self._low = self._ones * 0xFF
            self._table = bytes(k % p for k in range(256))
            if p > 2:
                self._budget = ((1 << _SLOT) - p) // (prec * (p - 1) ** 2)
                assert self._budget >= 1

    @classmethod
    def equal_char(cls, p, prec):
        return cls("equal", p, prec)

    @classmethod
    def mixed_char(cls, p, prec):
        return cls("mixed", p, prec)

    # -- floor protocol ------------------------------------------------

    def p_valuation(self):
        """Valuation of the rational prime p, normalized to this field."""
        return INFINITY if self.mode == "equal" else 1

    def ppow(self, k):
        pw = self._ppow.get(k)
        if pw is None:
            pw = self._ppow[k] = self.p ** k
        return pw

    def zero(self, prec=None):
        return _scalar(self, 0, self.prec if prec is None else prec, True)

    def one(self):
        return self.from_int(1)

    def from_int(self, k: int):
        if self.mode == "equal":
            return _scalar(self, k % self.p, self.prec, k % self.p == 0)
        return _scalar(self, k % self.ppow(self.prec), self.prec, k == 0)

    def uniformizer(self):
        if self.mode == "equal":
            return _scalar(self, _cut(1 << _SLOT, self.prec), self.prec, False)
        return _scalar(self, self.p, self.prec, False)

    def teichmuller(self, r: int):
        """The Teichmuller lift of the residue r: the root of x^p = x above r."""
        r %= self.p
        if r == 0:
            return self.zero()
        if self.mode == "equal":
            return self.from_int(r)
        x = self._teich.get(r)
        if x is None:
            # r^(p^(prec-1)) is the lift mod p^prec
            x = self._teich[r] = pow(r, self.ppow(self.prec - 1),
                                     self.ppow(self.prec))
        return _scalar(self, x, self.prec, False)

    def embed(self, x):
        if isinstance(x, BaseScalar) and x.field is self:
            return x
        raise TypeError("cannot embed %r into %r" % (x, self))

    def residue_inverse(self, r: int) -> int:
        return pow(r, -1, self.p)

    def mul_rows(self, w):
        """The 1 x 1 matrix of x -> x * w, as EisensteinFloor.mul_rows."""
        return [[] if w.exact_zero else [(0, w.data, w.prec)]]

    def udiv_pairs(self, xs, window=None):
        """x / uniformizer on the (data, prec) pair of x, as BaseScalar.udiv:
        an exact zero (None) stays one.  The floor protocol of
        EisensteinFloor.udiv_pairs; a shift keeps within any ``window``."""
        x = xs[0]
        return [None if x is None else (self._udiv_data(*x, 1), x[1] - 1)]

    def _udiv_data(self, data, prec, k):
        """The data at precision prec divided by uniformizer^k: refused
        unless the tracked digits prove the valuation is at least k."""
        if prec < k:
            raise PrecisionExhausted(
                "cannot certify divisibility by power %d at precision %d"
                % (k, prec), bound=prec)
        if self.mode == "equal":
            if _cut(data, k):
                raise NotDivisible("valuation below %d" % k)
            return data >> _SLOT * k
        if data % self.ppow(k):
            raise NotDivisible("valuation below %d" % k)
        return data // self.ppow(k)

    def _fold(self, s):
        """Subtract p from every slot of s that holds p or more."""
        return s - ((s + self._bias) >> 15 & self._ones) * self.p

    def _settle(self, x, m):
        """The data at precision m of a raw sum of products x."""
        if self.mode == "equal":
            return self._reduce(_cut(x, m), m)
        return x % self.ppow(m)

    def _reduce(self, x, m):
        """Reduce every slot of the m-slot product x mod p."""
        if self.p == 2:
            return x & self._ones
        low, r = self._low, 256 % self.p
        while x & low << 8:
            x = (x >> 8 & low) * r + (x & low)
        return int.from_bytes(
            x.to_bytes(2 * m, "little").translate(self._table), "little")

    def __repr__(self):
        name = "F_%d((t))" % self.p if self.mode == "equal" else "Q_%d" % self.p
        return "%s [prec %d]" % (name, self.prec)


class RingElement:
    """Subtraction and powers on top of a subclass's ``_peer``, ``__add__``,
    ``__neg__``, ``__mul__``, ``unit_inverse`` and ``floor.one()``.

    Each subclass defines its own ``__add__`` and ``__mul__`` (and their
    reflections): bench/spans.py counts them through the class body.
    """

    __slots__ = ()

    def __sub__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __pow__(self, e: int):
        if e < 0:
            return self.unit_inverse() ** (-e)
        if e == 0:
            return self.floor.one()
        out = None
        sq = self
        while e:
            if e & 1:
                out = sq if out is None else out * sq
            e >>= 1
            if e:
                sq = sq * sq
        return out


class BaseScalar(RingElement):
    """One element of a ground field, known to ``prec`` digits."""

    __slots__ = ("field", "data", "prec", "exact_zero")

    def __init__(self, field, data, prec, exact_zero=False):
        self.field = field
        if type(data) is tuple:  # equal-mode digits, packed once
            packed = bytearray(2 * len(data))
            packed[::2] = bytes(d % field.p for d in data)
            data = int.from_bytes(packed, "little")
        self.data = data
        self.prec = prec
        self.exact_zero = exact_zero

    @property
    def floor(self):
        return self.field

    def _peer(self, other):
        if isinstance(other, BaseScalar):
            if other.field is not self.field:
                raise TypeError("scalars from different fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        # An exact zero carries no precision limit of its own.
        if o.exact_zero:
            return self
        if self.exact_zero:
            return o
        f = self.field
        m = min(self.prec, o.prec)
        if f.mode == "equal":
            data = self.data ^ o.data if f.p == 2 else f._fold(self.data + o.data)
            if self.prec != o.prec:
                data = _cut(data, m)
        else:
            data = (self.data + o.data) % f.ppow(m)
        return _scalar(f, data, m, False)

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        if f.mode == "equal":
            data = self.data if f.p == 2 else f._fold(f._ones * f.p - self.data)
        else:
            data = (-self.data) % f.ppow(self.prec)
        return _scalar(f, data, self.prec, self.exact_zero)

    def __mul__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        f = self.field
        if self.exact_zero or o.exact_zero:
            return f.zero(max(self.prec, o.prec))
        m = min(self.prec, o.prec)
        return _scalar(f, f._settle(self.data * o.data, m), m, False)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        # an exact zero is 0: it equals what is zero to its own precision
        if self.exact_zero or o.exact_zero:
            return self.is_zero_to_precision() and o.is_zero_to_precision()
        m = min(self.prec, o.prec)
        if self.field.mode == "equal":
            return _cut(self.data ^ o.data, m) == 0
        return (self.data - o.data) % self.field.ppow(m) == 0

    __hash__ = None

    def is_zero_to_precision(self) -> bool:
        return self.data == 0

    def valuation(self):
        """Exact valuation, INFINITY for the exact zero.

        Raises PrecisionExhausted when every tracked digit vanishes but
        the scalar is not known to be zero.
        """
        if self.exact_zero:
            return INFINITY
        if self.data:
            if self.field.mode == "equal":
                return ((self.data & -self.data).bit_length() - 1) // _SLOT
            return vp(self.data, self.field.p)
        raise PrecisionExhausted(
            "valuation undetermined: zero to precision %d" % self.prec,
            bound=self.prec,
        )

    def has_valuation_at_least(self, k) -> bool:
        if self.exact_zero:
            return True
        try:
            return self.valuation() >= k
        except PrecisionExhausted:
            if self.prec >= k:
                return True
            raise

    def residue(self) -> int:
        if self.exact_zero:
            return 0
        if self.prec < 1:
            raise PrecisionExhausted("no digits left", bound=0)
        f = self.field
        return self.data & 0xFFFF if f.mode == "equal" else self.data % f.p

    def udiv(self, k: int):
        """Divide by uniformizer^k.  Requires valuation >= k, provably."""
        if k == 0:
            return self
        if self.exact_zero:
            return self.field.zero(max(self.prec - k, 0))
        f = self.field
        return _scalar(f, f._udiv_data(self.data, self.prec, k), self.prec - k,
                       False)

    def unit_inverse(self):
        if self.residue() == 0:
            raise NotAUnit("valuation is positive")
        f = self.field
        if f.mode == "mixed":
            return _scalar(f, pow(self.data, -1, f.ppow(self.prec)), self.prec, False)
        # Newton: x = 1/a mod t^k gives x (2 - a x) = 1/a mod t^(2k).
        x, k = pow(self.residue(), -1, f.p), 1
        while k < self.prec:
            k = min(2 * k, self.prec)
            ax = f._reduce(_cut(_cut(self.data, k) * x, k), k)
            x = f._reduce(_cut(x * f._fold(f._ones * f.p - ax + 2), k), k)
        return _scalar(f, x, self.prec, False)

    def __repr__(self):
        f = self.field
        if f.mode == "mixed":
            return "%d + O(%d^%d)" % (self.data, f.p, self.prec)
        digits = self.data.to_bytes(2 * self.prec, "little")[::2]
        terms = [
            "%d" % c if k == 0 else
            ("t" if k == 1 else "t^%d" % k) if c == 1 else
            ("%d*t" % c if k == 1 else "%d*t^%d" % (c, k))
            for k, c in enumerate(digits) if c
        ]
        return "%s + O(t^%d)" % (" + ".join(terms) or "0", self.prec)


def _scalar(field, data, prec, exact_zero):
    """A BaseScalar from packed data, without the constructor's tuple check."""
    x = _new_object(BaseScalar)
    x.field = field
    x.data = data
    x.prec = prec
    x.exact_zero = exact_zero
    return x


def digit_expand_base(x, count: int):
    """First ``count`` Teichmuller digits of an integral element x.

    Works over any floor: x = sum_k lift(d_k) * pi^k + O(pi^count), where
    pi is the uniformizer of x's floor.  Returns the residues d_k; the
    list is shorter than ``count`` when the tracked digits of x run out.

    The expansion runs on the (data, prec) pairs of x's ground
    coordinates, and it carries only the ground digits that the digits
    still to come can read.  Digits k+1 ... count-1 depend on x_k = (x -
    sum_(i<k) lift(d_i) pi^i) / pi^k only modulo pi^(count-k), so the k-th
    division (floor.udiv_pairs) settles each ground coordinate at the
    window s = min(P, ceil((count-k-1)/N) + 1) ground digits, N the
    floor's absolute degree and P the ground precision, and so does the
    digit taken off from x_k.  Dropping the ground digits from s on
    changes x_k or x_(k+1) by a multiple of pi^(N s), and N s >= count-k,
    so each digit read is the one the full data gives.  Precisions
    and exact-zero flags never read the data: they, the digit count and so
    every refusal are those of dividing at full precision.
    """
    floor = x.floor
    f, n = floor.ground, floor.absolute_degree
    xs = _pairs((x,) if floor is f else x.coords)
    out = []
    try:
        for k in range(count):
            x0 = xs[0]
            d = 0
            if x0 is not None:
                if x0[1] < 1:
                    break  # no digit left to read
                d = x0[0] & 0xFFFF if f.mode == "equal" else x0[0] % f.p
            out.append(d)
            if k + 1 == count:
                break
            s = min(f.prec, -(-(count - k - 1) // n) + 1)
            if d:
                # the lift is ground coordinate 0 of the digit's embedding
                data, prec = xs[0]
                xs[0] = (f._settle(data - f.teichmuller(d).data, min(prec, s)),
                         prec)
            xs = floor.udiv_pairs(xs, s)
    except PrecisionExhausted:
        pass
    return out
