"""Exact arithmetic in the two ground fields.

A ground field here is either F_p((t)) ("equal" mode, uniformizer t) or
Q_p ("mixed" mode, uniformizer p), always with residue field F_p.  A
scalar is stored with an absolute precision ``prec``:

* equal mode: a tuple of ``prec`` residues, digit k being the
  coefficient of t^k, so the element is known mod t^prec;
* mixed mode: a single integer in [0, p^prec), known mod p^prec.

Precision is tracked per scalar.  Sums and products carry the minimum of
the operands' precisions; dividing by the uniformizer costs one digit.
A scalar whose tracked digits are all zero is ambiguous (it may have any
valuation >= prec), so valuation queries on it raise PrecisionExhausted
unless the scalar is flagged ``exact_zero``, meaning it was produced
purely from exact zeros and is genuinely 0.

Multiplication in equal mode packs the digit tuples into one big integer
with 16-bit slots and lets Python's integer product do the convolution;
slot overflow is impossible while prec * (p-1)^2 < 2^16.
"""

from __future__ import annotations

from .errors import NotAUnit, NotDivisible, PrecisionExhausted

_SLOT = 16


class _Infinity:
    """The single infinite valuation, absorbing under + and largest under <."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        return self

    __rmul__ = __mul__

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash(float("inf"))

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def vp(n: int, p: int):
    """p-adic valuation of the integer n; INFINITY for n = 0."""
    if n == 0:
        return INFINITY
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_mul_trunc(a, b, p, out_len):
    # Kronecker substitution: pack digits into 16-bit slots, multiply once.
    ia = 0
    for k in range(len(a) - 1, -1, -1):
        ia = (ia << _SLOT) | a[k]
    ib = 0
    for k in range(len(b) - 1, -1, -1):
        ib = (ib << _SLOT) | b[k]
    raw = (ia * ib).to_bytes(2 * (len(a) + len(b) + 1), "little")
    return tuple(
        (raw[2 * k] + (raw[2 * k + 1] << 8)) % p for k in range(out_len)
    )


def _convolve(a, b, out_len, zero):
    """Schoolbook product of two coefficient sequences, cut at ``out_len``.

    Only exact zeros are skipped: a coefficient that is merely zero to
    precision still carries its precision into every term it touches.
    """
    buf = [zero] * out_len
    for i, ai in enumerate(a[:out_len]):
        if ai.exact_zero:
            continue
        for j, bj in enumerate(b[: out_len - i]):
            if bj.exact_zero:
                continue
            buf[i + j] = buf[i + j] + ai * bj
    return buf


class GroundField:
    """F_p((t)) or Q_p at a fixed default precision.

    Acts as the bottom floor of an extension tower: it exposes the same
    constructors (zero, one, from_int, uniformizer, teichmuller, embed)
    as the Eisenstein floors stacked on top of it.
    """

    __slots__ = ("mode", "p", "prec", "_ppow")

    def __init__(self, mode, p, prec):
        if mode not in ("equal", "mixed"):
            raise ValueError("mode must be 'equal' or 'mixed'")
        if not _is_prime(p):
            raise ValueError("p must be prime, got %r" % (p,))
        if prec < 1:
            raise ValueError("prec must be positive")
        if prec * (p - 1) ** 2 >= 1 << _SLOT:
            raise ValueError("prec too large for packed multiplication")
        self.mode = mode
        self.p = p
        self.prec = prec
        self._ppow = {}

    @classmethod
    def equal_char(cls, p, prec):
        return cls("equal", p, prec)

    @classmethod
    def mixed_char(cls, p, prec):
        return cls("mixed", p, prec)

    # -- floor protocol ------------------------------------------------

    @property
    def base(self):
        return None

    @property
    def ground(self):
        return self

    @property
    def degree(self):
        return 1

    @property
    def absolute_degree(self):
        return 1

    @property
    def ceiling(self):
        return self.prec

    def p_valuation(self):
        """Valuation of the rational prime p, normalized to this field."""
        return INFINITY if self.mode == "equal" else 1

    def ppow(self, k):
        pw = self._ppow.get(k)
        if pw is None:
            pw = self._ppow[k] = self.p ** k
        return pw

    def zero(self, prec=None):
        n = self.prec if prec is None else prec
        data = (0,) * n if self.mode == "equal" else 0
        return BaseScalar(self, data, n, True)

    def one(self):
        return self.from_int(1)

    def from_int(self, k: int):
        if self.mode == "equal":
            data = (k % self.p,) + (0,) * (self.prec - 1)
            return BaseScalar(self, data, self.prec, k % self.p == 0)
        return BaseScalar(self, k % self.ppow(self.prec), self.prec, k == 0)

    def uniformizer(self):
        if self.mode == "equal":
            data = ((0, 1) + (0,) * self.prec)[: self.prec]
            return BaseScalar(self, data, self.prec, False)
        return BaseScalar(self, self.p, self.prec, False)

    def teichmuller(self, r: int):
        """The Teichmuller lift of the residue r: the root of x^p = x above r."""
        r %= self.p
        if r == 0:
            return self.zero()
        if self.mode == "equal":
            return self.from_int(r)
        m = self.ppow(self.prec)
        x = r
        for _ in range(self.prec + 1):
            y = pow(x, self.p, m)
            if y == x:
                break
            x = y
        return BaseScalar(self, x, self.prec, False)

    def embed(self, x):
        if isinstance(x, BaseScalar) and x.field is self:
            return x
        raise TypeError("cannot embed %r into %r" % (x, self))

    def residue_inverse(self, r: int) -> int:
        return pow(r, -1, self.p)

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
            p = f.p
            data = tuple((self.data[k] + o.data[k]) % p for k in range(m))
        else:
            data = (self.data + o.data) % f.ppow(m)
        return BaseScalar(f, data, m, False)

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        if f.mode == "equal":
            p = f.p
            data = tuple((-c) % p for c in self.data)
        else:
            data = (-self.data) % f.ppow(self.prec)
        return BaseScalar(f, data, self.prec, self.exact_zero)

    def __mul__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        f = self.field
        if self.exact_zero or o.exact_zero:
            return f.zero(max(self.prec, o.prec))
        m = min(self.prec, o.prec)
        if f.mode == "equal":
            data = _poly_mul_trunc(self.data[:m], o.data[:m], f.p, m)
        else:
            data = (self.data * o.data) % f.ppow(m)
        return BaseScalar(f, data, m, False)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        m = min(self.prec, o.prec)
        if self.field.mode == "equal":
            return self.data[:m] == o.data[:m]
        return (self.data - o.data) % self.field.ppow(m) == 0

    __hash__ = None

    def is_zero_to_precision(self) -> bool:
        if self.field.mode == "equal":
            return all(c == 0 for c in self.data)
        return self.data == 0

    def valuation(self):
        """Exact valuation, INFINITY for the exact zero.

        Raises PrecisionExhausted when every tracked digit vanishes but
        the scalar is not known to be zero.
        """
        if self.exact_zero:
            return INFINITY
        if self.field.mode == "equal":
            for k, c in enumerate(self.data):
                if c:
                    return k
        elif self.data:
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
        return self.data[0] if self.field.mode == "equal" else self.data % self.field.p

    def udiv(self, k: int):
        """Divide by uniformizer^k.  Requires valuation >= k, provably."""
        if k == 0:
            return self
        if self.exact_zero:
            return self.field.zero(max(self.prec - k, 0))
        if self.prec < k:
            raise PrecisionExhausted(
                "cannot certify divisibility by power %d at precision %d"
                % (k, self.prec),
                bound=self.prec,
            )
        f = self.field
        if f.mode == "equal":
            if any(self.data[i] for i in range(k)):
                raise NotDivisible("valuation below %d" % k)
            return BaseScalar(f, self.data[k:], self.prec - k, False)
        if self.data % f.ppow(k):
            raise NotDivisible("valuation below %d" % k)
        return BaseScalar(f, self.data // f.ppow(k), self.prec - k, False)

    def unit_inverse(self):
        if self.residue() == 0:
            raise NotAUnit("valuation is positive")
        f = self.field
        if f.mode == "mixed":
            return BaseScalar(f, pow(self.data, -1, f.ppow(self.prec)), self.prec, False)
        p, n = f.p, self.prec
        a = self.data
        inv0 = pow(a[0], -1, p)
        out = [inv0] + [0] * (n - 1)
        for k in range(1, n):
            s = 0
            for i in range(1, k + 1):
                s += a[i] * out[k - i]
            out[k] = (-inv0 * s) % p
        return BaseScalar(f, tuple(out), n, False)

    def __repr__(self):
        f = self.field
        if f.mode == "mixed":
            return "%d + O(%d^%d)" % (self.data, f.p, self.prec)
        terms = [
            ("t^%d" % k if k > 1 else "t") if c == 1 else
            ("%d*t^%d" % (c, k) if k > 1 else "%d*t" % c) if k else "%d" % c
            for k, c in enumerate(self.data) if c
        ]
        return "%s + O(t^%d)" % (" + ".join(terms) or "0", self.prec)


def digit_expand_base(x, count: int):
    """First ``count`` Teichmuller digits of an integral element x.

    Works over any floor: x = sum_k lift(d_k) * pi^k + O(pi^count), where
    pi is the uniformizer of x's floor.  Returns the residues d_k; the
    list is shorter than ``count`` when the tracked digits of x run out.
    """
    floor = x.floor
    out = []
    r = x
    try:
        for _ in range(count):
            d = r.residue()
            out.append(d)
            if d:
                r = r - floor.teichmuller(d)
            r = r.udiv(1)
    except PrecisionExhausted:
        pass
    return out
