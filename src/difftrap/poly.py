"""Exact multivariate polynomials over the prime field F_p.

Representation.  A monomial is a tuple of ``(variable, exponent)`` pairs,
sorted by variable name, with no zero exponents; the empty tuple is the
monomial 1.  A polynomial is a dict mapping monomials to coefficients in
``{1, ..., p-1}``; the empty dict is the zero polynomial.  Polynomials are
immutable after construction and hashable, so structural equality is
polynomial equality.

The monomial order used everywhere (leading terms, display, canonical
normalization downstream) is graded lexicographic with alphabetically
earlier variable names ranked higher.

GCDs are computed by a primitive, fraction-free pseudo-remainder sequence,
recursing on the number of variables; at the degrees this workbench handles
the repeated content extraction is cheap and keeps intermediate degrees flat.
"""

from .errors import BadParameterError, InexactDivisionError


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p):
    """Reject anything but a prime modulus p for F_p."""
    if not isinstance(p, int) or not is_prime(p):
        raise BadParameterError(f"{p!r} is not a prime modulus")


def mono_mul(m1, m2):
    # linear merge of name-sorted pair tuples; exponents stay positive
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def mono_div(m1, m2):
    """m1 / m2, or None when m2 does not divide m1."""
    exps = dict(m1)
    for v, e in m2:
        have = exps.get(v, 0)
        if have < e:
            return None
        if have == e:
            del exps[v]
        else:
            exps[v] = have - e
    return tuple(sorted(exps.items()))


def mono_degree(m):
    return sum(e for _, e in m)


def mono_key(m):
    """Sort key realizing graded lex, alphabetically earlier variable higher.

    Exponents are negated so that plain tuple comparison ranks a higher
    power of an earlier variable as larger.
    """
    return (mono_degree(m), tuple((v, -e) for v, e in m))


def _mono_cmp_key_desc(m):
    # key for descending iteration: invert the grlex key
    deg, body = mono_key(m)
    return (-deg, tuple((v, -ne) for v, ne in body))


class Poly:
    """An immutable multivariate polynomial over F_p."""

    __slots__ = ("p", "terms", "_hash")

    def __init__(self, p, terms=None, _normalized=False):
        self.p = p
        if terms is None:
            terms = {}
        if not _normalized:
            clean = {}
            for m, c in terms.items():
                c %= p
                if c:
                    clean[m] = c
            terms = clean
        self.terms = terms
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, p, c):
        c %= p
        return cls(p, {(): c} if c else {}, _normalized=True)

    @classmethod
    def zero(cls, p):
        return cls(p, {}, _normalized=True)

    @classmethod
    def one(cls, p):
        return cls.const(p, 1)

    @classmethod
    def var(cls, p, name, exp=1):
        if exp < 0:
            raise BadParameterError("Poly.var needs a nonnegative exponent")
        if exp == 0:
            return cls.one(p)
        return cls(p, {((name, exp),): 1}, _normalized=True)

    # -- basic queries -------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self):
        return self.terms.get((), 0)

    def variables(self):
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def degree_in(self, var):
        d = 0
        for m in self.terms:
            for v, e in m:
                if v == var and e > d:
                    d = e
        return d

    def leading_monomial(self):
        if not self.terms:
            return None
        return max(self.terms, key=mono_key)

    def leading_coeff(self):
        lm = self.leading_monomial()
        return 0 if lm is None else self.terms[lm]

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: _mono_cmp_key_desc(t[0]))

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if self.p != other.p:
            raise BadParameterError("mixed characteristics")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        p = self.p
        for m, c in other.terms.items():
            s = (out.get(m, 0) + c) % p
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return Poly(p, out, _normalized=True)

    def __neg__(self):
        p = self.p
        return Poly(p, {m: (-c) % p for m, c in self.terms.items()}, _normalized=True)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        p = self.p
        for m, c in other.terms.items():
            s = (out.get(m, 0) - c) % p
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return Poly(p, out, _normalized=True)

    def __mul__(self, other):
        self._check(other)
        p = self.p
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        get = out.get
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = mono_mul(m1, m2)
                s = (get(m, 0) + c1 * c2) % p
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return Poly(p, out, _normalized=True)

    def scale(self, c):
        c %= self.p
        if c == 0:
            return Poly.zero(self.p)
        if c == 1:
            return self
        p = self.p
        return Poly(p, {m: (k * c) % p for m, k in self.terms.items()}, _normalized=True)

    def __pow__(self, n):
        if n < 0:
            raise BadParameterError("negative power of a polynomial")
        result = Poly.one(self.p)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- equality / hashing ---------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Poly) and self.p == other.p and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.p, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- display ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            if not m:
                parts.append(str(c))
                continue
            factors = []
            for v, e in m:
                factors.append(v if e == 1 else f"{v}^{e}")
            body = "*".join(factors)
            parts.append(body if c == 1 else f"{c}*{body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly[F_{self.p}]({self})"


class _MaxMono:
    """Heap wrapper ranking graded-lex larger monomials first."""

    __slots__ = ("mono", "key")

    def __init__(self, mono):
        self.mono = mono
        self.key = mono_key(mono)

    def __lt__(self, other):
        return other.key < self.key


def exact_div(f, g):
    """Exact polynomial quotient f/g; raises when g does not divide f.

    Long division with the running remainder kept in a dict and its leading
    monomial tracked through a lazy-deletion heap, so each step costs
    O(log terms) instead of a full scan.
    """
    import heapq

    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    f._check(g)
    p = f.p
    if g.is_constant():
        return f.scale(pow(g.constant_value(), p - 2, p))
    q = {}
    rem = dict(f.terms)
    heap = [_MaxMono(m) for m in rem]
    heapq.heapify(heap)
    glm = g.leading_monomial()
    glc_inv = pow(g.leading_coeff(), p - 2, p)
    while rem:
        while heap and heap[0].mono not in rem:
            heapq.heappop(heap)
        if not heap:
            break
        rlm = heap[0].mono
        m = mono_div(rlm, glm)
        if m is None:
            raise InexactDivisionError(f"({f}) not divisible by ({g})")
        c = (rem[rlm] * glc_inv) % p
        q[m] = c
        for gm, gc in g.terms.items():
            t = mono_mul(gm, m)
            v = (rem.get(t, 0) - gc * c) % p
            if v:
                if t not in rem:
                    heapq.heappush(heap, _MaxMono(t))
                rem[t] = v
            else:
                rem.pop(t, None)
    if rem:
        raise InexactDivisionError(f"({f}) not divisible by ({g})")
    return Poly(p, q, _normalized=True)


# -- gcd machinery (primitive PRS, recursive in the variable count) -------


def _coeffs_in(f, x):
    """View f in F_p[rest][x]: dict degree -> coefficient Poly."""
    out = {}
    for m, c in f.terms.items():
        d = 0
        rest = []
        for v, e in m:
            if v == x:
                d = e
            else:
                rest.append((v, e))
        key = tuple(rest)
        coeff = out.setdefault(d, {})
        coeff[key] = (coeff.get(key, 0) + c) % f.p
    return {d: Poly(f.p, t) for d, t in out.items() if any(t.values())}


def _from_coeffs(coeffs, x, p):
    terms = {}
    for d, poly in coeffs.items():
        for m, c in poly.terms.items():
            mm = mono_mul(m, ((x, d),)) if d else m
            terms[mm] = (terms.get(mm, 0) + c) % p
    return Poly(p, terms)


def _content_wrt(f, x):
    """Monic gcd of the x-coefficients, visiting small coefficients first
    and stopping as soon as the running gcd collapses to a constant."""
    coeffs = sorted(_coeffs_in(f, x).values(), key=lambda c: len(c.terms))
    content = coeffs[0]
    for c in coeffs[1:]:
        if content.is_constant():
            break
        content = gcd(content, c)
    return monic(content)


def _pseudo_rem(a, b, x):
    """Pseudo-remainder of a by b wrt x; coefficients stay polynomial.

    Runs on the coefficient views so the x-powers never enter the monomial
    arithmetic; the popped leading term cancels exactly by construction.
    """
    A = _coeffs_in(a, x)
    B = _coeffs_in(b, x)
    db = max(B)
    lb = B[db]
    while A:
        da = max(A)
        if da < db:
            break
        la = A.pop(da)
        nxt = {d: lb * c for d, c in A.items()}
        for d, c in B.items():
            if d == db:
                continue
            nd = da - db + d
            t = la * c
            v = nxt.get(nd)
            v = -t if v is None else v - t
            if v.is_zero():
                nxt.pop(nd, None)
            else:
                nxt[nd] = v
        A = nxt
    return _from_coeffs(A, x, a.p)


def _primitive_part(f, x):
    content = _content_wrt(f, x)
    if content.is_constant():
        return f
    return exact_div(f, content)


def _primitive_gcd_in(pf, pg, x):
    """gcd of two x-primitive polynomials: primitive pseudo-remainder chain."""
    a, b = pf, pg
    if a.degree_in(x) < b.degree_in(x):
        a, b = b, a
    while True:
        if b.degree_in(x) == 0:
            return Poly.one(pf.p)
        r = _pseudo_rem(a, b, x)
        if r.is_zero():
            return monic(_primitive_part(b, x))
        a, b = b, _primitive_part(r, x)


def _monomial_content(f):
    """The largest monomial dividing every term."""
    mins = None
    for m in f.terms:
        exps = dict(m)
        if mins is None:
            mins = exps
        else:
            mins = {v: min(e, exps.get(v, 0)) for v, e in mins.items() if v in exps}
        if not mins:
            return ()
    return tuple(sorted(mins.items()))


def _strip_monomial(f, mono):
    if not mono:
        return f
    out = {}
    for m, c in f.terms.items():
        out[mono_div(m, mono)] = c
    return Poly(f.p, out, _normalized=True)


def _poly_pth_root(f):
    """The exact p-th root when every exponent is divisible by p, else None.

    Valid because Frobenius is additive and fixes the coefficients:
    (sum c_i m_i)^p = sum c_i m_i^p.
    """
    p = f.p
    terms = {}
    for m, c in f.terms.items():
        for _, e in m:
            if e % p:
                return None
        terms[tuple((v, e // p) for v, e in m)] = c
    return Poly(p, terms, _normalized=True)


def _gcd_against_power(a, root, k):
    """gcd(a, root^k) by repeated extraction of gcd(a, root).

    Per prime factor the iterations extract min(mult_a, k * mult_root), so
    the result is the true gcd while every recursive gcd sees only the small
    root.
    """
    total = Poly.one(a.p)
    cur = a
    for _ in range(k):
        d = gcd(cur, root)
        if d.is_constant():
            break
        total = total * d
        cur = exact_div(cur, d)
    return monic(total)


_GCD_MEMO = {}
_GCD_MEMO_CAP = 8192


def gcd(f, g):
    """Monic gcd of two polynomials over F_p."""
    if f.is_zero():
        return monic(g)
    if g.is_zero():
        return monic(f)
    if f.is_constant() or g.is_constant():
        return Poly.one(f.p)
    if f == g:
        return monic(f)
    key = (f, g) if hash(f) <= hash(g) else (g, f)
    hit = _GCD_MEMO.get(key)
    if hit is not None:
        return hit
    result = _gcd_uncached(f, g)
    if len(_GCD_MEMO) >= _GCD_MEMO_CAP:
        _GCD_MEMO.clear()
    _GCD_MEMO[key] = result
    return result


def _gcd_uncached(f, g):
    # Frobenius-heavy workloads constantly take gcds against perfect p-th
    # powers; splitting the power keeps the remainder sequences small
    root_f = _poly_pth_root(f)
    root_g = _poly_pth_root(g)
    if root_f is not None and root_g is not None:
        return monic(gcd(root_f, root_g) ** f.p)
    if root_g is not None:
        return _gcd_against_power(f, root_g, g.p)
    if root_f is not None:
        return _gcd_against_power(g, root_f, f.p)
    # split off the common monomial factor; cheap and frequent
    mf, mg = _monomial_content(f), _monomial_content(g)
    if mf or mg:
        common = {}
        lookup = dict(mg)
        for v, e in mf:
            both = min(e, lookup.get(v, 0))
            if both:
                common[v] = both
        common = tuple(sorted(common.items()))
        f = _strip_monomial(f, mf)
        g = _strip_monomial(g, mg)
        core = gcd(f, g) if not (f.is_constant() or g.is_constant()) else Poly.one(f.p)
        return monic(core * Poly(f.p, {common: 1}, _normalized=True))
    shared = sorted(f.variables() & g.variables())
    if not shared:
        # no common variable and no common monomial factor: coprime
        return Poly.one(f.p)
    x = shared[0]
    cf = _content_wrt(f, x)
    cg = _content_wrt(g, x)
    if cf.is_constant() and cg.is_constant():
        c = Poly.one(f.p)
        pf, pg = f, g
    else:
        c = gcd(cf, cg)
        pf = f if cf.is_constant() else exact_div(f, cf)
        pg = g if cg.is_constant() else exact_div(g, cg)
    return monic(c * _primitive_gcd_in(pf, pg, x))


def monic(f):
    """Scale f so its graded-lex leading coefficient is 1."""
    if f.is_zero():
        return f
    lc = f.leading_coeff()
    if lc == 1:
        return f
    return f.scale(pow(lc, f.p - 2, f.p))


def lcm(f, g):
    if f.is_zero() or g.is_zero():
        return Poly.zero(f.p)
    return monic(exact_div(f * g, gcd(f, g)))


def formal_partial(f, var):
    """Formal partial derivative d f / d var; kills p-th powers."""
    p = f.p
    out = {}
    for m, c in f.terms.items():
        for v, e in m:
            if v != var:
                continue
            k = (c * e) % p
            if not k:
                continue
            rest = tuple((w, d) for w, d in m if w != var)
            mm = mono_mul(rest, ((var, e - 1),)) if e > 1 else rest
            s = (out.get(mm, 0) + k) % p
            if s:
                out[mm] = s
            elif mm in out:
                del out[mm]
    return Poly(p, out, _normalized=True)
