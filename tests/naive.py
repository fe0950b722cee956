"""Independent naive reference implementations used as oracles by the tests.

Everything here works on plain ascending coefficient lists of ints mod a
prime p, shares no code with the package, and favors obviousness over speed:
trial division, exhaustive scans, and textbook formulas only.  The one
exception is seeded_retry_split, the split's earlier retry order, which
runs on the package's Poly arithmetic.
"""

from functools import reduce
from itertools import product
from math import comb
from operator import mul


def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def polmul(p, a, b):
    a, b = trim(a), trim(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return trim(out)


def poladd(p, a, b):
    n = max(len(a), len(b))
    return trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                 for i in range(n)])


def poldivmod(p, a, b):
    a, b = trim(a), trim(b)
    assert b, "division by zero polynomial"
    inv = pow(b[-1], p - 2, p)
    db = len(b) - 1
    quo = [0] * max(0, len(a) - db)
    rem = a[:]
    while len(rem) - 1 >= db and rem:
        c = rem[-1] * inv % p
        off = len(rem) - 1 - db
        quo[off] = c
        for i, y in enumerate(b):
            rem[off + i] = (rem[off + i] - c * y) % p
        rem = trim(rem)
    return trim(quo), rem


def polgcd(p, a, b):
    """The last nonzero remainder of Euclid's algorithm, not made monic."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, poldivmod(p, a, b)[1]
    return a


def polpowmod(p, a, e, m):
    """a**e mod m by right-to-left square-and-multiply, m nonzero."""
    out, base = poldivmod(p, [1], m)[1], poldivmod(p, a, m)[1]
    while e:
        if e & 1:
            out = poldivmod(p, polmul(p, out, base), m)[1]
        base = poldivmod(p, polmul(p, base, base), m)[1]
        e >>= 1
    return out


def poleval(p, a, x):
    acc = 0
    for c in reversed(trim(a)):
        acc = (acc * x + c) % p
    return acc


def is_irreducible(p, a):
    """Trial division by every monic polynomial of degree <= deg/2."""
    a = trim(a)
    d = len(a) - 1
    if d < 1:
        return False
    for e in range(1, d // 2 + 1):
        for tail in product(range(p), repeat=e):
            div = list(tail) + [1]
            _, rem = poldivmod(p, a, div)
            if not rem:
                return False
    return True


def gf2_rem(a, m):
    """Remainder of a modulo m for GF(2) polynomials packed into ints, bit i
    the coefficient of x**i."""
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def gf2_mul(a, b):
    """Product of two packed GF(2) polynomials, one shifted copy of a per
    set bit of b."""
    acc = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            acc ^= a << i
    return acc


def gf2_ben_or(f):
    """Ben-Or's test on a packed GF(2) polynomial: f is prime iff
    gcd(x**(2**i) - x, f) = 1 for every i <= deg(f)/2."""
    d = f.bit_length() - 1
    if d < 1:
        return False
    t = 2  # x**(2**i) modulo f
    for _ in range(1, d // 2 + 1):
        sq = 0
        for j in range(t.bit_length()):
            sq |= (t >> j & 1) << (2 * j)
        t = gf2_rem(sq, f)
        a, b = f, t ^ 2
        while b:
            a, b = b, gf2_rem(a, b)
        if a != 1:
            return False
    return True


def ben_or(p, a):
    """Ben-Or's test on a monic coefficient list over F_p: a of degree d is
    prime iff gcd(a, x**(p**i) - x) = 1 for every i <= d // 2."""
    d = len(trim(a)) - 1
    if d < 1:
        return False
    t = [0, 1]  # x**(p**i) modulo a
    for _ in range(d // 2):
        t = polpowmod(p, t, p, a)
        if len(polgcd(p, a, poladd(p, t, [0, p - 1]))) != 1:
            return False
    return True


def lex_least_irreducible(p, k):
    """First monic irreducible of degree k in ascending-coefficient lex order."""
    for tail in product(range(p), repeat=k):
        if is_irreducible(p, list(tail) + [1]):
            return tuple(tail) + (1,)
    raise AssertionError("no irreducible found")


def monic_irreducibles(p, d):
    out = []
    for tail in product(range(p), repeat=d):
        cand = list(tail) + [1]
        if is_irreducible(p, cand):
            out.append(tuple(cand))
    return out


def factor_naive(p, a):
    """Full factorization by repeatedly dividing out the smallest-degree
    monic divisor (which is automatically irreducible); returns sorted
    (monic factor tuple, multiplicity) pairs."""
    a = trim(a)
    assert a, "cannot factor zero"
    inv = pow(a[-1], p - 2, p)
    a = [c * inv % p for c in a]
    factors = {}
    while len(a) - 1 >= 1:
        hit = None
        for d in range(1, len(a)):
            for tail in product(range(p), repeat=d):
                div = list(tail) + [1]
                quo, rem = poldivmod(p, a, div)
                if not rem:
                    hit = (tuple(div), quo)
                    break
            if hit:
                break
        div, quo = hit
        factors[div] = factors.get(div, 0) + 1
        a = quo
    return sorted(factors.items())


def gf4_roots_product(a):
    """One conjugate factor over GF(4) of an even-degree prime a over GF(2),
    as ascending literals with rho -> 2, rho**2 = rho + 1.

    In R = GF(2)[x]/(a) the class alpha of x is a root, and the factor
    vanishing at alpha is prod_{i < d/2} (Y - alpha**(4**i)); its
    coefficients lie in the copy {0, 1, rho, rho + 1} of GF(4) in R.
    """
    a = trim(a)
    d = len(a) - 1

    def mulmod(u, v):
        return trim(poldivmod(2, polmul(2, u, v), a)[1])

    coeffs = [[1]]  # ascending in Y, each an element of R
    r = [0, 1]  # alpha
    for _ in range(d // 2):
        nxt = [mulmod(coeffs[0], r)]
        for j in range(1, len(coeffs)):
            nxt.append(poladd(2, coeffs[j - 1], mulmod(coeffs[j], r)))
        nxt.append([1])
        coeffs = nxt
        r = mulmod(r, mulmod(r, mulmod(r, r)))
    rho = next(c for c in coeffs if len(c) > 1)
    assert not poladd(2, poladd(2, mulmod(rho, rho), rho), [1])
    table = {(): 0, (1,): 1, tuple(rho): 2, tuple(poladd(2, rho, [1])): 3}
    return [table[tuple(c)] for c in coeffs]


def gf4_gcd(a_lo, a_hi, b_lo, b_hi):
    """Monic gcd of two GF(4)-polynomials, each held as bit-packed GF(2)
    halves (lo, hi) meaning sum (lo_i + rho*hi_i) x**i; b must be nonzero."""

    def scale(lo, hi, c):
        # c * (lo + rho*hi) for the literal c, with rho*(lo + rho*hi) =
        # hi + rho*(lo + hi)
        return {1: (lo, hi), 2: (hi, lo ^ hi), 3: (lo ^ hi, lo)}[c]

    while True:
        db = max(b_lo.bit_length(), b_hi.bit_length()) - 1
        # make b monic: rho**-1 = rho**2 and (rho**2)**-1 = rho
        lead = (b_lo >> db & 1) | (b_hi >> db & 1) << 1
        b_lo, b_hi = scale(b_lo, b_hi, (0, 1, 3, 2)[lead])
        da = max(a_lo.bit_length(), a_hi.bit_length()) - 1
        while da >= db:
            c = (a_lo >> da & 1) | (a_hi >> da & 1) << 1
            m_lo, m_hi = scale(b_lo, b_hi, c)
            a_lo ^= m_lo << (da - db)
            a_hi ^= m_hi << (da - db)
            da = max(a_lo.bit_length(), a_hi.bit_length()) - 1
        if not a_lo | a_hi:
            return b_lo, b_hi
        a_lo, a_hi, b_lo, b_hi = b_lo, b_hi, a_lo, a_hi


def necklace_formula(q, d):
    """Moebius-sum count of monic irreducibles of degree d over F_q."""

    def moebius(n):
        if n == 1:
            return 1
        out, m = 1, n
        i = 2
        while i * i <= m:
            if m % i == 0:
                m //= i
                if m % i == 0:
                    return 0
                out = -out
            i += 1
        if m > 1:
            out = -out
        return out

    total = sum(moebius(d // e) * q**e for e in range(1, d + 1) if d % e == 0)
    assert total % d == 0
    return total // d


# ---------------------------------------------------------------------------
# Field literals: base-p digits, least significant first, are coordinates.

def digit_add(p, a, b):
    """Sum of two field literals, adding coordinates digit by digit mod p."""
    v, mult = 0, 1
    while a or b:
        v += (a % p + b % p) % p * mult
        a //= p
        b //= p
        mult *= p
    return v


def digit_neg(p, a):
    """Negative of a field literal, negating each coordinate mod p."""
    v, mult = 0, 1
    while a:
        v += (-a) % p * mult
        a //= p
        mult *= p
    return v


# ---------------------------------------------------------------------------
# Naive arithmetic inside an explicit quotient field F_p[t]/(m).

class NaiveField:
    """Field arithmetic done longhand against a given modulus; elements are
    coefficient tuples."""

    def __init__(self, p, modulus):
        self.p = p
        self.modulus = list(modulus)
        self.k = len(self.modulus) - 1
        self.order = p ** self.k

    def from_literal(self, v):
        digits = []
        for _ in range(self.k):
            digits.append(v % self.p)
            v //= self.p
        assert v == 0
        return tuple(digits)

    def to_literal(self, coeffs):
        v = 0
        for c in reversed(self._pad(coeffs)):
            v = v * self.p + c
        return v

    def _pad(self, a):
        a = list(a)[: self.k]
        return a + [0] * (self.k - len(a))

    def add(self, a, b):
        return tuple(self._pad(poladd(self.p, list(a), list(b))))

    def mul(self, a, b):
        prod = polmul(self.p, list(a), list(b))
        _, rem = poldivmod(self.p, prod, self.modulus)
        return tuple(self._pad(rem))

    def pow(self, a, e):
        out = self.from_literal(1)
        base = tuple(self._pad(a))
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, a):
        assert any(a), "zero has no inverse"
        return self.pow(a, self.order - 2)

    def neg(self, a):
        return tuple((-c) % self.p for c in self._pad(a))

    # Polynomials over the field, as ascending lists of literals.

    def polmul(self, f, g):
        if not f or not g:
            return []
        zero = self.from_literal(0)
        out = [zero] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                term = self.mul(self.from_literal(a), self.from_literal(b))
                out[i + j] = self.add(out[i + j], term)
        return trim([self.to_literal(c) for c in out])

    def poladd(self, f, g):
        n = max(len(f), len(g))
        f, g = list(f) + [0] * (n - len(f)), list(g) + [0] * (n - len(g))
        return trim([self.to_literal(self.add(self.from_literal(a), self.from_literal(b)))
                     for a, b in zip(f, g)])

    def poldivmod(self, f, g):
        """Schoolbook long division of literal lists, g nonzero."""
        f, g = trim(f), trim(g)
        assert g, "division by zero polynomial"
        inv = self.inv(self.from_literal(g[-1]))
        dg = len(g) - 1
        quo = [0] * max(0, len(f) - dg)
        rem = [self.from_literal(c) for c in f]
        while len(rem) - 1 >= dg and rem:
            c = self.mul(rem[-1], inv)
            off = len(rem) - 1 - dg
            quo[off] = self.to_literal(c)
            for i, y in enumerate(g):
                term = self.mul(c, self.from_literal(y))
                rem[off + i] = self.add(rem[off + i], self.neg(term))
            rem = [self.from_literal(v) for v in trim([self.to_literal(r) for r in rem])]
        return trim(quo), [self.to_literal(r) for r in rem]

    def polpowmod(self, f, e, m):
        """f**e mod m by right-to-left square-and-multiply, m nonzero."""
        out, base = self.poldivmod([1], m)[1], self.poldivmod(f, m)[1]
        while e:
            if e & 1:
                out = self.poldivmod(self.polmul(out, base), m)[1]
            base = self.poldivmod(self.polmul(base, base), m)[1]
            e >>= 1
        return trim(out)

    def mult_order(self, a):
        assert any(a), "zero has no multiplicative order"
        one = self.from_literal(1)
        cur = tuple(self._pad(a))
        n = 1
        while cur != one:
            cur = self.mul(cur, a)
            n += 1
            assert n <= self.order
        return n


# ---------------------------------------------------------------------------
# Monic polynomials by value vector, one constant at a time.

def horner_counts(ctx, xs, terms):
    """N_0, ..., N_{terms-1}: N_n maps each value vector (f(x_1), ...,
    f(x_k)) of a monic f of degree n, over a field given by its literal
    operations ctx.add_i and ctx.mul_i, to the number of such f.  Horner's
    rule f = X*g + a: N_{n+1} is N_n pushed through v -> (v_i*x_i + a)_i
    for every constant a, one dict update per state and constant."""
    shifts = {}  # u -> (u + a for every a)

    def shifted(u):
        if u not in shifts:
            shifts[u] = tuple(ctx.add_i(u, a) for a in range(ctx.order))
        return shifts[u]

    out = [{(1,) * len(xs): 1}]
    for _ in range(terms - 1):
        nxt = {}
        for state, cnt in out[-1].items():
            for key in zip(*[shifted(ctx.mul_i(v, x)) for v, x in zip(state, xs)]):
                nxt[key] = nxt.get(key, 0) + cnt
        out.append(nxt)
    return out[:terms]


def by_class(ctx, counts, ell):
    """counts, keyed by value vector, summed by class vector (log v_i mod
    ell)_i, leaving out the vectors with a zero value."""
    out = {}
    for values, cnt in counts.items():
        if 0 not in values:
            key = tuple(ctx.log[v] % ell for v in values)
            out[key] = out.get(key, 0) + cnt
    return out


def line_counts_by_tuples(ctx, xs, terms, ell):
    """M_0, ..., M_{terms-1}, each keyed by class vector and leaving out the
    vectors with a zero value, by the line transfer with every key a tuple:
    the line keyed by (e_i)_{i>1}, d_i = x_i - x_1, holds the value vectors
    (t, t + e_2*d_2, ..., t + e_k*d_k) over t, and its point at t pushes to
    the line keyed by (t + e_i*x_i)_{i>1}.  A second oracle for the shapes
    where pushing every constant is too slow: it shares no row, key or code
    with the package."""
    order = ctx.order
    shifts = {}  # u -> (u + a for every a)
    classes = [None] + [ctx.log[v] % ell for v in range(1, order)]

    def shifted(u):
        if u not in shifts:
            shifts[u] = tuple(ctx.add_i(u, a) for a in range(order))
        return shifts[u]

    x1, rest = xs[0], xs[1:]
    offsets = [ctx.sub_i(x, x1) for x in rest]
    out = [{(0,) * len(xs): 1}]
    lines = {(1,) * len(rest): 1}
    for n in range(1, terms):
        counts, pushed = {}, {}
        for key, cnt in lines.items():
            rows = [shifted(0)] + [shifted(ctx.mul_i(e, d)) for e, d in zip(key, offsets)]
            for values in zip(*rows):
                c = tuple(classes[v] for v in values)
                if None not in c:
                    counts[c] = counts.get(c, 0) + cnt
            if n < terms - 1:
                pushes = [shifted(ctx.mul_i(e, x)) for e, x in zip(key, rest)]
                for line in zip(*pushes) if rest else [()] * order:
                    pushed[line] = pushed.get(line, 0) + cnt
        out.append(counts)
        lines = pushed
    return out


# ---------------------------------------------------------------------------
# Base primes by class line, peeled in the group ring of (Z/ell)^k.

def group_ring_lines(monic, ell, q, n_q, Q, k, m_max):
    """Base primes of degree n_q*m, m = 1..m_max, by the line of their class
    vector at k points, each line keyed by its representative whose first
    nonzero coordinate is 1 (the zero vector for class 0).  monic[n], n < k,
    maps each class vector to the number of monic f of degree n over F_Q,
    Q = q**n_q, with no root at the points and that class; from degree k on
    every class holds Q**(n-k) * ((Q-1)/ell)**k of them.

    The Euler product of the monics is peeled one degree at a time in the
    group ring Z[(Z/ell)^k], with dicts keyed by class tuples:
    Lambda_n = n M_n - sum_{i<n} Lambda_i M_{n-i} = sum_{m | n} m psi_{n/m}(P_m)
    gives P_n, the F_Q-primes of degree n by class; the primes with a Frobenius
    orbit shorter than n_q (class 0) are set aside and the rest form orbits
    of n_q on one line."""

    def line_of(c):
        for a in c:
            if a:
                inv = pow(a, -1, ell)
                return tuple(b * inv % ell for b in c)
        return c

    every = list(product(range(ell), repeat=k))
    uniform = ((Q - 1) // ell) ** k
    power_sums, primes, out = [{}], [{}], []
    for n in range(1, m_max + 1):
        lam = {}
        flat = 0  # coefficient of the all-ones element
        if n < k:
            for c, cnt in monic[n].items():
                lam[c] = n * cnt
        else:
            flat += n * Q ** (n - k) * uniform
        for i in range(1, n):
            j = n - i
            if j >= k:
                flat -= sum(power_sums[i].values()) * Q ** (j - k) * uniform
                continue
            for ca, na in power_sums[i].items():
                for cb, nb in monic[j].items():
                    key = tuple((x + y) % ell for x, y in zip(ca, cb))
                    lam[key] = lam.get(key, 0) - na * nb
        for c in every if flat else ():
            lam[c] = lam.get(c, 0) + flat
        power_sums.append(lam)
        rest = dict(lam)
        for m in range(1, n):
            if n % m == 0:
                for c, cnt in primes[m].items():
                    key = tuple(n // m * a % ell for a in c)
                    rest[key] = rest.get(key, 0) - m * cnt
        assert all(cnt % n == 0 and cnt >= 0 for cnt in rest.values())
        primes.append({c: cnt // n for c, cnt in rest.items() if cnt})
        counted = necklace_formula(Q, n) - k * (n == 1)  # all but X - x_i
        assert sum(primes[n].values()) == counted
        lines = {(0,) * k: n_q * necklace_formula(q, n_q * n) - counted}
        for c, cnt in primes[n].items():
            lines[line_of(c)] = lines.get(line_of(c), 0) + cnt
        assert all(cnt % n_q == 0 and cnt >= 0 for cnt in lines.values())
        out.append({line: cnt // n_q for line, cnt in lines.items() if cnt})
    return out


# ---------------------------------------------------------------------------
# The Euler series of a line, one binomial factor at a time.

def euler_series(ell, n_q, per_degree, w, trunc):
    """Coefficients up to u**trunc of prod_m (1 + (ell-1)u**d)**O_m(w)
    * (1 - u**d)**(O_m(0) - O_m(w)), d = n_q*m, O_m = per_degree[m-1] mapping
    each line representative to the base primes of degree d orthogonal to
    it, each power expanded binomially, one factor after another."""
    series = [0] * (trunc + 1)
    series[0] = 1
    for m, orth in enumerate(per_degree, start=1):
        d, z = n_q * m, orth[w]
        for a, e in ((ell - 1, z), (-1, orth[(0,) * len(w)] - z)):
            if not e:
                continue
            terms = [comb(e, j) * a ** j for j in range(trunc // d + 1)]
            for r in range(trunc, d - 1, -1):
                series[r] += sum(terms[j] * series[r - j * d]
                                 for j in range(1, r // d + 1))
    return series


# ---------------------------------------------------------------------------
# The exact law and constrained counts, read vector by vector.

def expand_lines(lines, ell):
    """Counts keyed by line representative, spread over every class sum:
    each nonzero multiple t*v of a representative v gets v's count, and the
    zero vector keeps its own."""
    out = {}
    for v, a in lines.items():
        for t in range(1, ell) if any(v) else (1,):
            out[tuple(t * c % ell for c in v)] = a
    return out


def law_by_vector(counts, ell, q, Q):
    """(histogram, splits, size) of every cover, counts[v] the branch tuples
    of class sum v at the q affine points: at twist class e the affine point
    i splits when v_i + e = 0 mod ell and infinity when e = 0; each class
    holds (Q-1)/ell twisting units."""
    per_class = (Q - 1) // ell
    hist, splits, tuples = {}, {}, 0
    for v, a in counts.items():
        tuples += a
        for e in range(ell):
            hits = [i for i, c in enumerate(v) if (c + e) % ell == 0]
            if e == 0:
                hits.append(q)
            hist[ell * len(hits)] = hist.get(ell * len(hits), 0) + a * per_class
            for i in hits:
                splits[i] = splits.get(i, 0) + a * per_class
    return hist, splits, tuples * (Q - 1)


def constrained_by_vector(counts, ell, n_q, e_b, targets):
    """Branch tuples whose class n_q*(e_b + v_i) at point i is targets[i],
    summed over every class sum v."""
    return sum(a for v, a in counts.items()
               if all(n_q * (e_b + c) % ell == t for c, t in zip(v, targets)))


# ---------------------------------------------------------------------------
# The step budget, counted term by term.

def suffix_steps(reg, D):
    """Steps of the stratum's suffix table in units of n_q, M = D // n_q:
    m // c + 1 for each degree class c (prime degree n_q * c) and each
    m <= M."""
    M = D // reg.n_q
    return sum(m // c + 1 for c in range(1, M + 1) for m in range(M + 1))


def line_count(ell, k):
    """Line representatives of (Z/ell)^k: the zero vector, then those whose
    first nonzero coordinate, a 1, sits at i."""
    return 1 + sum(ell ** (k - 1 - i) for i in range(k))


def kernel_steps(reg, k, m_max):
    """Steps of the base-prime kernel over k points to degree n_q*m_max,
    m_max >= 1: with h = min(k - 1, m_max), the transfer classes every value
    vector of degree n <= h and pushes all but the last degree's, and each
    line pays ell**2 for each coordinate of each projected degree 1..h; for
    each degree n, each line pays ell**2 for each product Lambda_i M_j with
    0 < j < k, and ell for each pair i < n of the peel."""
    ell, Q = reg.ell, reg.ext.order
    h = min(k - 1, m_max)
    transfer = sum(2 * Q ** min(n, k) for n in range(h + 1)) - Q ** min(h, k)
    products = sum(1 for n in range(1, m_max + 1) for j in range(1, min(n, k)))
    pairs = sum(1 for n in range(1, m_max + 1) for i in range(1, n))
    return transfer + line_count(ell, k) * (ell ** 2 * (h * k + products) + ell * pairs)


def class_sum_steps(reg, k, D):
    """Steps of the class-sum count over k points at degree D, with nothing
    cached: the stratum's suffix table, the kernel, and on each line one
    look-up per prime degree, one Euler series and ell**2 for each
    coordinate of the inversion."""
    ell = reg.ell
    m_max = D // reg.n_q
    return suffix_steps(reg, D) + kernel_steps(reg, k, m_max) + line_count(ell, k) * (
        m_max + series_steps(reg, D) + k * ell ** 2)


def series_steps(reg, D):
    """Steps of one Euler series to u**D, M = D // n_q: the recurrence's
    product c_I * F_(N-I) for each 1 <= I <= N <= M, and its power-sum
    term for each prime degree n_q * m and each multiple I of m up to M."""
    M = D // reg.n_q
    products = sum(1 for N in range(1, M + 1) for I in range(1, N + 1))
    return products + sum(1 for m in range(1, M + 1) for I in range(m, M + 1, m))


# ---------------------------------------------------------------------------
# The split with its earlier retry order: the oracle of the retries on x + a.

def seeded_retry_split(reg, prime, tries=64):
    """The Frobenius orbit over the extension of the base prime `prime` of
    the regime reg, unanchored, found as the package found it before its
    retries on x + a: y = z**((q**n - 1) / ell) mod P for z = x and then
    random z(x) seeded by the prime, up to the first y not in {0, 1}, and
    the first gcd of the embedded prime with y - w**r that is not 1, r the
    least member of each coset of <q> in (Z/ell)*.  Unlike the rest of this
    module it runs on the package's Poly arithmetic, whose kernels the tests
    hold to the ones above."""
    from random import Random

    import ellcover as ec
    from ellcover.fqpoly import _factor_fold, _random_coeffs

    q, ell, ext, n = reg.q, reg.ell, reg.ext, prime.degree
    z, rng = ec.Poly.x(reg.base), Random(_factor_fold(prime))
    for _ in range(tries):
        y = z.pow_mod((q ** n - 1) // ell, prime)
        if y.coeffs not in ((), (1,)):
            break
        z = ec.Poly(reg.base, _random_coeffs(rng, q, n))
    else:
        raise AssertionError("no root of unity other than 1")
    y, embedded = ec.embed(y, ext), ec.embed(prime, ext)
    w = ec.FieldElem(ext, ext.exp[(ext.order - 1) // ell])
    for r in reg.cosets:
        a = embedded.gcd(y - ec.Poly(ext, [w ** r]))
        if a.degree > 0:
            break
    orbit = [a]
    for _ in range(reg.n_q - 1):
        orbit.append(ec.poly_frobenius(orbit[-1], q))
    assert a.degree == n // reg.n_q and len(set(orbit)) == reg.n_q
    assert ec.poly_frobenius(orbit[-1], q) == a and reduce(mul, orbit) == embedded
    return tuple(orbit)
