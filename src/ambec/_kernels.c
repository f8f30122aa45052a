/* The compiled kernels: the nonlinear substep of the split-step propagator,
 * the family II/III consistency conditions and the text rendering of the
 * Wigner lattice.
 *
 * nonlinear_step is the C form of _kernels.numpy_step: classical RK4 of the
 * pointwise flow, one grid point at a time,
 *   i dpsi_a/dt = (g_a|psi_a|^2 + g_am|psi_m|^2) psi_a + c1 psi_m conj(psi_a)
 *   i dpsi_m/dt = (epsilon + g_m|psi_m|^2 + g_am|psi_a|^2) psi_m + c2 psi_a^2
 * with c1 = sqrt(2) alpha and c2 = alpha / sqrt(2) passed in as numpy forms
 * them.  The step h = -i dt is folded into each shift:
 * (h c) z = c dt (Im z, -Re z).  numpy_step is this code written line for
 * line in numpy: each statement of rhs, shift and nonlinear_step has one
 * counterpart there, in the same order, on whole planes of real values.
 * Each real product and sum rounds once in both (this file is compiled
 * with -ffp-contract=off), so the two give the same bits.  Change one only
 * with the other.
 *
 * psi and out hold the stacked (2, n) complex field as interleaved doubles:
 * psi_a[j] at [2j, 2j+1], psi_m[j] at [2n+2j, 2n+2j+1].
 *
 * condition_parts is the C form of consistency._numpy_condition_parts:
 * the raw family II or III conditions and their term-magnitude scales at
 * each point (mu, epsilon), from Gamma and C (_gamma_and_C), the A23 form of
 * B and the A24/A25 quadratics (_b_forms) and their sums (_sum_and_scale).
 * Each product, quotient and sum is one numpy operation there, in the same
 * order and with the same association, and the scalar factors are formed
 * first, as Python forms them, so the two give the same bits, inf and NaN
 * included.  Change one only with the other.
 *
 * lattice_row writes each W value as "%.15g".  A zero is written directly
 * as "0" or "-0".  g15_fast writes any other finite W in integer
 * arithmetic: |W| = m 2^q from its bits, the decimal exponent from q and
 * the leading bits of m, and the 15 digits from the 192-bit product of m
 * with a 128-bit power of ten, truncated, from the table that _kernels.py
 * builds from Python's exact integers.  The product's fraction is below
 * the exact one by less than 2^-64 + 2^-73, so the rounding is certain
 * unless that fraction lies within 2 units of 2^-64 of one half.  Those
 * values (the exact ties among them), digits that round up to 1e15, inf
 * and NaN go to snprintf under a C locale: none of the 2 x 262,144 values
 * of the README lattices, and 0.02% of finite random bit patterns (exact
 * ties, such as 501418875679361.5).  The 64x64-bit products are formed
 * from 32-bit halves, so the file is ISO C99 and every platform with cc
 * runs the same path.
 */
#define _POSIX_C_SOURCE 200809L /* newlocale, uselocale */
#include <fenv.h>
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

typedef struct {
    double g_a, g_m, g_am, c1, c2, epsilon;
} couplings;

/* f = H(p) for one point, p = (Re psi_a, Im psi_a, Re psi_m, Im psi_m). */
static inline void rhs(const double p[4], const couplings *k, double f[4])
{
    double na = p[0] * p[0] + p[1] * p[1];
    double nm = p[2] * p[2] + p[3] * p[3];
    double sa = k->g_a * na + k->g_am * nm;
    double sm = (k->epsilon + k->g_m * nm) + k->g_am * na;
    double ur = k->c1 * p[2], ui = k->c1 * p[3];   /* c1 psi_m */
    double vr = k->c2 * p[0], vi = k->c2 * p[1];   /* c2 psi_a */
    f[0] = sa * p[0] + (ur * p[0] + ui * p[1]);
    f[1] = sa * p[1] + (ui * p[0] - ur * p[1]);
    f[2] = sm * p[2] + (vr * p[0] - vi * p[1]);
    f[3] = sm * p[3] + (vr * p[1] + vi * p[0]);
}

/* y = p + (-i c) f, per complex component: p + c (Im f, -Re f). */
static inline void shift(const double p[4], double c, const double f[4],
                         double y[4])
{
    y[0] = p[0] + c * f[1];
    y[1] = p[1] - c * f[0];
    y[2] = p[2] + c * f[3];
    y[3] = p[3] - c * f[2];
}

void nonlinear_step(const double *psi, double *out, long n, double dt,
                    double g_a, double g_m, double g_am, double c1,
                    double c2, double epsilon)
{
    const couplings k = {g_a, g_m, g_am, c1, c2, epsilon};
    const double half = 0.5 * dt, sixth = dt / 6.0;
    const double *pm = psi + 2 * n;
    double *om = out + 2 * n;
    for (long j = 0; j < n; j++) {
        double p[4] = {psi[2 * j], psi[2 * j + 1], pm[2 * j], pm[2 * j + 1]};
        double acc[4], f[4], y[4];
        rhs(p, &k, acc);
        shift(p, half, acc, y);
        rhs(y, &k, f);
        for (int i = 0; i < 4; i++)
            acc[i] += 2.0 * f[i];
        shift(p, half, f, y);
        rhs(y, &k, f);
        for (int i = 0; i < 4; i++)
            acc[i] += 2.0 * f[i];
        shift(p, dt, f, y);
        rhs(y, &k, f);
        for (int i = 0; i < 4; i++)
            acc[i] += f[i];
        shift(p, sixth, acc, y);
        out[2 * j] = y[0];
        out[2 * j + 1] = y[1];
        om[2 * j] = y[2];
        om[2 * j + 1] = y[3];
    }
}

/* sqrt(2) to the last bit: core.SQRT2 */
#define SQRT2 1.4142135623730951

/* _sum_and_scale of three terms: their sum and the sum of their magnitudes,
 * each left to right */
static inline void sum_and_scale(double t0, double t1, double t2, double *s,
                                 double *m)
{
    *s = t0 + t1 + t2;
    *m = fabs(t0) + fabs(t1) + fabs(t2);
}

/* x, read back through a volatile, so that the compiler cannot relate it to
 * the g it negates: GCC at -O2 otherwise computes g e as -(x e), which
 * flips the sign of a NaN that numpy's g e keeps */
static double opaque(double x)
{
    volatile double v = x;
    return v;
}

/* f1, f2, s1 and s2 of family III (family II when !family_III) at the n
 * points (mu_j, eps_j) that buf holds as the planes buf[0..n) and
 * buf[n..2n), written into the four planes that follow them.  Like numpy
 * under errstate(ignore), a singular point gives inf or NaN and nothing
 * traps; the floating-point status flags are restored on return, so the
 * flags this raised do not reach the caller's next numpy operation.
 */
void condition_parts(int family_III, double *buf, long n, double g_a,
                     double g_m, double g_am, double al)
{
    fexcept_t flags;
    fegetexceptflag(&flags, FE_ALL_EXCEPT);
    const double *mu = buf, *eps = buf + n;
    double *f1 = buf + 2 * n, *f2 = buf + 3 * n;
    double *s1 = buf + 4 * n, *s2 = buf + 5 * n;
    if (!family_III) {
        const double t1c = 2.0 * g_am, t2c = -3.0 * g_a, t3 = 3.0 * al * al;
        const double a1 = SQRT2 * g_m * al, aa = al * al, c1 = -SQRT2 * al;
        const double a2 = g_am * al, aa4 = 4.0 * al * al, ga3 = 3.0 * g_a;
        for (long j = 0; j < n; j++) {
            const double m = mu[j], e = eps[j];
            const double G = SQRT2 * (e + 6.0 * m) * al / (t1c * e + t2c * e
                                                           + t3);
            sum_and_scale(a1 * G * G, (aa - g_a * e) * G,
                          c1 * (6.0 * m - e), f1 + j, s1 + j);
            sum_and_scale(a2 * G * G, SQRT2 * (aa4 - ga3 * e) * G,
                          -24.0 * m * al, f2 + j, s2 + j);
        }
    } else {
        const double t1c = 2.0 * g_am, t2c = opaque(-g_a), t3 = al * al;
        const double aa = al * al, k4 = 4.0 * SQRT2, k3 = 3.0 * SQRT2;
        const double gm2 = 2.0 * g_m, gal = g_am * al;
        const double gal2 = 2.0 * g_am * al, sga = SQRT2 * g_a;
        for (long j = 0; j < n; j++) {
            const double m = mu[j], e = eps[j];
            const double den = t1c * e + t2c * e + t3;
            const double G = SQRT2 * (e - 2.0 * m) * al / den;
            const double C = SQRT2 * e * al / den;
            const double two = 2.0 * m - e;
            const double B = (k3 * m * al + (g_a * e - aa) * C)
                             / ((aa - g_a * e) * G - k4 * m * al);
            /* A24 */
            const double a24 = g_m * G * G - two;
            const double b24 = gm2 * G * C - 5.0 * m + 2.0 * e;
            const double c24 = g_m * C * C - (3.0 * m - e);
            /* A25 */
            const double a25 = gal * G * G + 8.0 * m * al + sga * e * G;
            const double b25 = gal2 * G * C + sga * e * (G + C)
                               + 8.0 * m * al;
            const double c25 = gal * C * C + sga * e * C;
            sum_and_scale(B * B * a24, B * b24, c24, f1 + j, s1 + j);
            sum_and_scale(B * B * a25, B * b25, c25, f2 + j, s2 + j);
        }
    }
    fesetexceptflag(&flags, FE_ALL_EXCEPT);
}

/* "00" .. "99" */
static const char DIGIT_PAIRS[] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* 10^k as T 2^e2, with T = hi 2^64 + lo the floor of 10^k 2^-e2 in
 * [2^127, 2^128) */
typedef struct {
    uint64_t hi, lo;
    int64_t e2;
} pow10_entry;

/* 10^k for pow10_min <= k <= pow10_max, at pow10_table[k - pow10_min]:
 * built by _kernels.py from Python's exact integers and handed over by
 * set_pow10 before the first lattice render.  Without it g15_fast writes
 * nothing and snprintf renders every nonzero value. */
static const pow10_entry *pow10_table;
static long pow10_min, pow10_max;

void set_pow10(const pow10_entry *table, long kmin, long kmax)
{
    pow10_table = table;
    pow10_min = kmin;
    pow10_max = kmax;
}

/* a b = *hi 2^64 + *lo, from the four products of their 32-bit halves */
static inline void mul_64x64(uint64_t a, uint64_t b, uint64_t *hi,
                             uint64_t *lo)
{
    const uint64_t h = 0xffffffffu;
    const uint64_t a0 = a & h, a1 = a >> 32, b0 = b & h, b1 = b >> 32;
    const uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    const uint64_t mid = (p00 >> 32) + (p01 & h) + (p10 & h);
    *lo = mid << 32 | (p00 & h);
    *hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
}

/* s = m 2^q 10^k for m in [2^63, 2^64), cut to 64 bits below the point:
 * returns its integer part and puts those fraction bits in *f, or returns
 * UINT64_MAX when k is not in the table.  For the k that g15_fast asks
 * for, s is in [1e14, 1e16), so the point lies 9 to 17 bits up the top
 * word of the 192-bit m T. */
static uint64_t scaled(uint64_t m, int q, int k, uint64_t *f)
{
    *f = 0;
    if (k < pow10_min || k > pow10_max)
        return UINT64_MAX;
    const pow10_entry *p = pow10_table + (k - pow10_min);
    uint64_t h1, l1, h0, l0;
    mul_64x64(m, p->hi, &h1, &l1);
    mul_64x64(m, p->lo, &h0, &l0);
    /* m T = w2 2^128 + w1 2^64 + l0; the point is t bits up in w2 */
    const uint64_t w1 = l1 + h0, w2 = h1 + (w1 < l1);
    const long t = -(q + (long)p->e2) - 128;
    /* 9 to 17 with the table that _kernels.py builds; with any other, a
     * shift by 64 bits or more would be undefined */
    if (t < 1 || t > 63)
        return UINT64_MAX;
    *f = w2 << (64 - t) | w1 >> t;
    return w2 >> t;
}

/* The text "%.15g\n" of a finite, nonzero v, written at out without
 * snprintf; returns its length, at most 23, or 0 when the digits are not
 * certain.
 *
 * v's bits give |v| = m 2^q with m in [2^63, 2^64).  With e =
 * floor(log10|v|), s = |v| 10^(14-e) lies in [1e14, 1e15) and the 15
 * digits are s rounded to an integer.  scaled forms s from the table's
 * T <= 10^(14-e) 2^-e2 < T + 1: m T 2^(q+e2) is below s by less than
 * m 2^(q+e2) < 2^-73, and cutting it to the 64 fraction bits f loses less
 * than 2^-64 more.  So s - r, for r its integer part, lies in [f 2^-64,
 * (f + 1 + 2^-9) 2^-64), and s rounds to r when f < 2^63 - 1 and to r + 1
 * when f > 2^63.  Every f within 2 of 2^63 (that covers the exact ties at
 * the 15th digit) returns 0, as do digits that round up to 1e15, for
 * snprintf to decide.
 */
static int g15_fast(double v, char *out)
{
    const uint64_t P14 = 100000000000000u, P15 = 1000000000000000u;
    const uint64_t HALF = (uint64_t)1 << 63;
    if (pow10_table == NULL)
        return 0;
    uint64_t m;
    memcpy(&m, &v, sizeof m);
    const int be = (int)(m >> 52 & 0x7ff);
    m &= ((uint64_t)1 << 52) - 1;
    int q = -1074;
    if (be) { /* normal: the implicit bit, then shifted to bit 63 */
        m = (m | (uint64_t)1 << 52) << 11;
        q = be - 1086;
    } else {  /* subnormal */
        for (; !(m >> 63); q--)
            m <<= 1;
    }
    /* log2|v| = q + 63 + log2(m 2^-63) is at least L 2^-16, for L the
     * chord q + 63 + (m 2^-63 - 1) to 16 bits: below it by less than 0.09.
     * 1292913986 and 1292913987 bracket log10(2) 2^32, so e, L log10(2)
     * 2^-16 rounded down, is floor(log10|v|) or one less. */
    const int64_t L = (int64_t)(q + 63) * 65536 + (int64_t)(m >> 47) - 65536;
    int e = L >= 0 ? (int)(L * 1292913986 >> 48)
                   : -(int)((-L * 1292913987 + ((int64_t)1 << 48) - 1)
                            >> 48);
    uint64_t f, r = scaled(m, q, 14 - e, &f);
    if (r >= P15) { /* e was one low: s is in [1e15, 1e16) */
        e++;
        r = scaled(m, q, 14 - e, &f);
    }
    if (f - (HALF - 2) <= 4)
        return 0;
    r += f > HALF;
    if (r < P14 || r >= P15)
        return 0;

    /* the 15 digits, two at a time from each 7- and 8-digit half */
    char d[16];
    unsigned hi = (unsigned)(r / 100000000u), lo = (unsigned)(r % 100000000u);
    for (int i = 13; i > 6; i -= 2, lo /= 100)
        memcpy(d + i, DIGIT_PAIRS + 2 * (lo % 100), 2);
    for (int i = 5; i > 0; i -= 2, hi /= 100)
        memcpy(d + i, DIGIT_PAIRS + 2 * (hi % 100), 2);
    d[0] = (char)('0' + hi);
    int nd = 15;
    while (d[nd - 1] == '0')
        nd--;

    /* %g's layout: fixed for -4 <= e < 15, else d.ddde+XX */
    char *p = out;
    if (v < 0)
        *p++ = '-';
    if (e < -4 || e >= 15) {
        *p++ = d[0];
        if (nd > 1) {
            *p++ = '.';
            memcpy(p, d + 1, nd - 1);
            p += nd - 1;
        }
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        const int x = e < 0 ? -e : e;
        if (x >= 100)
            *p++ = (char)('0' + x / 100);
        *p++ = (char)('0' + x / 10 % 10);
        *p++ = (char)('0' + x % 10);
    } else if (e < 0) {
        memcpy(p, "0.0000", 1 - e);
        p += 1 - e;
        memcpy(p, d, nd);
        p += nd;
    } else if (nd <= e + 1) {
        memcpy(p, d, nd);
        memset(p + nd, '0', e + 1 - nd);
        p += e + 1;
    } else {
        memcpy(p, d, e + 1);
        p += e + 1;
        *p++ = '.';
        memcpy(p, d + e + 1, nd - e - 1);
        p += nd - e - 1;
    }
    *p++ = '\n';
    return (int)(p - out);
}

/* One lattice row "<x><p_j piece><W_j>\n" for j < np, written into buf;
 * returns the bytes written, or -1 when they do not fit in cap bytes or the
 * C locale cannot be made.
 *
 * x is the xl-byte text of the row's x value, the p_j piece ",<p_j>," is
 * ptext[poff[j]] .. ptext[poff[j+1] - 1], and W holds the row's np values.
 * W_j is the text of Python's "%.15g" % W_j.  A zero is written directly,
 * "0" or "-0" by its sign bit, and g15_fast writes any other finite value
 * when it is sure of the digits, which needs the table set_pow10 hands
 * over; every other value (inf, NaN, a tie or near-tie at the 15th digit,
 * any value before set_pow10) goes to snprintf("%.15g") under a C locale,
 * made at the row's first such value, so the bytes never depend on
 * LC_NUMERIC, and any NaN is "nan" (printf writes "-nan" for a NaN with
 * its sign bit set).  Either way a text must leave one byte free in buf,
 * as snprintf's terminating NUL does.
 */
long lattice_row(const char *x, long xl, const char *ptext, const long *poff,
                 const double *W, long np, char *buf, long cap)
{
    locale_t c = (locale_t)0, old = (locale_t)0;
    long len = 0;
    for (long j = 0; j < np; j++) {
        const long pl = poff[j + 1] - poff[j];
        if (cap - len <= xl + pl) {
            len = -1;
            break;
        }
        memcpy(buf + len, x, xl);
        memcpy(buf + len + xl, ptext + poff[j], pl);
        len += xl + pl;
        const size_t room = cap - len;
        const double w = W[j];
        /* the texts written here are at most 23 bytes: room > 23 leaves one */
        int k = 0;
        if (room > 23 && w == 0.0) {
            k = signbit(w) ? 3 : 2;
            memcpy(buf + len, signbit(w) ? "-0\n" : "0\n", k);
        } else if (room > 23 && isfinite(w)) {
            k = g15_fast(w, buf + len);
        }
        if (k == 0) {
            if (c == (locale_t)0) {
                c = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
                if (c == (locale_t)0) {
                    len = -1;
                    break;
                }
                old = uselocale(c);
            }
            k = isnan(w) ? snprintf(buf + len, room, "nan\n")
                         : snprintf(buf + len, room, "%.15g\n", w);
            if (k < 0 || (size_t)k >= room) {
                len = -1;
                break;
            }
        }
        len += k;
    }
    if (c != (locale_t)0) {
        uselocale(old);
        freelocale(c);
    }
    return len;
}
