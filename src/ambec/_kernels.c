/* The compiled kernels: the nonlinear substep of the split-step propagator
 * and the text rendering of the Wigner lattice.
 *
 * nonlinear_step is the C form of _kernels.numpy_step: classical RK4 of the
 * pointwise flow, one grid point at a time,
 *   i dpsi_a/dt = (g_a|psi_a|^2 + g_am|psi_m|^2) psi_a + c1 psi_m conj(psi_a)
 *   i dpsi_m/dt = (epsilon + g_m|psi_m|^2 + g_am|psi_a|^2) psi_m + c2 psi_a^2
 * with c1 = sqrt(2) alpha and c2 = alpha / sqrt(2) passed in as numpy forms
 * them.  Every sum and product is taken in numpy's order, and the step
 * h = -i dt is folded the same way: (h c) z = c dt (Im z, -Re z).  Compiled
 * with -ffp-contract=off, so only numpy's own fused complex products (on
 * CPUs with FMA) make the two differ, at the rounding level.
 *
 * psi and out hold the stacked (2, n) complex field as interleaved doubles:
 * psi_a[j] at [2j, 2j+1], psi_m[j] at [2n+2j, 2n+2j+1].
 */
#define _POSIX_C_SOURCE 200809L /* newlocale, uselocale */
#include <locale.h>
#include <math.h>
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

/* One lattice row "<x><p_j piece><W_j>\n" for j < np, written into buf;
 * returns the bytes written, or -1 when they do not fit in cap bytes or the
 * C locale cannot be made.
 *
 * x is the xl-byte text of the row's x value, the p_j piece ",<p_j>," is
 * ptext[poff[j]] .. ptext[poff[j+1] - 1], and W holds the row's np values.
 * W_j is written by "%.15g" in the C locale, whatever LC_NUMERIC is, and
 * any NaN as "nan" (printf writes "-nan" for a NaN with its sign bit set):
 * the text of Python's "%.15g" % W_j.
 */
long lattice_row(const char *x, long xl, const char *ptext, const long *poff,
                 const double *W, long np, char *buf, long cap)
{
    locale_t c = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
    if (c == (locale_t)0)
        return -1;
    locale_t old = uselocale(c);
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
        const int k = isnan(W[j]) ? snprintf(buf + len, room, "nan\n")
                                  : snprintf(buf + len, room, "%.15g\n", W[j]);
        if (k < 0 || (size_t)k >= room) {
            len = -1;
            break;
        }
        len += k;
    }
    uselocale(old);
    freelocale(c);
    return len;
}
