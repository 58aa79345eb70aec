/* Exact LLL and integral Gram-Schmidt over GMP: lattice._python_reduce and
 * lattice._python_gso, run on mpz_t.
 *
 * knapcrack_lll is the same Cohen integral LLL (Alg. 2.6.7) as the Python
 * loop, step for step: the same k_max first visits, the same zero-prefix skip
 * of the inner products (gso_row), the same nearest integer ceil(q - 1/2), the
 * same Lovasz test against alpha = p/q and the same exchange update of rows
 * k+1..k_max.  Both loops compute one function of their input, bit for bit,
 * and raise at the same column.  Each column is packed into one mpz_t as in
 * the Python loop, with the same slot width w and offset (the width proof is
 * in lattice.py's docstring): a size reduction is one mpz_sub, mpz_add or
 * mpz_submul, an exchange one mpz_swap, and slots are decoded only at first
 * visits, at the input column's nonzero coordinates, and once at exit.
 *
 * Division.  The Python loop divides with `//`, which floors.  round_nearest's
 * quotient is not exact, and it is mpz_fdiv_q here, the one floor division
 * left.  The four other quotients are exact, and they are mpz_divexact: the new
 * d[k] of an exchange, num / d[k], is the Gram determinant of the exchanged
 * columns 0..k-1; its two row updates return lam[i][k] and lam[i][k-1] of the
 * exchanged basis, lam = mu d[j+1] being a minor of the integral Gram matrix;
 * and after step i of gso_row's recurrence u is d[i+1] times the inner product
 * of two columns projected orthogonally to columns 0..i, the Gram determinant
 * of columns 0..i bordered by the two, so an integer.  On an exact quotient a
 * floor and an exact division agree.
 *
 * Machine words.  The entries of d and lam are mostly one limb, so GMP's cost
 * there is its calls, not its arithmetic.  word() reads an mpz_t as a long
 * when |z| <= LONG_MAX, and four steps compute in words when their operands
 * are ones: the Lovasz test (lovasz_fails), the size reduction's test,
 * rounding and updates (size_reduce, sub_multiple), and the quotients of the
 * exchange and of gso_row (cross_quotient).  Each does its arithmetic in
 * __int128, where a product of two longs and a sum of two such products are
 * exact, or in long under __builtin_*_overflow, and writes a result with
 * mpz_set_si only when it fits in a long; otherwise the step runs in GMP for
 * that value.  Storage stays mpz_t, and every value and decision is the one
 * GMP would compute.  The build needs __int128 (GCC or Clang on a 64-bit
 * target) and stops with #error without it, so the Python loop runs.
 *
 * knapcrack_gso is integral_gso: (d, lam) of the columns it is given, from
 * their Gram entries over each column's nonzero coordinates and the gso_row
 * recurrence, stopping at the first dependent column as the Python code does.
 * lattice.py builds this file on first use and holds both entries to their
 * Python twins in the tests.
 *
 * Marshalling is text: the n * dim entries arrive column by column as
 * comma-separated Python hex() literals ("0x1f", "-0x1f"), and the results
 * leave as comma-separated base-16 digits ("-1f").
 */
#include <gmp.h>
#include <limits.h>
#include <stdlib.h>
#include <string.h>

#ifndef __SIZEOF_INT128__
#error "the word path computes in __int128: build with GCC or Clang for a 64-bit target"
#endif

enum { LLL_OK = 0, LLL_DEPENDENT = 1, LLL_PREMISE = 2, LLL_NO_MEMORY = 3 };

/* The reduction state.  input holds the n input columns' dim entries, column
 * by column, and at exit the reduced columns; packed[i] is column i packed as
 * sum_r b[r] 2^(w r).  lam[i] points at row i of lam (entries 0..i-1 in use),
 * d at d[0..n]; swapping two rows swaps pointers. */
typedef struct {
    int n, dim;
    mp_bitcnt_t w;
    mpz_ptr input, packed;
    mpz_ptr *lam, d;
    int *nz;
    mpz_t p, q, bound, offset, half, gamma, num, dnew, t, t1, t2;
} state;

/* *v = z when |z| <= LONG_MAX; returns whether it is. */
static inline int word(mpz_srcptr z, long *v)
{
    mp_limb_t low = mpz_getlimbn(z, 0);

    if (mpz_size(z) > 1 || low > (mp_limb_t)LONG_MAX)
        return 0;
    *v = mpz_sgn(z) < 0 ? -(long)low : (long)low;
    return 1;
}

/* out = (a b + sign c e) / den with sign +1 or -1, where the quotient is known
 * to be exact (header).  When the five operands are words the numerator is
 * exact in __int128, each product being below 2^126 in absolute value, and the
 * quotient is written as a word where it fits one; otherwise GMP computes it
 * with t, which is none of the others, as scratch. */
static void cross_quotient(mpz_ptr out, mpz_srcptr a, mpz_srcptr b, int sign, mpz_srcptr c,
                           mpz_srcptr e, mpz_srcptr den, mpz_ptr t)
{
    long va, vb, vc, ve, vd;
    __int128 x;

    if (word(a, &va) && word(b, &vb) && word(c, &vc) && word(e, &ve) && word(den, &vd)) {
        x = (__int128)va * vb + sign * ((__int128)vc * ve);
        x /= vd;
        if (x >= LONG_MIN && x <= LONG_MAX) {
            mpz_set_si(out, (long)x);
            return;
        }
    }
    mpz_mul(t, a, b);
    if (sign > 0)
        mpz_addmul(t, c, e);
    else
        mpz_submul(t, c, e);
    mpz_divexact(out, t, den);
}

/* Parse count comma-separated hex() literals of text into store[0..count-1];
 * text is cut up in place. */
static void parse_entries(mpz_ptr store, size_t count, char *text)
{
    size_t e;
    char *end;

    for (e = 0; e < count; e++) {
        end = strchr(text, ',');
        if (end)
            *end = '\0';
        mpz_set_str(store + e, text, 0);
        if (end)
            text = end + 1;
    }
}

/* store[0..count-1] as comma-separated base-16 text, or NULL. */
static char *format_entries(mpz_srcptr store, size_t count)
{
    size_t size = 1, pos = 0, e;
    char *text;

    for (e = 0; e < count; e++)
        size += mpz_sizeinbase(store + e, 16) + 2;
    text = malloc(size);
    if (!text)
        return NULL;
    for (e = 0; e < count; e++) {
        if (pos)
            text[pos++] = ',';
        mpz_get_str(text + pos, 16, store + e);
        pos += strlen(text + pos);
    }
    text[pos] = '\0';
    return text;
}

/* The indices of col's nonzero entries into nz; returns their count. */
static int nonzero(mpz_srcptr col, int dim, int *nz)
{
    int r, count = 0;

    for (r = 0; r < dim; r++)
        if (mpz_sgn(col + r))
            nz[count++] = r;
    return count;
}

/* Column k's GSO row from its inner products (lattice.gso_row): on entry
 * lam[k][j] holds the inner product with column j < k and d[k+1] the squared
 * norm; on return they hold lam = mu d[j+1] and the Gram determinant.  A zero
 * prefix of the inner products telescopes to g[j] * d[z]. */
static void gso_row(mpz_ptr *lam, mpz_ptr d, int k, mpz_ptr t)
{
    mpz_ptr row = lam[k], u;
    mpz_srcptr lj;
    int z, j, i;

    for (z = 0; z < k && !mpz_sgn(row + z); z++)
        ;
    for (j = z; j <= k; j++) {
        u = j < k ? row + j : d + k + 1;
        lj = j < k ? lam[j] : row;
        mpz_mul(u, u, d + z);
        for (i = z; i < j; i++)
            cross_quotient(u, d + i + 1, u, -1, row + i, lj + i, d + i, t);
    }
}

/* gamma = ceil(num/den - 1/2) = -((den - 2 num) // (2 den)), den > 0. */
static void round_nearest(state *s, mpz_srcptr num, mpz_srcptr den)
{
    mpz_mul_2exp(s->t1, num, 1);
    mpz_sub(s->t1, den, s->t1);
    mpz_mul_2exp(s->t2, den, 1);
    mpz_fdiv_q(s->gamma, s->t1, s->t2);
    mpz_neg(s->gamma, s->gamma);
}

/* v[0..len-1] -= gamma * w[0..len-1]: an entry in words where gamma, both
 * entries and the result fit in one, else with mpz_sub (gamma = 1), mpz_add
 * (gamma = -1) or mpz_submul. */
static void sub_multiple(mpz_ptr v, mpz_srcptr w, int len, mpz_srcptr gamma)
{
    long g = 0, a, b, gb, r;
    int i, small = word(gamma, &g);

    for (i = 0; i < len; i++) {
        if (small && word(v + i, &a) && word(w + i, &b) && !__builtin_mul_overflow(g, b, &gb)
            && !__builtin_sub_overflow(a, gb, &r))
            mpz_set_si(v + i, r);
        else if (g == 1)
            mpz_sub(v + i, v + i, w + i);
        else if (g == -1)
            mpz_add(v + i, v + i, w + i);
        else
            mpz_submul(v + i, gamma, w + i);
    }
}

/* out = the signed slot r of a packed column whose packing plus offset is
 * shifted, with shifted >= 0. */
static void slot(state *s, mpz_ptr out, mpz_srcptr shifted, int r)
{
    mpz_fdiv_q_2exp(out, shifted, s->w * r);
    mpz_fdiv_r_2exp(out, out, s->w);
    mpz_sub(out, out, s->half);
}

/* First visit of column k, still input column k: its GSO row into lam[k]
 * and d[k+1], and its packing into packed[k] (lattice._visit).  The inner
 * products read the slots of packed columns 0..k-1, which are size-reduced,
 * only at the input column's nonzero coordinates.  Returns nonzero when
 * column k depends on columns 0..k-1. */
static int visit(state *s, int k)
{
    mpz_ptr ck = s->input + (size_t)k * s->dim, row = s->lam[k], d = s->d;
    int nnz = nonzero(ck, s->dim, s->nz), r, j;

    for (j = 0; j < k; j++) {
        mpz_add(s->t, s->packed + j, s->offset);
        mpz_set_ui(row + j, 0);
        for (r = 0; r < nnz; r++) {
            slot(s, s->t2, s->t, s->nz[r]);
            mpz_addmul(row + j, ck + s->nz[r], s->t2);
        }
    }
    mpz_set_ui(d + k + 1, 0);
    for (r = 0; r < nnz; r++)
        mpz_addmul(d + k + 1, ck + s->nz[r], ck + s->nz[r]);
    gso_row(s->lam, d, k, s->t1);
    if (!mpz_sgn(d + k + 1))
        return 1;
    for (r = 0; r < nnz; r++) {
        mpz_mul_2exp(s->t, ck + s->nz[r], s->w * s->nz[r]);
        mpz_add(s->packed + k, s->packed + k, s->t);
    }
    return 0;
}

/* Size-reduce column k against column j < k, as in _python_reduce: when
 * |2 lam[k][j]| > d[j+1], subtract gamma = round_nearest(lam[k][j], d[j+1])
 * times column j. */
static void size_reduce(state *s, int k, int j)
{
    mpz_ptr lkj = s->lam[k] + j, dj = s->d + j + 1;
    long l, d, g, r;

    if (word(lkj, &l) && word(dj, &d)) {
        if (2 * (__int128)l <= d && -2 * (__int128)l <= d)
            return;
        /* ceil(l/d - 1/2) from C's division, which truncates: the quotient
         * moves one away from zero where the remainder passes half of d,
         * and at a negative half tie (4.5 -> 4, -4.5 -> -5). */
        g = l / d;
        r = l % d;
        if (2 * (__int128)r > d)
            g++;
        else if (2 * (__int128)r <= -(__int128)d)
            g--;
        mpz_set_si(s->gamma, g);
    } else {
        mpz_mul_2exp(s->t1, lkj, 1);
        if (mpz_cmpabs(s->t1, dj) <= 0)
            return;
        round_nearest(s, lkj, dj);
    }
    sub_multiple(s->packed + k, s->packed + j, 1, s->gamma);
    sub_multiple(s->lam[k], s->lam[j], j, s->gamma);
    sub_multiple(lkj, dj, 1, s->gamma);
}

/* Exchange columns k-1 and k, the Lovasz test having failed; s->num holds
 * d[k+1] d[k-1] + lam[k][k-1]^2. */
static void exchange(state *s, int k, int kmax)
{
    mpz_ptr *lam = s->lam, d = s->d, swap, lkk, li;
    int i;

    mpz_swap(s->packed + k - 1, s->packed + k);
    /* Rows k-1 and k trade their entries for columns 0..k-2; lam[k][k-1]
     * stays. */
    swap = lam[k - 1], lam[k - 1] = lam[k], lam[k] = swap;
    mpz_swap(lam[k] + k - 1, lam[k - 1] + k - 1);
    lkk = lam[k] + k - 1;
    mpz_divexact(s->dnew, s->num, d + k);
    for (i = k + 1; i <= kmax; i++) {
        li = lam[i];
        mpz_swap(s->t, li + k);
        cross_quotient(li + k, d + k + 1, li + k - 1, -1, lkk, s->t, d + k, s->t1);
        cross_quotient(li + k - 1, s->dnew, s->t, 1, lkk, li + k, d + k + 1, s->t1);
    }
    mpz_swap(d + k, s->dnew);
}

/* Nonzero when the Lovasz test fails at k > 0, so columns k-1 and k are
 * exchanged: when ||b*_k + mu b*_{k-1}||^2 < alpha ||b*_{k-1}||^2, that is
 * q num < p d[k]^2 with num = d[k+1] d[k-1] + lam[k][k-1]^2, which is left in
 * s->num for the exchange.  Where d[k+1], d[k-1] and lam[k][k-1] are words,
 * num is exact in __int128 (below 2^127, the d being positive), and where p,
 * q and d[k] are words too and neither product overflows, the comparison is
 * too. */
static int lovasz_fails(state *s, int k)
{
    mpz_srcptr d = s->d, lkk = s->lam[k] + k - 1;
    long a, b, l, dk, p, q;
    unsigned __int128 num = 0, lhs, rhs;
    int small = word(d + k + 1, &a) && word(d + k - 1, &b) && word(lkk, &l);

    if (small)
        num = (unsigned __int128)((__int128)a * b + (__int128)l * l);
    if (small && num <= LONG_MAX)
        mpz_set_si(s->num, (long)num);
    else {
        mpz_mul(s->num, d + k + 1, d + k - 1);
        mpz_addmul(s->num, lkk, lkk);
    }
    if (small && word(d + k, &dk) && word(s->p, &p) && word(s->q, &q)
        && !__builtin_mul_overflow(num, (unsigned __int128)q, &lhs)
        && !__builtin_mul_overflow((unsigned __int128)dk * (unsigned long)dk,
                                   (unsigned __int128)p, &rhs))
        return lhs < rhs;
    mpz_mul(s->t1, s->q, s->num);
    mpz_mul(s->t2, d + k, d + k);
    mpz_mul(s->t2, s->t2, s->p);
    return mpz_cmp(s->t1, s->t2) < 0;
}

/* The loop of lattice._python_reduce from k = 0.  Returns LLL_DEPENDENT with
 * *where = k when column k depends on the columns before it. */
static int reduce(state *s, int *where)
{
    int n = s->n, k = 0, kmax = -1, j;

    while (k < n) {
        if (k > kmax) {
            kmax = k;
            if (visit(s, k)) {
                *where = k;
                return LLL_DEPENDENT;
            }
            if (k == 0) {
                k = 1;
                continue;
            }
        }
        size_reduce(s, k, k - 1);
        if (lovasz_fails(s, k)) {
            exchange(s, k, kmax);
            if (k > 1)
                k--;
        } else {
            for (j = k - 2; j >= 0; j--)
                size_reduce(s, k, j);
            k++;
        }
    }
    return LLL_OK;
}

/* B, the largest squared norm of the input columns; the slot width
 * w = bitlen((1 + n) B) // 2 + 3; half = 2^(w-1) and offset, half of 2^w in
 * every one of the dim slots. */
static void set_width(state *s)
{
    mpz_ptr col;
    int i, r;

    for (i = 0; i < s->n; i++) {
        col = s->input + (size_t)i * s->dim;
        mpz_set_ui(s->t, 0);
        for (r = 0; r < s->dim; r++)
            mpz_addmul(s->t, col + r, col + r);
        if (mpz_cmp(s->t, s->bound) > 0)
            mpz_set(s->bound, s->t);
    }
    mpz_mul_ui(s->t, s->bound, (unsigned long)s->n + 1);
    s->w = (mpz_sgn(s->t) ? mpz_sizeinbase(s->t, 2) : 0) / 2 + 3;
    mpz_setbit(s->half, s->w - 1);
    for (r = 0; r < s->dim; r++)
        mpz_setbit(s->offset, s->w * r + s->w - 1);
}

/* Decode every packed column, all size-reduced, into input. */
static void unpack_all(state *s)
{
    mpz_ptr col;
    int i, r;

    for (i = 0; i < s->n; i++) {
        col = s->input + (size_t)i * s->dim;
        mpz_add(s->t, s->packed + i, s->offset);
        for (r = 0; r < s->dim; r++) {
            mpz_fdiv_r_2exp(col + r, s->t, s->w);
            mpz_sub(col + r, col + r, s->half);
            mpz_fdiv_q_2exp(s->t, s->t, s->w);
        }
    }
}

/* LLL-reduce the n columns of dimension dim in `entries` with alpha = p/q
 * (hex() literals, any size).  On LLL_OK, *out is the reduced columns' text,
 * to be released with knapcrack_free.  LLL_DEPENDENT: column *where depends
 * on the columns before it.  LLL_PREMISE: d[j+1] > B d[j] at j = *where,
 * where B is the largest squared norm of an input column. */
int knapcrack_lll(int n, int dim, const char *entries, const char *p, const char *q,
                  char **out, int *where)
{
    size_t total = (size_t)n * dim + n + (size_t)n * n + n + 1, e;
    state s;
    char *text = strdup(entries);
    int i, status = LLL_NO_MEMORY;

    *out = NULL;
    s.n = n;
    s.dim = dim;
    s.input = malloc(total * sizeof(__mpz_struct));
    s.lam = malloc(n * sizeof(mpz_ptr));
    s.nz = malloc(dim * sizeof(int));
    if (!text || !s.input || !s.lam || !s.nz)
        goto release;
    for (e = 0; e < total; e++)
        mpz_init(s.input + e);
    s.packed = s.input + (size_t)n * dim;
    for (i = 0; i < n; i++)
        s.lam[i] = s.packed + n + (size_t)i * n;
    s.d = s.packed + n + (size_t)n * n;
    mpz_set_ui(s.d, 1);
    mpz_inits(s.p, s.q, s.bound, s.offset, s.half, s.gamma, s.num, s.dnew, s.t, s.t1, s.t2,
              NULL);
    mpz_set_str(s.p, p, 0);
    mpz_set_str(s.q, q, 0);
    parse_entries(s.input, (size_t)n * dim, text);
    set_width(&s);

    status = reduce(&s, where);
    for (i = 0; status == LLL_OK && i < n; i++) {
        mpz_mul(s.t1, s.bound, s.d + i);
        if (mpz_cmp(s.d + i + 1, s.t1) > 0) {
            *where = i;
            status = LLL_PREMISE;
        }
    }
    if (status == LLL_OK) {
        unpack_all(&s);
        if (!(*out = format_entries(s.input, (size_t)n * dim)))
            status = LLL_NO_MEMORY;
    }

    mpz_clears(s.p, s.q, s.bound, s.offset, s.half, s.gamma, s.num, s.dnew, s.t, s.t1, s.t2,
               NULL);
    for (e = 0; e < total; e++)
        mpz_clear(s.input + e);
release:
    free(text);
    free(s.input);
    free(s.lam);
    free(s.nz);
    return status;
}

/* The integral GSO (d, lam) of the n columns of dimension dim in `entries`
 * (hex() literals).  On LLL_OK, *out is d[0..n] followed by rows 1..n-1 of
 * lam, entries 0..i-1 of row i, to be released with knapcrack_free.
 * LLL_DEPENDENT: column *where depends on the columns before it. */
int knapcrack_gso(int n, int dim, const char *entries, char **out, int *where)
{
    size_t cells = (size_t)n * dim, total = cells + n + 1 + (size_t)n * (n - 1) / 2, e;
    mpz_ptr store = malloc(total * sizeof(__mpz_struct)), d, ck, g;
    mpz_ptr *lam = malloc((n + 1) * sizeof(mpz_ptr));
    int *nz = malloc((dim + 1) * sizeof(int));
    char *text = strdup(entries);
    int status = LLL_NO_MEMORY, nnz, k, j, r;
    mpz_t t;

    *out = NULL;
    if (!store || !lam || !nz || !text)
        goto release;
    for (e = 0; e < total; e++)
        mpz_init(store + e);
    mpz_init(t);
    parse_entries(store, cells, text);
    d = store + cells;
    mpz_set_ui(d, 1);
    for (k = 0; k < n; k++)
        lam[k] = d + n + 1 + (size_t)k * (k - 1) / 2;

    status = LLL_OK;
    for (k = 0; k < n; k++) {
        ck = store + (size_t)k * dim;
        nnz = nonzero(ck, dim, nz);
        for (j = 0; j <= k; j++) {
            g = j < k ? lam[k] + j : d + k + 1;
            for (r = 0; r < nnz; r++)
                mpz_addmul(g, ck + nz[r], store + (size_t)j * dim + nz[r]);
        }
        gso_row(lam, d, k, t);
        if (!mpz_sgn(d + k + 1)) {
            *where = k;
            status = LLL_DEPENDENT;
            break;
        }
    }
    if (status == LLL_OK && !(*out = format_entries(d, total - cells)))
        status = LLL_NO_MEMORY;

    mpz_clear(t);
    for (e = 0; e < total; e++)
        mpz_clear(store + e);
release:
    free(store);
    free(lam);
    free(nz);
    free(text);
    return status;
}

void knapcrack_free(char *text)
{
    free(text);
}
