/* Exact LLL over GMP: lattice._python_reduce, run on mpz_t.
 *
 * knapcrack_lll is the same Cohen integral LLL (Alg. 2.6.7) as the Python
 * loop, step for step: the same k_max first visits, the same zero-prefix skip
 * of the inner products (gso_row), the same nearest integer ceil(q - 1/2), the
 * same Lovasz test against alpha = p/q and the same exchange update of rows
 * k+1..k_max.  Both loops compute one function of their input, bit for bit,
 * and raise at the same column.  The Python loop runs on plain integer
 * columns; here each column is packed into one mpz_t (Packing, below), so a
 * size reduction is one mpz_sub, mpz_add or mpz_submul, an exchange one
 * mpz_swap, and slots are decoded only at first visits, at the input column's
 * nonzero coordinates, and once at exit.  The packing is this file's own
 * format, so the tests that hold this loop to the Python one check it against
 * plain integer arithmetic.
 *
 * Packing.  Each column is one integer (Kronecker substitution): with slot
 * width w, column b is packed as P = sum_r b[r] 2^(w r), entry r in slot r in
 * signed form.  Packing is Z-linear, so both size-reduction updates are one
 * big-integer operation, P_k -= gamma P_j, and an exchange swaps two
 * integers.  Slots may overflow into each other while a column is not
 * size-reduced; the integer still equals the packing of the true column.
 * Only decoding needs the entries to fit: adding offset (half of 2^w in every
 * slot) makes every slot hold b[r] + 2^(w-1) in [0, 2^w) with no borrow, and
 * a shift and mask read it.
 *
 * The width comes from a proof, not from tracking.  Let B be the largest
 * squared norm of the n input columns.  Every ||b*_j||^2 is at most B: a
 * Gram-Schmidt vector is a projection of its column, which is an input column
 * until it is first visited, and an exchange at k makes b*_{k-1} shorter than
 * the old b*_{k-1} (the Lovasz test failed) and the new b*_k a projection of
 * the old b*_{k-1}.  A size-reduced column b_i = b*_i + sum_{j<i} mu_{i,j}
 * b*_j with |mu_{i,j}| <= 1/2 then has ||b_i||^2 <= (1 + (n-1)/4) B.  Let L
 * be the bit length of (1 + n) B and h = L/2 rounded down.  For even L,
 * (1 + (n-1)/4) B < (1 + n) B < 2^L = 2^(2h); for odd L, B < 2^L / (1 + n)
 * and (n + 3) / (n + 1) <= 2 give (1 + (n-1)/4) B < 2^(L-1) = 2^(2h).  So
 * every entry of a size-reduced column is below 2^h in absolute value, and
 * the slot width w = h + 3 (set_width) leaves the sign bit and two spare
 * bits.  Width w - 2 would be sound too.  Width w - 3 is not: its slots hold
 * only entries in [-2^(h-1), 2^(h-1)), and reduced entries of bit length h
 * occur (the slot-width tests in tests/test_lattice.py reach them).  Columns
 * are decoded only while size-reduced: at exit, and at the first visit of
 * column k, when columns 0..k-1 are (LLL's invariant: at index k the columns
 * before k are size-reduced, since a column changes only while the index is at
 * it, by reduction, or by an exchange that moves the index back to it).  The
 * premise d[j+1] <= B d[j] is checked on the output, and a failure returns
 * LLL_PREMISE instead of the output; the Python loop checks it too, so
 * both raise the same AssertionError.  A first visit needs the input column's
 * inner products with the current columns 0..k-1; they are read from the
 * packed columns only at the input column's nonzero coordinates, m + 1 of them
 * for an [I; N A] basis, as decoding the whole prefix on every first visit
 * costs most of what packing saves.
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
 * Termination.  The loop checks the two steps of LLL's termination proof, as
 * the Python loop does (lattice.py's docstring has the proof): each exchange
 * lowers d[k] and leaves it positive, and there are at most q log2(P0) /
 * (q - p) exchanges, with log2(P0) <= sum_i (n - i) bitlen(||b_i||^2) over
 * the input columns.  set_width takes the norms it already computes for B.
 * When either fails the loop returns LLL_BUDGET, and the wrapper raises the
 * Python loop's AssertionError.  So a wrong d or lam ends in an error instead
 * of an endless loop, at the latest once the budget runs out.  A budget
 * beyond ULONG_MAX is never reached and is held as ULONG_MAX.
 *
 * Output.  At exit d and lam are exact for the reduced columns, and the
 * caller names a prefix k: the reduced columns leave followed by d[1..k] and
 * lam rows 1..k-1 (row i has entries 0..i-1), the Gram-Schmidt of the first
 * k columns; d[0] = 1 and the empty row 0 are not sent, so with k = 0 only
 * the columns leave.  lattice.py builds this file on first use, and the tests
 * hold this loop to the Python one.
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

enum { LLL_OK = 0, LLL_DEPENDENT = 1, LLL_PREMISE = 2, LLL_NO_MEMORY = 3, LLL_BUDGET = 4 };

/* The reduction state.  input holds the n input columns' dim entries, column
 * by column, and at exit the reduced columns; packed[i] is column i packed as
 * sum_r b[r] 2^(w r).  lam[i] points at row i of lam (entries 0..i-1 in use),
 * d at d[0..n]; swapping two rows swaps pointers.  exchanges counts the
 * exchanges against budget (header: Termination). */
typedef struct {
    int n, dim;
    mp_bitcnt_t w;
    unsigned long exchanges, budget;
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
 * and d[k+1] (lattice._visit), and its packing into packed[k].  The inner
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
 * d[k+1] d[k-1] + lam[k][k-1]^2.  Returns 0, changing nothing, when the new
 * d[k], num / d[k], is not in [1, d[k]) (header: Termination). */
static int exchange(state *s, int k, int kmax)
{
    mpz_ptr *lam = s->lam, d = s->d, swap, lkk, li;
    int i;

    mpz_divexact(s->dnew, s->num, d + k);
    if (mpz_sgn(s->dnew) <= 0 || mpz_cmp(s->dnew, d + k) >= 0)
        return 0;
    mpz_swap(s->packed + k - 1, s->packed + k);
    /* Rows k-1 and k trade their entries for columns 0..k-2; lam[k][k-1]
     * stays. */
    swap = lam[k - 1], lam[k - 1] = lam[k], lam[k] = swap;
    mpz_swap(lam[k] + k - 1, lam[k - 1] + k - 1);
    lkk = lam[k] + k - 1;
    for (i = k + 1; i <= kmax; i++) {
        li = lam[i];
        mpz_swap(s->t, li + k);
        cross_quotient(li + k, d + k + 1, li + k - 1, -1, lkk, s->t, d + k, s->t1);
        cross_quotient(li + k - 1, s->dnew, s->t, 1, lkk, li + k, d + k + 1, s->t1);
    }
    mpz_swap(d + k, s->dnew);
    return 1;
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
 * *where = k when column k depends on the columns before it, and LLL_BUDGET
 * at an exchange past the budget or one that does not lower d[k]. */
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
            if (++s->exchanges > s->budget || !exchange(s, k, kmax))
                return LLL_BUDGET;
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
 * w = bitlen((1 + n) B) // 2 + 3 (header: Packing); half = 2^(w-1) and
 * offset, half of 2^w in every one of the dim slots; and from the same norms
 * the exchange budget q sum_i (n - i) bitlen(||b_i||^2) / (q - p) (header:
 * Termination), or ULONG_MAX where it is larger. */
static void set_width(state *s)
{
    mpz_ptr col;
    int i, r;

    mpz_set_ui(s->t2, 0);
    for (i = 0; i < s->n; i++) {
        col = s->input + (size_t)i * s->dim;
        mpz_set_ui(s->t, 0);
        for (r = 0; r < s->dim; r++)
            mpz_addmul(s->t, col + r, col + r);
        if (mpz_cmp(s->t, s->bound) > 0)
            mpz_set(s->bound, s->t);
        mpz_set_ui(s->t1, mpz_sgn(s->t) ? mpz_sizeinbase(s->t, 2) : 0);
        mpz_addmul_ui(s->t2, s->t1, (unsigned long)(s->n - i));
    }
    mpz_mul(s->t2, s->t2, s->q);
    mpz_sub(s->t1, s->q, s->p);
    mpz_fdiv_q(s->t2, s->t2, s->t1);
    s->budget = mpz_fits_ulong_p(s->t2) ? mpz_get_ui(s->t2) : ULONG_MAX;
    s->exchanges = 0;
    mpz_mul_ui(s->t, s->bound, (unsigned long)s->n + 1);
    s->w = (mpz_sgn(s->t) ? mpz_sizeinbase(s->t, 2) : 0) / 2 + 3;
    mpz_setbit(s->half, s->w - 1);
    for (r = 0; r < s->dim; r++)
        mpz_setbit(s->offset, s->w * r + s->w - 1);
}

/* z in base 16 at text + pos, after a comma unless pos = 0; returns the end.
 * With text NULL, returns pos plus room enough for it. */
static size_t put(char *text, size_t pos, mpz_srcptr z)
{
    if (!text)
        return pos + mpz_sizeinbase(z, 16) + 2;
    if (pos)
        text[pos++] = ',';
    mpz_get_str(text + pos, 16, z);
    return pos + strlen(text + pos);
}

/* The output (header: Output) at text, for the prefix k; returns its length,
 * or with text NULL an upper bound of it. */
static size_t put_output(state *s, int k, char *text)
{
    size_t pos = 0, e;
    int i, j;

    for (e = 0; e < (size_t)s->n * s->dim; e++)
        pos = put(text, pos, s->input + e);
    for (i = 1; i <= k; i++)
        pos = put(text, pos, s->d + i);
    for (i = 1; i < k; i++)
        for (j = 0; j < i; j++)
            pos = put(text, pos, s->lam[i] + j);
    return pos;
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
 * (hex() literals, any size).  On LLL_OK, *out is the text of the reduced
 * columns and the Gram-Schmidt of the first prefix of them, 0 <= prefix <= n
 * (header: Output), to be released with knapcrack_free.  LLL_DEPENDENT:
 * column *where depends on the columns before it.  LLL_PREMISE: d[j+1] >
 * B d[j] at j = *where, where B is the largest squared norm of an input
 * column.  LLL_BUDGET: an exchange did not lower d[k], or passed the
 * exchange budget (header: Termination). */
int knapcrack_lll(int n, int dim, const char *entries, const char *p, const char *q,
                  int prefix, char **out, int *where)
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
        if ((*out = malloc(put_output(&s, prefix, NULL) + 1)))
            (*out)[put_output(&s, prefix, *out)] = '\0';
        else
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

void knapcrack_free(char *text)
{
    free(text);
}
