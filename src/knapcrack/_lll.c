/* Exact LLL over GMP, the kernel sweep that follows it and the exact integer
 * products around them: lattice._python_reduce, reduction._sweep and
 * intmat._products, run on machine words and mpz_t, as the CPython extension
 * module knapcrack._lll.
 *
 * Its first entry, reduce, is the same Cohen integral LLL (Alg. 2.6.7) as the
 * Python loop, step for step: the same k_max first visits, the same
 * zero-prefix skip of the inner products (gso_row), the same nearest integer
 * ceil(q - 1/2), the same Lovasz test against alpha = p/q and the same
 * exchange update of rows k+1..k_max.  Both loops compute one function of their
 * input, bit for bit, and raise at the same column.  Both run on plain integer
 * columns; here a column's entries are C longs while they fit in one
 * (Columns, below).  Its second entry, sweep, is reduction._sweep (Sweep,
 * below), and its third, products, is intmat._products (Products, below).
 *
 * Columns.  A column is held as the sweep and products hold a vector (ints):
 * its dim entries as C longs, or, where one of them is not a long, all of them
 * as mpz_t, the column being wide.  A size reduction, column k -= gamma column
 * j, is one loop over the entries in long under __builtin_*_overflow
 * (sub_column).  At the first entry where a product or a difference overflows,
 * the column is widened, with the entries before it updated and the rest not,
 * and GMP carries the update on from that entry; after an update in GMP, the
 * column goes back to words where every entry fits in a long again.  An
 * exchange swaps the two columns' pointers.  A first visit reads the input
 * column's inner products with columns 0..k-1 (dot) only at its nonzero
 * coordinates, m + 1 of them for an [I; N A] basis, in __int128 where both
 * columns are words.  The input columns are the loop's columns until they are
 * first visited, so they are read once into the state and written out from it.
 * No bound on the entries is needed: a column of any size is exact.  A wide
 * column costs one GMP call per entry, so columns that stay wide, as on the
 * augmented systems at n = 100, whose columns start near 2^127, are its slow
 * case.
 *
 * The LLL invariant.  Let B be the largest squared norm of the n input
 * columns.  Every ||b*_j||^2 is at most B: a Gram-Schmidt vector is a
 * projection of its column, which is an input column until it is first
 * visited, and an exchange at k makes b*_{k-1} shorter than the old b*_{k-1}
 * (the Lovasz test failed) and the new b*_k a projection of the old b*_{k-1}.
 * So d[j+1] <= B d[j] for every j.  The loop checks this on its output, and a
 * failure returns LLL_PREMISE instead of the output; the Python loop checks it
 * too, so both raise the same AssertionError.
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
 * rounding and lam updates (size_reduce, round_nearest, sub_multiple), and the
 * quotients of the exchange and of gso_row (cross_quotient).  Each does its
 * arithmetic in __int128, where a product of two longs and a sum of two such
 * products are exact, or in long under __builtin_*_overflow, and writes a
 * result with mpz_set_si only when it fits in a long; otherwise the step runs
 * in GMP for that value.  d and lam are stored as mpz_t, and every value and
 * decision is the one GMP would compute.  The build needs __int128 (GCC or
 * Clang on a 64-bit target) and stops with #error without it, so the Python
 * loop runs.
 *
 * Termination.  The loop checks the two steps of LLL's termination proof, as
 * the Python loop does (lattice.py's docstring has the proof): each exchange
 * lowers d[k] and leaves it positive, and there are at most q log2(P0) /
 * (q - p) exchanges, with log2(P0) <= sum_i (n - i) bitlen(||b_i||^2) over
 * the input columns.  set_budget takes the norms it computes for B.
 * When either fails the loop returns LLL_BUDGET, and the wrapper raises the
 * Python loop's AssertionError.  So a wrong d or lam ends in an error instead
 * of an endless loop, at the latest once the budget runs out.  A budget
 * beyond ULONG_MAX is never reached and is held as ULONG_MAX: for alpha so
 * close to 1 that q / (q - p) is near 2^64, as for p/q = (2^65 + 1) /
 * (2^65 + 3), only the falling-d check guards the loop.  A resumed run
 * counts its exchanges from 0 against the budget of its own input (Resume).
 *
 * Resume.  reduce takes a start, the record of a run on the first r of its
 * columns with prefix r, and runs from k = r and k_max = r - 1 with those
 * columns, read as every input column is, and the start's d[0..r] and lam rows
 * 0..r-1, which it reads into its own mpz_t and so never writes.  Cohen's loop
 * first visits column r at exactly the step where a run on columns 0..r-1
 * ends, in that state, so the output is the whole run's, bit for bit.  B and
 * the budget come from the input as given, the start's columns and the new
 * ones, and the proofs above hold for it: each head ||b*_j||^2 is at most the
 * squared norm of its column, an input column, so at most B, and the head's d
 * are the input's Gram determinants, bounded as P0 is.
 *
 * Output.  At exit d and lam are exact for the reduced columns, and the
 * caller names a prefix k: reduce returns the reduced columns, a tuple of
 * int tuples, with d[0..k] and lam rows 0..k-1 (row i has entries 0..i-1),
 * the Gram-Schmidt of the first k columns, as lists; with k = 0 that is
 * d = [1] and no rows.  lattice.py builds this file on first use, and the
 * tests hold this loop to the Python one.
 *
 * Crossing.  An int is read through a C long where it fits one and through
 * its own hex text otherwise; an mpz_t is written through a long where word()
 * reads it as one, and through GMP's base-16 text otherwise, so LONG_MIN,
 * which word() excludes, is read as a word and written as text.  The input
 * columns are read as ints (read_ints), a word column's entries written back
 * through a long, LONG_MIN among them; a start's d and lam, which the loop
 * writes, and p and q into mpz_t of their own (read_int).  The loop runs with
 * the interpreter's lock released, between reading its input and building its
 * output, and touches no Python object there.
 *
 * Sweep.  sweep(cols, d, lam, target, step) is reduction._sweep, Babai's
 * nearest-plane rounding of target against the kernel basis D, whose s
 * columns are cols and whose integral Gram-Schmidt is (d, lam), as LLL left it
 * for decompose.  It takes the target's inner products with the columns,
 * extends them to the target's row lam_t of the same Gram-Schmidt with
 * gso_row, the recurrence the LLL loop's first visits run, stopped before the
 * norm entry; picks q_j = step round_nearest(lam_t[j], step d[j+1]) from the
 * last column down, clearing each from lam_t with sub_multiple; and builds
 * target - D q once, at the end.  So its rounding, its exact quotients and
 * their word paths are the LLL loop's own, written once.  D and the target
 * are read as C longs, a vector through GMP only where one of its entries is
 * not a long: copying every entry of D into an mpz_t costs more than the
 * sweep's arithmetic.  Their inner products and target - D q then run in
 * __int128 under overflow checks, and GMP computes any that overflows.  d and
 * lam are read as gso_row and sub_multiple take them, as mpz_t, which the
 * sweep only reads, so through read_view, and an entry of target - D q
 * beyond a long is written with new_int (Crossing).  The half shift of
 * reduce_half, 2x - 1 and its undoing, stays in Python.  The sweep holds the
 * interpreter's lock: it is short, and it reads Python objects until it has
 * its input.
 *
 * Products.  products(rows, cols) is intmat._products: the exact inner
 * product of every row with every column, out[i][j] = <rows[i], cols[j]>,
 * for the Gram matrix of the kernel features (intmat.gram) and the
 * decomposition's contract, A D = 0 and A C = E (formulations).  It is the
 * sweep's word path, written once: each vector is read as C longs, or
 * through GMP where one of its entries is not a long (read_ints); each
 * product is dot, in __int128 under overflow checks where both vectors are
 * words, in GMP otherwise; and each result is written with new_int.  Each
 * row and each column is read once, however many products it enters.  The
 * lengths are checked here too, with a ValueError, and intmat checks them
 * first, with its own DimensionMismatch, before either twin runs.  Like the
 * sweep, it holds the interpreter's lock.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <gmp.h>
#include <limits.h>
#include <string.h>

#ifndef __SIZEOF_INT128__
#error "the word path computes in __int128: build with GCC or Clang for a 64-bit target"
#endif
#if GMP_NAIL_BITS != 0 || GMP_NUMB_BITS != 64 || LONG_MAX >> 62 != 1
#error "words are read from and into 64-bit limbs: build for a 64-bit target"
#endif

/* reduce's statuses, which lattice.py names C_DEPENDENT, C_PREMISE and C_BUDGET */
enum { LLL_OK = 0, LLL_DEPENDENT = 1, LLL_PREMISE = 2, LLL_BUDGET = 3 };

/* A column of the LLL loop or a vector of the sweep or of products (header:
 * Columns, Sweep): its entries as words in w, or, where one of them is not a
 * word, all of them in z, with wide set. */
typedef struct {
    long *w;
    mpz_ptr z;
    int wide;
} ints;

/* The reduction state.  cols holds the n columns of dim entries, the input
 * ones until they are first visited and at exit the reduced ones.  lam[i]
 * points at row i of lam (entries 0..i-1 in use), d at d[0..n]; swapping two
 * columns or two rows swaps pointers.  exchanges counts the exchanges against
 * budget (header: Termination). */
typedef struct {
    int n, dim;
    unsigned long exchanges, budget;
    ints *cols;
    mpz_ptr *lam, d;
    int *nz;
    mpz_t p, q, bound, gamma, num, dnew, t, t1, t2;
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

/* Entry r of v as an mpz_t, set into t where v is words. */
static mpz_srcptr entry(const ints *v, int r, mpz_ptr t)
{
    if (v->wide)
        return v->z + r;
    mpz_set_si(t, v->w[r]);
    return t;
}

/* out = the inner product of a and b over len coordinates, the first len of
 * at or, where at is NULL, 0..len-1: in __int128 where both are words and no
 * sum overflows, written as a word where it fits one; otherwise in GMP, with
 * t1 and t2 as scratch.  A product of two longs is at most 2^126 in absolute
 * value, so only the sums need a check. */
static void dot(mpz_ptr out, const ints *a, const ints *b, const int *at, int len, mpz_ptr t1,
                mpz_ptr t2)
{
    __int128 acc = 0;
    int i, r;

    if (!a->wide && !b->wide) {
        for (i = 0; i < len; i++) {
            r = at ? at[i] : i;
            if (__builtin_add_overflow(acc, (__int128)a->w[r] * b->w[r], &acc))
                break;
        }
        if (i == len && acc >= LONG_MIN && acc <= LONG_MAX) {
            mpz_set_si(out, (long)acc);
            return;
        }
    }
    mpz_set_ui(out, 0);
    for (i = 0; i < len; i++) {
        r = at ? at[i] : i;
        mpz_addmul(out, entry(a, r, t1), entry(b, r, t2));
    }
}

/* The indices of v's nonzero entries, of dim, into nz; returns their count. */
static int nonzero(const ints *v, int dim, int *nz)
{
    int r, count = 0;

    for (r = 0; r < dim; r++)
        if (v->wide ? mpz_sgn(v->z + r) : v->w[r])
            nz[count++] = r;
    return count;
}

/* Row k of the GSO from its inner products (lattice.gso_row): on entry
 * lam[k][j] holds the inner product with column j < k, and with len = k + 1
 * d[k+1] the squared norm; on return they hold lam = mu d[j+1] and the Gram
 * determinant.  With len = k the row stops before the norm entry and d[k+1]
 * is not read.  A zero prefix of the inner products telescopes to
 * g[j] * d[z]. */
static void gso_row(mpz_ptr *lam, mpz_ptr d, int k, int len, mpz_ptr t)
{
    mpz_ptr row = lam[k], u;
    mpz_srcptr lj;
    int z, j, i;

    for (z = 0; z < k && !mpz_sgn(row + z); z++)
        ;
    for (j = z; j < len; j++) {
        u = j < k ? row + j : d + k + 1;
        lj = j < k ? lam[j] : row;
        mpz_mul(u, u, d + z);
        for (i = z; i < j; i++)
            cross_quotient(u, d + i + 1, u, -1, row + i, lj + i, d + i, t);
    }
}

/* gamma = ceil(num/den - 1/2) = -((den - 2 num) // (2 den)), den > 0.  Where
 * both are words, from C's division, which truncates: the quotient moves one
 * away from zero where the remainder passes half of den, and at a negative
 * half tie (4.5 -> 4, -4.5 -> -5).  Otherwise in GMP, with t1 and t2 as
 * scratch. */
static void round_nearest(mpz_ptr gamma, mpz_srcptr num, mpz_srcptr den, mpz_ptr t1,
                          mpz_ptr t2)
{
    long l, d, g, r;

    if (word(num, &l) && word(den, &d)) {
        g = l / d;
        r = l % d;
        if (2 * (__int128)r > d)
            g++;
        else if (2 * (__int128)r <= -(__int128)d)
            g--;
        mpz_set_si(gamma, g);
        return;
    }
    mpz_mul_2exp(t1, num, 1);
    mpz_sub(t1, den, t1);
    mpz_mul_2exp(t2, den, 1);
    mpz_fdiv_q(gamma, t1, t2);
    mpz_neg(gamma, gamma);
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

/* Column v of dim entries into GMP: its words into its mpz_t. */
static void widen(ints *v, int dim)
{
    int r;

    for (r = 0; r < dim; r++)
        mpz_set_si(v->z + r, v->w[r]);
    v->wide = 1;
}

/* Wide column v of dim entries back into words where every entry fits in a
 * long. */
static void narrow(ints *v, int dim)
{
    int r;

    for (r = 0; r < dim; r++)
        if (!mpz_fits_slong_p(v->z + r))
            return;
    for (r = 0; r < dim; r++)
        v->w[r] = mpz_get_si(v->z + r);
    v->wide = 0;
}

/* Column v -= gamma times column w, dim entries each (header: Columns): in
 * words while gamma and both columns are words and no product or difference
 * overflows, and from the entry where one does on in GMP, v being widened
 * first and narrowed after.  A word entry of w enters GMP as the unsigned
 * long factor of mpz_submul_ui or mpz_addmul_ui, and a zero one not at all. */
static void sub_column(ints *v, const ints *w, int dim, mpz_srcptr gamma)
{
    long g, x;
    int r = 0;

    if (!v->wide && !w->wide && word(gamma, &g))
        for (; r < dim && !__builtin_mul_overflow(g, w->w[r], &x)
               && !__builtin_sub_overflow(v->w[r], x, &x); r++)
            v->w[r] = x;
    if (r == dim)
        return;
    if (!v->wide)
        widen(v, dim);
    for (; r < dim; r++)
        if (w->wide)
            mpz_submul(v->z + r, gamma, w->z + r);
        else if (w->w[r] > 0)
            mpz_submul_ui(v->z + r, gamma, (unsigned long)w->w[r]);
        else if (w->w[r] < 0)
            mpz_addmul_ui(v->z + r, gamma, -(unsigned long)w->w[r]);
    narrow(v, dim);
}

/* First visit of column k, still input column k: its GSO row into lam[k]
 * and d[k+1] (lattice._visit), from its inner products with columns 0..k-1
 * and its squared norm, read only at its nonzero coordinates.  Returns
 * nonzero when column k depends on columns 0..k-1. */
static int visit(state *s, int k)
{
    const ints *ck = s->cols + k;
    int nnz = nonzero(ck, s->dim, s->nz), j;

    for (j = 0; j < k; j++)
        dot(s->lam[k] + j, ck, s->cols + j, s->nz, nnz, s->t1, s->t2);
    dot(s->d + k + 1, ck, ck, s->nz, nnz, s->t1, s->t2);
    gso_row(s->lam, s->d, k, k + 1, s->t1);
    return !mpz_sgn(s->d + k + 1);
}

/* Size-reduce column k against column j < k, as in _python_reduce: when
 * |2 lam[k][j]| > d[j+1], subtract gamma = round_nearest(lam[k][j], d[j+1])
 * times column j. */
static void size_reduce(state *s, int k, int j)
{
    mpz_ptr lkj = s->lam[k] + j, dj = s->d + j + 1;
    long l, d;

    if (word(lkj, &l) && word(dj, &d)) {
        if (2 * (__int128)l <= d && -2 * (__int128)l <= d)
            return;
    } else {
        mpz_mul_2exp(s->t1, lkj, 1);
        if (mpz_cmpabs(s->t1, dj) <= 0)
            return;
    }
    round_nearest(s->gamma, lkj, dj, s->t1, s->t2);
    sub_column(s->cols + k, s->cols + j, s->dim, s->gamma);
    sub_multiple(s->lam[k], s->lam[j], j, s->gamma);
    sub_multiple(lkj, dj, 1, s->gamma);
}

/* Exchange columns k-1 and k, the Lovasz test having failed; s->num holds
 * d[k+1] d[k-1] + lam[k][k-1]^2.  Returns 0, changing nothing, when the new
 * d[k], num / d[k], is not in [1, d[k]) (header: Termination). */
static int exchange(state *s, int k, int kmax)
{
    mpz_ptr *lam = s->lam, d = s->d, swap, lkk, li;
    ints col;
    int i;

    mpz_divexact(s->dnew, s->num, d + k);
    if (mpz_sgn(s->dnew) <= 0 || mpz_cmp(s->dnew, d + k) >= 0)
        return 0;
    col = s->cols[k - 1], s->cols[k - 1] = s->cols[k], s->cols[k] = col;
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

/* The loop of lattice._python_reduce from k = r, columns 0..r-1 and their
 * GSO being the start's (header: Resume).  Returns LLL_DEPENDENT with *where
 * = k when column k depends on the columns before it, and LLL_BUDGET at an
 * exchange past the budget or one that does not lower d[k]. */
static int reduce(state *s, int r, int *where)
{
    int n = s->n, k = r, kmax = r - 1, j;

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

/* B, the largest squared norm of the input columns, and from the same norms
 * the exchange budget q sum_i (n - i) bitlen(||b_i||^2) / (q - p) (header:
 * Termination), or ULONG_MAX where it is larger.  A word column's norm is
 * summed in unsigned __int128, and a wide one's, or one whose sum overflows,
 * in GMP (dot).  A sum of bit lengths past ULONG_MAX is held as ULONG_MAX,
 * which puts the budget past it too. */
static void set_budget(state *s)
{
    unsigned __int128 norm, top = 0;
    unsigned long bits, sum = 0;
    const ints *c;
    mp_ptr limb;
    int i, r, big;

    for (i = 0; i < s->n; i++) {
        c = s->cols + i;
        norm = 0;
        for (r = 0, big = c->wide; !big && r < s->dim; r++)
            big = __builtin_add_overflow(norm, (unsigned __int128)((__int128)c->w[r] * c->w[r]),
                                         &norm);
        if (big) {
            dot(s->t, c, c, NULL, s->dim, s->t1, s->t2);
            if (mpz_cmp(s->t, s->bound) > 0)
                mpz_set(s->bound, s->t);
            bits = mpz_sgn(s->t) ? mpz_sizeinbase(s->t, 2) : 0;
        } else {
            if (norm > top)
                top = norm;
            bits = norm >> 64 ? 128 - __builtin_clzl((unsigned long)(norm >> 64))
                   : norm ? 64 - __builtin_clzl((unsigned long)norm) : 0;
        }
        if (__builtin_mul_overflow(bits, (unsigned long)(s->n - i), &bits)
            || __builtin_add_overflow(sum, bits, &sum))
            sum = ULONG_MAX;
    }
    limb = mpz_limbs_write(s->t, 2);
    limb[0] = (mp_limb_t)top;
    limb[1] = (mp_limb_t)(top >> 64);
    mpz_limbs_finish(s->t, limb[1] ? 2 : limb[0] != 0);
    if (mpz_cmp(s->t, s->bound) > 0)
        mpz_set(s->bound, s->t);
    mpz_set_ui(s->t2, sum);
    mpz_mul(s->t2, s->t2, s->q);
    mpz_sub(s->t1, s->q, s->p);
    mpz_fdiv_q(s->t2, s->t2, s->t1);
    s->budget = mpz_fits_ulong_p(s->t2) ? mpz_get_ui(s->t2) : ULONG_MAX;
    s->exchanges = 0;
}


/* 0 where obj is an int; else -1 with a TypeError set. */
static int check_int(PyObject *obj)
{
    if (PyLong_Check(obj))
        return 0;
    PyErr_Format(PyExc_TypeError, "an entry must be an int, not %.100s", Py_TYPE(obj)->tp_name);
    return -1;
}

/* z = the int obj (header: Crossing).  Returns -1 with an exception set, a
 * TypeError where obj is not an int. */
static int read_int(mpz_ptr z, PyObject *obj)
{
    PyObject *text;
    const char *digits;
    long v;
    int overflow, status;

    if (check_int(obj))
        return -1;
    v = PyLong_AsLongAndOverflow(obj, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (!overflow) {
        mpz_set_si(z, v);
        return 0;
    }
    if (!(text = PyNumber_ToBase(obj, 16)))
        return -1;
    digits = PyUnicode_AsUTF8(text);
    status = digits ? mpz_set_str(z, digits, 0) : -1;
    if (digits && status)
        PyErr_Format(PyExc_ValueError, "GMP cannot read %.100s", digits);
    Py_DECREF(text);
    return status;
}

/* z = the int obj, as a read-only view of *limb where it is a word
 * (mpz_roinit_n), so that reading it allocates nothing, and otherwise through
 * read_int into z, initialised here.  z must be a view on entry, and only
 * clear_view may clear it.  Returns -1 with an exception set, a TypeError
 * where obj is not an int. */
static int read_view(mpz_ptr z, mp_limb_t *limb, PyObject *obj)
{
    long v;
    int overflow;

    if (check_int(obj))
        return -1;
    v = PyLong_AsLongAndOverflow(obj, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow) {
        mpz_init(z);
        return read_int(z, obj);
    }
    *limb = v < 0 ? -(mp_limb_t)v : (mp_limb_t)v;
    mpz_roinit_n(z, limb, v < 0 ? -1 : v > 0);
    return 0;
}

/* Clears z unless it is a view of limb (read_view). */
static void clear_view(mpz_ptr z, const mp_limb_t *limb)
{
    if (mpz_limbs_read(z) != limb)
        mpz_clear(z);
}

/* The int z (header: Crossing), or NULL with an exception set. */
static PyObject *new_int(mpz_srcptr z)
{
    void (*release)(void *, size_t);
    PyObject *obj;
    char *digits;
    long v;

    if (word(z, &v))
        return PyLong_FromLong(v);
    digits = mpz_get_str(NULL, 16, z);
    obj = PyLong_FromString(digits, NULL, 16);
    mp_get_memory_functions(NULL, NULL, &release);
    release(digits, strlen(digits) + 1);
    return obj;
}

/* The len ints of items into v; returns -1 with an exception set where one is
 * not read, a TypeError where it is not an int. */
static int read_ints(ints *v, PyObject **items, int len)
{
    int r, overflow;

    v->wide = 0;
    for (r = 0; r < len; r++) {
        if (check_int(items[r]))
            return -1;
        v->w[r] = PyLong_AsLongAndOverflow(items[r], &overflow);
        if (v->w[r] == -1 && PyErr_Occurred())
            return -1;
        v->wide |= overflow != 0;
    }
    for (r = 0; v->wide && r < len; r++)
        if (read_int(v->z + r, items[r]))
            return -1;
    return 0;
}

/* The n columns of dim entries of cols, a list or tuple, into the state's
 * columns (read_ints), and p and q; returns -1 with an exception set where
 * one is not read. */
static int read_input(state *s, PyObject *cols, PyObject *p, PyObject *q)
{
    PyObject *col;
    int i, status = 0;

    for (i = 0; !status && i < s->n; i++) {
        if (!(col = PySequence_Fast(PySequence_Fast_GET_ITEM(cols, i),
                                    "a column must be a sequence")))
            return -1;
        if (PySequence_Fast_GET_SIZE(col) != s->dim) {
            PyErr_SetString(PyExc_ValueError, "columns must share one dimension");
            status = -1;
        } else
            status = read_ints(s->cols + i, PySequence_Fast_ITEMS(col), s->dim);
        Py_DECREF(col);
    }
    if (status || read_int(s->p, p))
        return -1;
    return read_int(s->q, q);
}

/* d[0..r] and lam rows 0..r-1 of a start (header: Resume), from the
 * sequences d and lam; returns -1 with an exception set where they do not
 * have that shape, an entry is not an int or a d is not positive. */
static int read_start(state *s, PyObject *d, PyObject *lam, int r)
{
    PyObject *row;
    int i, j, status = 0;

    for (i = 0; !status && i <= r; i++) {
        status = read_int(s->d + i, PySequence_Fast_GET_ITEM(d, i));
        if (!status && mpz_sgn(s->d + i) <= 0) {
            PyErr_SetString(PyExc_ValueError, "the start's d must be positive");
            status = -1;
        }
    }
    for (i = 0; !status && i < r; i++) {
        if (!(row = PySequence_Fast(PySequence_Fast_GET_ITEM(lam, i),
                                    "a lam row must be a sequence")))
            return -1;
        if (PySequence_Fast_GET_SIZE(row) != i) {
            PyErr_SetString(PyExc_ValueError, "the start's lam row i must have i entries");
            status = -1;
        }
        for (j = 0; !status && j < i; j++)
            status = read_int(s->lam[i] + j, PySequence_Fast_GET_ITEM(row, j));
        Py_DECREF(row);
    }
    return status;
}

/* (columns, d, lam) for the prefix k (header: Output), or NULL with an
 * exception set. */
static PyObject *output(state *s, int k)
{
    PyObject *cols = PyTuple_New(s->n), *d = PyList_New(k + 1), *lam = PyList_New(k), *seq, *x;
    const ints *c;
    int i, j;

    if (!cols || !d || !lam)
        goto fail;
    for (i = 0; i < s->n; i++) {
        if (!(seq = PyTuple_New(s->dim)))
            goto fail;
        PyTuple_SET_ITEM(cols, i, seq);
        c = s->cols + i;
        for (j = 0; j < s->dim; j++) {
            if (!(x = c->wide ? new_int(c->z + j) : PyLong_FromLong(c->w[j])))
                goto fail;
            PyTuple_SET_ITEM(seq, j, x);
        }
    }
    for (i = 0; i <= k; i++) {
        if (!(x = new_int(s->d + i)))
            goto fail;
        PyList_SET_ITEM(d, i, x);
    }
    for (i = 0; i < k; i++) {
        if (!(seq = PyList_New(i)))
            goto fail;
        PyList_SET_ITEM(lam, i, seq);
        for (j = 0; j < i; j++) {
            if (!(x = new_int(s->lam[i] + j)))
                goto fail;
            PyList_SET_ITEM(seq, j, x);
        }
    }
    return Py_BuildValue("NNN", cols, d, lam);
fail:
    Py_XDECREF(cols);
    Py_XDECREF(d);
    Py_XDECREF(lam);
    return NULL;
}

/* reduce(cols, p, q, prefix, start=None): LLL-reduce the columns cols, a
 * list or tuple of n lists or tuples of dim ints, with alpha = p/q, resumed
 * from start, a tuple (columns, d, lam) with d[0..r] and lam rows 0..r-1 of
 * cols' first r columns, or from k = 0 where start is None (header:
 * Resume).  Returns (status, value): (LLL_OK, (columns, d, lam)) with the
 * Gram-Schmidt of the first prefix columns, 0 <= prefix <= n (header:
 * Output), or a failure status and where it happened.  LLL_DEPENDENT: column
 * where depends on the columns before it.  LLL_PREMISE: d[j+1] > B d[j] at
 * j = where, where B is the largest squared norm of an input column.
 * LLL_BUDGET: an exchange did not lower d[k], or passed the exchange budget
 * (header: Termination).  An entry that is not an int raises TypeError, and
 * a start of another shape ValueError. */
static PyObject *lll_reduce(PyObject *module, PyObject *args)
{
    PyObject *cols, *p, *q, *seq, *start = Py_None, *d = NULL, *lam = NULL, *value = NULL;
    Py_ssize_t n, dim, r = 0;
    size_t total = 0, e;
    state s;
    long *words = NULL;
    mpz_ptr z = NULL;
    int prefix, where = 0, status = LLL_OK, i;

    (void)module;
    if (!PyArg_ParseTuple(args, "OOOi|O:reduce", &cols, &p, &q, &prefix, &start)
        || !(seq = PySequence_Fast(cols, "the columns must be a sequence")))
        return NULL;
    n = PySequence_Fast_GET_SIZE(seq);
    dim = n ? PySequence_Size(PySequence_Fast_GET_ITEM(seq, 0)) : 0;
    s.cols = NULL;
    s.lam = NULL;
    s.nz = NULL;
    if (dim < 0)
        goto release;
    if (n < 1 || n > INT_MAX || dim < 1 || dim > INT_MAX || prefix < 0 || prefix > n) {
        PyErr_SetString(PyExc_ValueError, "reduce takes n >= 1 columns of dim >= 1 entries "
                                          "and a prefix in 0..n");
        goto release;
    }
    if (start != Py_None) {
        if (!PyTuple_Check(start) || PyTuple_GET_SIZE(start) != 3
            || !(d = PySequence_Fast(PyTuple_GET_ITEM(start, 1), "d must be a sequence"))
            || !(lam = PySequence_Fast(PyTuple_GET_ITEM(start, 2), "lam must be a sequence")))
            goto bad_start;
        r = PySequence_Fast_GET_SIZE(lam);
        if (r > n || PySequence_Fast_GET_SIZE(d) != r + 1)
            goto bad_start;
    }
    s.n = (int)n;
    s.dim = (int)dim;
    /* the columns' GMP entries, then lam and d */
    total = (size_t)n * dim + (size_t)n * n + n + 1;
    s.cols = PyMem_New(ints, n);
    words = PyMem_New(long, (size_t)n * dim);
    z = PyMem_New(__mpz_struct, total);
    s.lam = PyMem_New(mpz_ptr, n);
    s.nz = PyMem_New(int, dim);
    if (!s.cols || !words || !z || !s.lam || !s.nz) {
        PyErr_NoMemory();
        goto release;
    }
    for (e = 0; e < total; e++)
        mpz_init(z + e);
    for (i = 0; i < n; i++) {
        s.cols[i].w = words + (size_t)i * dim;
        s.cols[i].z = z + (size_t)i * dim;
        s.lam[i] = z + (size_t)n * dim + (size_t)i * n;
    }
    s.d = z + (size_t)n * dim + (size_t)n * n;
    mpz_set_ui(s.d, 1);
    mpz_inits(s.p, s.q, s.bound, s.gamma, s.num, s.dnew, s.t, s.t1, s.t2, NULL);

    if (!read_input(&s, seq, p, q) && !(d && read_start(&s, d, lam, (int)r))) {
        Py_BEGIN_ALLOW_THREADS
        set_budget(&s);
        status = reduce(&s, (int)r, &where);
        for (i = 0; status == LLL_OK && i < n; i++) {
            mpz_mul(s.t1, s.bound, s.d + i);
            if (mpz_cmp(s.d + i + 1, s.t1) > 0) {
                where = i;
                status = LLL_PREMISE;
            }
        }
        Py_END_ALLOW_THREADS
        value = status == LLL_OK ? output(&s, prefix) : PyLong_FromLong(where);
        if (value)
            value = Py_BuildValue("iN", status, value);
    }

    mpz_clears(s.p, s.q, s.bound, s.gamma, s.num, s.dnew, s.t, s.t1, s.t2, NULL);
    for (e = 0; e < total; e++)
        mpz_clear(z + e);
release:
    PyMem_Free(s.cols);
    PyMem_Free(words);
    PyMem_Free(z);
    PyMem_Free(s.lam);
    PyMem_Free(s.nz);
    Py_XDECREF(d);
    Py_XDECREF(lam);
    Py_DECREF(seq);
    return value;
bad_start:
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_ValueError, "a start is a tuple (columns, d, lam) with d[0..r] "
                                          "and lam rows 0..r-1, r <= n");
    goto release;
}

/* The sweep's state (header: Sweep).  cols[j] is column j of D and x the
 * target, n entries each; d holds d[0..s]; rows[j] points at lam row j
 * (entries 0..j-1) for j < s and rows[s] at lam_t; d and rows 0..s-1 are
 * only read, and they follow each other, as views of limbs where they are
 * words (read_view); q[j] is the multiple of column j, and the nq columns
 * with q[j] != 0 are listed in used, with q[j] in qw[j] where every such q
 * and column is a word (small). */
typedef struct {
    int s, n, nq, small;
    ints *cols, x;
    mpz_ptr d, q, *rows;
    mp_limb_t *limbs;
    int *used;
    long *qw;
    mpz_t den, gamma, t, t1, t2;
} sweep_state;

/* The target's row lam_t and the q's, from the last column down
 * (reduction._sweep). */
static void babai(sweep_state *s, unsigned long step)
{
    mpz_ptr lam_t = s->rows[s->s];
    int j;

    for (j = 0; j < s->s; j++)
        dot(lam_t + j, s->cols + j, &s->x, NULL, s->n, s->t1, s->t2);
    gso_row(s->rows, s->d, s->s, s->s, s->t);
    s->nq = 0;
    s->small = !s->x.wide;
    for (j = s->s - 1; j >= 0; j--) {
        mpz_mul_ui(s->den, s->d + j + 1, step);
        round_nearest(s->gamma, lam_t + j, s->den, s->t1, s->t2);
        mpz_mul_ui(s->q + j, s->gamma, step);
        if (!mpz_sgn(s->q + j))
            continue;
        sub_multiple(lam_t, s->rows[j], j, s->q + j);
        s->used[s->nq++] = j;
        s->small = s->small && !s->cols[j].wide && word(s->q + j, s->qw + j);
    }
}

/* Entry r of target - D q as an int, or NULL with an exception set: in
 * __int128 where every operand is a word and no step overflows, written as a
 * word where it fits one; otherwise in GMP. */
static PyObject *residual(sweep_state *s, int r)
{
    __int128 acc = s->x.w[r];
    int i, j, small = s->small;

    for (i = 0; small && i < s->nq; i++) {
        j = s->used[i];
        small = !__builtin_sub_overflow(acc, (__int128)s->qw[j] * s->cols[j].w[r], &acc);
    }
    if (small && acc >= LONG_MIN && acc <= LONG_MAX)
        return PyLong_FromLong((long)acc);
    mpz_set(s->t, entry(&s->x, r, s->t1));
    for (i = 0; i < s->nq; i++) {
        j = s->used[i];
        mpz_submul(s->t, s->q + j, entry(s->cols + j, r, s->t1));
    }
    return new_int(s->t);
}

/* Reads the columns, d, lam rows 0..s-1 and the target (header: Sweep);
 * returns -1 with an exception set where one is not read. */
static int read_sweep(sweep_state *s, PyObject *cols, PyObject *d, PyObject *lam,
                      PyObject *target)
{
    PyObject *seq;
    int j, i, status = 0;

    if (read_ints(&s->x, PySequence_Fast_ITEMS(target), s->n))
        return -1;
    for (j = 0; !status && j < s->s; j++) {
        if (!(seq = PySequence_Fast(PySequence_Fast_GET_ITEM(cols, j),
                                    "a column must be a sequence")))
            return -1;
        if (PySequence_Fast_GET_SIZE(seq) != s->n) {
            PyErr_SetString(PyExc_ValueError, "the columns and the target must share one "
                                              "dimension");
            status = -1;
        }
        if (!status)
            status = read_ints(s->cols + j, PySequence_Fast_ITEMS(seq), s->n);
        Py_DECREF(seq);
    }
    for (j = 0; !status && j <= s->s; j++) {
        status = read_view(s->d + j, s->limbs + j, PySequence_Fast_GET_ITEM(d, j));
        if (!status && mpz_sgn(s->d + j) <= 0) {
            PyErr_SetString(PyExc_ValueError, "d must be positive");
            status = -1;
        }
    }
    for (j = 0; !status && j < s->s; j++) {
        if (!(seq = PySequence_Fast(PySequence_Fast_GET_ITEM(lam, j),
                                    "a lam row must be a sequence")))
            return -1;
        if (PySequence_Fast_GET_SIZE(seq) != j) {
            PyErr_SetString(PyExc_ValueError, "lam row j must have j entries");
            status = -1;
        }
        for (i = 0; !status && i < j; i++)
            status = read_view(s->rows[j] + i, s->limbs + (s->rows[j] + i - s->d),
                               PySequence_Fast_GET_ITEM(seq, i));
        Py_DECREF(seq);
    }
    return status;
}

/* sweep(cols, d, lam, target, step): reduction._sweep of target, a list or
 * tuple of n ints, against the s columns cols of D, lists or tuples of n
 * ints, whose integral Gram-Schmidt is d[0..s] and lam rows 0..s-1, with
 * step >= 1 (header: Sweep).  Returns target - D q as a list of n ints.  An
 * entry that is not an int raises TypeError; shapes that do not match raise
 * ValueError. */
static PyObject *lll_sweep(PyObject *module, PyObject *args)
{
    PyObject *cols, *d, *lam, *target, *out = NULL, *x;
    PyObject *seqs[4] = {NULL, NULL, NULL, NULL};
    Py_ssize_t s_size, n_size;
    size_t words = 0, mpzs = 0, views = 0, e;
    sweep_state s;
    mpz_ptr z = NULL;
    long *w = NULL;
    int step, j, r;

    (void)module;
    if (!PyArg_ParseTuple(args, "OOOOi:sweep", &cols, &d, &lam, &target, &step)
        || !(seqs[0] = PySequence_Fast(cols, "the columns must be a sequence"))
        || !(seqs[1] = PySequence_Fast(d, "d must be a sequence"))
        || !(seqs[2] = PySequence_Fast(lam, "lam must be a sequence"))
        || !(seqs[3] = PySequence_Fast(target, "the target must be a sequence")))
        goto release;
    s_size = PySequence_Fast_GET_SIZE(seqs[0]);
    n_size = PySequence_Fast_GET_SIZE(seqs[3]);
    if (s_size > INT_MAX || n_size < 1 || n_size > INT_MAX
        || PySequence_Fast_GET_SIZE(seqs[1]) <= s_size
        || PySequence_Fast_GET_SIZE(seqs[2]) < s_size || step < 1) {
        PyErr_SetString(PyExc_ValueError, "sweep takes s columns, d[0..s], lam rows "
                                          "0..s-1, a target of n >= 1 entries and a step >= 1");
        goto release;
    }
    s.s = (int)s_size;
    s.n = (int)n_size;
    s.cols = PyMem_New(ints, s.s);
    s.rows = PyMem_New(mpz_ptr, s.s + 1);
    s.used = PyMem_New(int, s.s);
    /* words: the columns, the target and qw; mpzs: d and the lam rows, as
     * views of limbs, then lam_t, q and the vectors' GMP copies */
    words = (size_t)(s.s + 1) * s.n + s.s;
    views = (size_t)(s.s + 1) + (size_t)s.s * (s.s - 1) / 2;
    mpzs = views + 2 * (size_t)s.s + (size_t)(s.s + 1) * s.n;
    w = PyMem_New(long, words);
    z = PyMem_New(__mpz_struct, mpzs);
    s.limbs = PyMem_New(mp_limb_t, views);
    if (!s.cols || !s.rows || !s.used || !w || !z || !s.limbs) {
        PyErr_NoMemory();
        goto free;
    }
    for (e = 0; e < views; e++)
        mpz_roinit_n(z + e, s.limbs + e, 0);
    for (; e < mpzs; e++)
        mpz_init(z + e);
    s.d = z;
    s.rows[0] = s.d + s.s + 1;
    for (j = 0; j < s.s; j++)
        s.rows[j + 1] = s.rows[j] + j;
    s.q = s.rows[s.s] + s.s;
    for (j = 0; j <= s.s; j++) {
        ints *v = j < s.s ? s.cols + j : &s.x;

        v->w = w + (size_t)j * s.n;
        v->z = s.q + s.s + (size_t)j * s.n;
    }
    s.qw = w + (size_t)(s.s + 1) * s.n;
    mpz_inits(s.den, s.gamma, s.t, s.t1, s.t2, NULL);

    if (!read_sweep(&s, seqs[0], seqs[1], seqs[2], seqs[3])) {
        babai(&s, (unsigned long)step);
        out = PyList_New(s.n);
        for (r = 0; out && r < s.n; r++) {
            if (!(x = residual(&s, r)))
                Py_CLEAR(out);
            else
                PyList_SET_ITEM(out, r, x);
        }
    }

    mpz_clears(s.den, s.gamma, s.t, s.t1, s.t2, NULL);
    for (e = 0; e < views; e++)
        clear_view(z + e, s.limbs + e);
    for (; e < mpzs; e++)
        mpz_clear(z + e);
free:
    PyMem_Free(s.limbs);
    PyMem_Free(s.cols);
    PyMem_Free(s.rows);
    PyMem_Free(s.used);
    PyMem_Free(w);
    PyMem_Free(z);
release:
    for (j = 0; j < 4; j++)
        Py_XDECREF(seqs[j]);
    return out;
}

/* products(rows, cols): the inner product of every row with every column,
 * each a list or tuple of n ints (header: Products).  Returns a list of r
 * lists of c ints, out[i][j] = <rows[i], cols[j]>.  An entry that is not an
 * int raises TypeError; vectors of unequal length raise ValueError. */
static PyObject *lll_products(PyObject *module, PyObject *args)
{
    PyObject *rows, *cols, *out = NULL, *seq, *line, *x;
    PyObject *seqs[2] = {NULL, NULL};
    Py_ssize_t r_size, c_size, n_size = 0;
    size_t entries = 0, e;
    ints *v = NULL;
    long *w = NULL;
    mpz_ptr z = NULL;
    mpz_t t, t1, t2;
    int r, c, n, i, j, status = 0;

    (void)module;
    if (!PyArg_ParseTuple(args, "OO:products", &rows, &cols)
        || !(seqs[0] = PySequence_Fast(rows, "the rows must be a sequence"))
        || !(seqs[1] = PySequence_Fast(cols, "the columns must be a sequence")))
        goto release;
    r_size = PySequence_Fast_GET_SIZE(seqs[0]);
    c_size = PySequence_Fast_GET_SIZE(seqs[1]);
    if (r_size + c_size)
        n_size = PySequence_Size(r_size ? PySequence_Fast_GET_ITEM(seqs[0], 0)
                                        : PySequence_Fast_GET_ITEM(seqs[1], 0));
    if (n_size < 0)
        goto release;
    if (r_size > INT_MAX / 2 || c_size > INT_MAX / 2 || n_size > INT_MAX) {
        PyErr_SetString(PyExc_ValueError, "too many rows, columns or entries");
        goto release;
    }
    r = (int)r_size;
    c = (int)c_size;
    n = (int)n_size;
    entries = (size_t)(r + c) * n;
    v = PyMem_New(ints, r + c);
    w = PyMem_New(long, entries);
    z = PyMem_New(__mpz_struct, entries);
    if (!v || !w || !z) {
        PyErr_NoMemory();
        goto free;
    }
    for (e = 0; e < entries; e++)
        mpz_init(z + e);
    mpz_inits(t, t1, t2, NULL);

    for (i = 0; !status && i < r + c; i++) {
        if (!(seq = PySequence_Fast(i < r ? PySequence_Fast_GET_ITEM(seqs[0], i)
                                          : PySequence_Fast_GET_ITEM(seqs[1], i - r),
                                    "a vector must be a sequence"))) {
            status = -1;
            break;
        }
        v[i].w = w + (size_t)i * n;
        v[i].z = z + (size_t)i * n;
        if (PySequence_Fast_GET_SIZE(seq) != n) {
            PyErr_SetString(PyExc_ValueError, "the rows and the columns must share one length");
            status = -1;
        } else
            status = read_ints(v + i, PySequence_Fast_ITEMS(seq), n);
        Py_DECREF(seq);
    }
    if (!status && (out = PyList_New(r)))
        for (i = 0; out && i < r; i++) {
            if (!(line = PyList_New(c))) {
                Py_CLEAR(out);
                break;
            }
            PyList_SET_ITEM(out, i, line);
            for (j = 0; j < c; j++) {
                dot(t, v + i, v + r + j, NULL, n, t1, t2);
                if (!(x = new_int(t))) {
                    Py_CLEAR(out);
                    break;
                }
                PyList_SET_ITEM(line, j, x);
            }
        }

    mpz_clears(t, t1, t2, NULL);
    for (e = 0; e < entries; e++)
        mpz_clear(z + e);
free:
    PyMem_Free(v);
    PyMem_Free(w);
    PyMem_Free(z);
release:
    Py_XDECREF(seqs[0]);
    Py_XDECREF(seqs[1]);
    return out;
}

static PyMethodDef methods[] = {
    {"reduce", lll_reduce, METH_VARARGS,
     "reduce(cols, p, q, prefix, start=None) -> (status, value): the LLL loop over GMP."},
    {"sweep", lll_sweep, METH_VARARGS,
     "sweep(cols, d, lam, target, step) -> list: reduction._sweep over GMP."},
    {"products", lll_products, METH_VARARGS,
     "products(rows, cols) -> list: intmat._products over GMP."},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef_Slot slots[] = {{0, NULL}};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_lll",
    .m_doc = "lattice._python_reduce, reduction._sweep and intmat._products over GMP; "
             "lattice.py loads them.",
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC PyInit__lll(void)
{
    return PyModuleDef_Init(&module);
}
