/* Exact LLL over GMP, the kernel sweep that follows it and the exact integer
 * products around them: lattice._python_reduce, lattice._python_sweep and
 * lattice._python_products, run on machine words and mpz_t, as the CPython
 * extension module knapcrack._lll.
 *
 * Its first entry, reduce, is the same Cohen integral LLL (Alg. 2.6.7) as the
 * Python loop, step for step: the same k_max first visits, the same
 * zero-prefix skip of the inner products (gso_row), the same nearest integer
 * ceil(q - 1/2), the same Lovasz test against alpha = p/q and the same
 * exchange update of rows k+1..k_max.  Both loops compute one function of their
 * input, bit for bit, and raise at the same column.  Both run on plain integer
 * columns; here a column's entries are C longs while they fit in one
 * (Columns, below).  Its second entry, sweep, is lattice._python_sweep
 * (Sweep, below), and its third, products, is lattice._python_products
 * (Products, below).
 *
 * Columns.  A column is an ints: its dim entries as C longs, or, where one of
 * them is not a long, all of them as mpz_t, the column being wide.  It is the
 * one vector format of the file: the loop's columns, the sweep's columns and
 * target and the rows and columns of products are ints, and one set of
 * functions allocates them, in one block of their ints, words and mpz_t
 * (new_vectors), reads them (read_vectors), writes one back as ints
 * (write_ints) and frees them (free_vectors).  A size reduction, column k -=
 * gamma column j, is one loop over the entries in long under
 * __builtin_*_overflow (sub_column).  At the first entry where a product or a
 * difference overflows, the column is widened, with the entries before it
 * updated and the rest not, and GMP carries the update on from that entry;
 * after an update in GMP, the column goes back to words where every entry fits
 * in a long again.  An exchange swaps the two columns' pointers.  A first visit
 * reads the input column's inner products with columns 0..k-1 (dot) only at
 * its nonzero coordinates, m + 1 of them for an [I; N A] basis, in __int128
 * where both columns are words, and writes the exact sum as a word or two
 * limbs (set_int128).  The input columns are the loop's columns until they are
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
 * left.  The four other quotients are exact: the new d[k] of an exchange, num /
 * d[k], is the Gram determinant of the exchanged columns 0..k-1; its two row
 * updates return lam[i][k] and lam[i][k-1] of the exchanged basis, lam = mu
 * d[j+1] being a minor of the integral Gram matrix; and after step i of
 * gso_row's recurrence u is d[i+1] times the inner product of two columns
 * projected orthogonally to columns 0..i, the Gram determinant of columns 0..i
 * bordered by the two, so an integer.  On an exact quotient a floor and an
 * exact division agree.
 *
 * An exact quotient needs no division (Jebelean, "An algorithm for exact
 * division", J. Symbolic Computation 1993).  Where den = 2^z o with o odd
 * divides N, N modulo 2^128 shifted right by z is q o modulo 2^(128 - z), and
 * times the inverse of o modulo 2^128 it is q modulo 2^(128 - z), which
 * sign-extends to q where |q| < 2^(127 - z).  So the three quotients of
 * cross_quotient, the row updates and gso_row's step, take three paths: the
 * word path (Machine words); else two_limb_quotient, where the five operands
 * are below 2^127 in absolute value and their bit lengths put q below 2^(125
 * - z), two bits inside what it needs: with top the larger bit length of the
 * two products, |N| < 2^(top + 1) and den >= 2^(bits(den) - 1), so the test is
 * top + 2 - bits(den) <= 125 - z; else mpz_divexact.  A divisor's z and
 * inverse (set_divisor) serve every quotient by it: the exchange reads d[k]
 * and d[k+1] once each, at the first of its rows that needs one (Granlund and
 * Montgomery, "Division by invariant integers using multiplication", PLDI
 * 1994), and gso_row, whose divisor changes at each step, once per quotient;
 * a variant that read every divisor of a row up front and dropped the word
 * path made lattice_scan and dag_rescue 8-10% slower.  The divisors are Gram
 * determinants, so positive; one that is not in [1, 2^127) leaves its
 * quotients to GMP.  The exchange's new d[k] stays mpz_divexact: it is one
 * quotient per exchange, and it is what the falling-d check (Termination)
 * tests, which is there for a wrong state, where num need not be a multiple
 * of d[k] and a modular quotient is any residue the check could pass.
 *
 * Machine words.  The entries of d and lam are mostly one limb (at the
 * exchanges of a lattice_scan pass, 68% of d[k] and 69% of the lam the row
 * update reads), so GMP's cost there is its calls, not its arithmetic.  word()
 * reads an mpz_t as a long when |z| <= LONG_MAX, and four steps compute in
 * words when their operands are ones: the Lovasz test (lovasz_fails), the size
 * reduction's test, rounding and lam updates (size_reduce, round_nearest,
 * sub_multiple), and the quotients of the exchange and of gso_row
 * (cross_quotient).  Each does its arithmetic in __int128, where a product of
 * two longs and a sum of two such products are exact, or in long under
 * __builtin_*_overflow, and writes a result with mpz_set_si only when it fits
 * in a long; otherwise the step runs in GMP for that value, but for the
 * quotients, which try a two-limb path first (Division).  At [I; N A] scale
 * an operand of a quotient is often past a long and within two limbs
 * (two_limbs reads such an mpz_t as an __int128): of the 2.83 M quotients of
 * a kernel_geometry pass, 1.72 M leave the word path, and 65 K of those go on
 * to GMP.  d and lam are stored as mpz_t, and every value and decision is the
 * one GMP would compute.
 * The build needs __int128 (GCC or Clang on a 64-bit target) and stops with
 * #error without it, so the Python loop runs.
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
 * Crossing.  Every int that enters, p and q, a start's d and lam, the sweep's
 * d and lam and each entry of a column, row or target, crosses through two
 * functions.  read_word checks that it is an int and reads it through a C long
 * where it fits one.  read_int stores it: into an mpz_t of its own, or, where
 * it is given a limb, as a read-only view of that limb where it is a word.  An
 * int past a long is read through its own hex text (read_text) either way.  An
 * mpz_t is written through a long where word() reads it as one, and through
 * GMP's base-16 text otherwise, so LONG_MIN, which word() excludes, is read as
 * a word and written as text.  Vectors are read as ints by read_vectors, each
 * entry through read_word into the words or, where one is past a long, all of
 * them through read_int into the mpz_t, and written back by write_ints, a word
 * vector's entries through a long, LONG_MIN among them: the loop's columns,
 * and the sweep's target.  d and lam cross through read_gso: a start's, which
 * the loop writes, into mpz_t of its own, and the sweep's as views (Sweep).
 * Only an int past a long crosses as text: a traced dag_rescue pass spent
 * 0.176 s in LLL against 0.251 s in the ctypes library this module replaced,
 * which built without the Python headers but passed every entry as hex text
 * (one lane, medians of 7 runs).  The loop runs with the interpreter's lock
 * released, between reading its input and building its output, and touches no
 * Python object there.
 *
 * Sweep.  sweep(cols, d, lam, target, step) is lattice._python_sweep, Babai's
 * nearest-plane rounding of target against the kernel basis D, whose s columns
 * are cols and whose integral Gram-Schmidt is (d, lam), as LLL left it for
 * decompose.  It runs on the loop's own state, of s + 1 columns: D's, and the
 * target as column s, whose lam row s is the target's row lam_t.  visit takes
 * the target's inner products with the columns and extends them to lam_t with
 * gso_row, as at a first visit, stopped before the norm entry; then babai
 * picks q_j = step round_nearest(lam_t[j], step d[j+1]) from the last column
 * down, clears each from lam_t with sub_multiple and takes q_j D_j off the
 * target with sub_column, a size reduction of column s.  So its rounding, its
 * exact quotients, its vector update and their word paths are the loop's own,
 * written once, and the target is written back as the loop's columns are.  On
 * the desk DAG kernels the running target stays inside a long (at most 25 bits
 * in 1750 updates of 96 sweeps, n = 16 and 20); at paper scale it starts past
 * one (66 to 109 bits at n = 60 and 100), and its updates run in GMP until it
 * narrows, as a wide column's do.  The sweep only reads d and lam rows 0..s-1,
 * so the state holds them as read-only views of one limb where they are words
 * (read_int, given the limb by read_gso), its first views entries, rather than
 * as mpz_t of their own: reading them into owned mpz_t costs an allocation and
 * a free per entry, and took 25.7 us per call against 16.5 us on the desk
 * sweeps (best of 45 per call, one core of a 2-core x86 VM).  Only lam_t is
 * owned.  A traced dag_rescue pass (seed 941, one lane, medians of 14 runs)
 * spends 0.026 s in its 268 sweeps, against 0.069 s with the Python twin.  The
 * half shift of reduce_half, 2x - 1 and its undoing, stays in Python.  The
 * sweep holds the interpreter's lock: it is short, and it reads Python objects
 * until it has its input.
 *
 * Products.  products(rows, cols) is lattice._python_products: the exact inner
 * product of every row with every column, out[i][j] = <rows[i], cols[j]>, for
 * the Gram matrix of the kernel features (intmat.gram) and the decomposition's
 * contract, A (D | C) = (0 | E) in one call (formulations).  Its rows and columns are ints,
 * allocated and read as the loop's columns are (new_vectors, read_vectors),
 * each once, however many products it enters; each product is the first visit's
 * dot, in __int128 under overflow checks where both vectors are words, in GMP
 * otherwise, and each result is written with new_int.  The lengths are checked
 * here too, with a ValueError, and intmat checks them first, with its own
 * DimensionMismatch, before either twin runs (the Python twin would zip a
 * ragged input short).  Like the sweep, it holds the interpreter's lock.  The
 * Gram matrix of a kernel_geometry kernel (31 columns of 34 entries) takes 78
 * us here against 845 us in Python (best of 7 x 200 calls, a 2-core x86 VM);
 * the particular solution's C y (formulations.special_solution) stays in
 * Python, where a call here would cost more than it saves.
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

/* A column of the LLL loop or of the sweep, or a vector of products (header:
 * Columns): its entries as words in w, or, where one of them is not a word,
 * all of them in z, with wide set.  new_vectors allocates them. */
typedef struct {
    long *w;
    mpz_ptr z;
    int wide;
} ints;

/* The state of the LLL loop and of the sweep (header: Sweep).  cols holds the
 * n columns of dim entries: for reduce, the input ones until they are first
 * visited and at exit the reduced ones; for the sweep, the kernel's and then
 * the target, as column n - 1.  d points at d[0..n] and lam[i] at row i of lam
 * (entries 0..i-1 in use), n entries each, which follow d in one block;
 * swapping two columns or two rows swaps pointers.  The first views entries
 * of that block are read-only views of their limbs (read_int, through
 * read_gso), the sweep's d and kernel rows, and the others are owned.
 * exchanges counts the exchanges against budget (header: Termination). */
typedef struct {
    int n, dim;
    unsigned long exchanges, budget;
    ints *cols;
    mpz_ptr *lam, d;
    mp_limb_t *limbs;
    size_t views;
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

/* z = mag, negated where negative: through a long where it fits one, else
 * into two limbs, which mpz_limbs_finish trims to the ones in use. */
static void set_int128(mpz_ptr z, unsigned __int128 mag, int negative)
{
    mp_ptr limb;

    if (mag <= LONG_MAX) {
        mpz_set_si(z, negative ? -(long)mag : (long)mag);
        return;
    }
    limb = mpz_limbs_write(z, 2);
    limb[0] = (mp_limb_t)mag;
    limb[1] = (mp_limb_t)(mag >> 64);
    mpz_limbs_finish(z, negative ? -2 : 2);
}

/* The bit length of x, 0 for x = 0. */
static inline int bit_length(unsigned __int128 x)
{
    unsigned long high = (unsigned long)(x >> 64), low = (unsigned long)x;

    return high ? 128 - __builtin_clzl(high) : low ? 64 - __builtin_clzl(low) : 0;
}

/* *v = z and returns its bit length where |z| < 2^127, else -1 (header:
 * Machine words).  mpz_getlimbn reads a limb past z's size as 0. */
static inline int two_limbs(mpz_srcptr z, __int128 *v)
{
    unsigned __int128 mag;

    if (mpz_size(z) > 2)
        return -1;
    mag = (unsigned __int128)mpz_getlimbn(z, 1) << 64 | mpz_getlimbn(z, 0);
    if (mag >> 127)
        return -1;
    *v = mpz_sgn(z) < 0 ? -(__int128)mag : (__int128)mag;
    return bit_length(mag);
}

/* A divisor of the two-limb quotient (header: Division): its bit length, its
 * count z of trailing zero bits and the inverse of its odd part modulo
 * 2^128.  bits is 0 until set_divisor has read the divisor, and -1 where it is
 * not in [1, 2^127). */
typedef struct {
    int bits, z;
    unsigned __int128 inv;
} divisor;

/* dv = den's bit length, trailing zeros and odd part's inverse.  The
 * inverse is Newton's x (2 - o x), which doubles the low bits that are right:
 * (3 o) xor 2 is o's inverse modulo 2^5, four steps in a long give 64 bits and
 * one in __int128 the 128. */
static void set_divisor(divisor *dv, mpz_srcptr den)
{
    __int128 v;
    unsigned __int128 odd;
    unsigned long low, x;
    int i;

    dv->bits = two_limbs(den, &v);
    if (dv->bits < 0 || v <= 0) {
        dv->bits = -1;
        return;
    }
    low = (unsigned long)v;
    dv->z = low ? __builtin_ctzl(low) : 64 + __builtin_ctzl((unsigned long)(v >> 64));
    odd = (unsigned __int128)v >> dv->z;
    low = (unsigned long)odd;
    x = (3 * low) ^ 2;
    for (i = 0; i < 4; i++)
        x *= 2 - low * x;
    dv->inv = x * (2 - odd * x);
}

/* out = (a b + sign c e) / den in two limbs, where a, b, c, e and den, whose
 * divisor dv is, are below 2^127 in absolute value and their bit lengths put
 * the quotient below 2^(125 - z) (header: Division); returns whether it is.
 * The numerator modulo 2^128, shifted right by z, times the inverse of den's
 * odd part is the quotient modulo 2^(128 - z), which sign-extends to it.  The
 * conversion to __int128 and its right shift are GCC's and Clang's: modulo
 * 2^128 and arithmetic. */
static __attribute__((noinline)) int two_limb_quotient(mpz_ptr out, mpz_srcptr a, mpz_srcptr b,
                                                       int sign, mpz_srcptr c, mpz_srcptr e,
                                                       mpz_srcptr den, divisor *dv)
{
    __int128 va = 0, vb = 0, vc = 0, ve = 0, q;
    unsigned __int128 num, cross;
    int la = two_limbs(a, &va), lb = two_limbs(b, &vb), lc = two_limbs(c, &vc),
        le = two_limbs(e, &ve), top;

    if (la < 0 || lb < 0 || lc < 0 || le < 0)
        return 0;
    if (!dv->bits)
        set_divisor(dv, den);
    top = la + lb > lc + le ? la + lb : lc + le;
    /* |num| < 2^(top + 1) and den >= 2^(bits - 1) */
    if (dv->bits < 0 || top + 2 - dv->bits > 125 - dv->z)
        return 0;
    num = (unsigned __int128)va * (unsigned __int128)vb;
    cross = (unsigned __int128)vc * (unsigned __int128)ve;
    num = sign > 0 ? num + cross : num - cross;
    q = (__int128)(((num >> dv->z) * dv->inv) << dv->z) >> dv->z;
    set_int128(out, q < 0 ? -(unsigned __int128)q : (unsigned __int128)q, q < 0);
    return 1;
}

/* out = (a b + sign c e) / den with sign +1 or -1, where the quotient is known
 * to be exact (header).  When the five operands are words the numerator is
 * exact in __int128, each product being below 2^126 in absolute value, and the
 * quotient is written as a word where it fits one; otherwise two_limb_quotient
 * computes it where it can, with den's divisor dv, and GMP where it cannot,
 * with t, which is none of the others, as scratch. */
static inline void cross_quotient(mpz_ptr out, mpz_srcptr a, mpz_srcptr b, int sign,
                                  mpz_srcptr c, mpz_srcptr e, mpz_srcptr den, divisor *dv,
                                  mpz_ptr t)
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
    if (two_limb_quotient(out, a, b, sign, c, e, den, dv))
        return;
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
 * sum overflows, written with set_int128; otherwise in GMP, with t1 and t2 as
 * scratch.  A product of two longs is at most 2^126 in absolute value, so only
 * the sums need a check. */
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
        if (i == len) {
            set_int128(out, acc < 0 ? -(unsigned __int128)acc : (unsigned __int128)acc, acc < 0);
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
    divisor dv;
    int z, j, i;

    for (z = 0; z < k && !mpz_sgn(row + z); z++)
        ;
    for (j = z; j < len; j++) {
        u = j < k ? row + j : d + k + 1;
        lj = j < k ? lam[j] : row;
        mpz_mul(u, u, d + z);
        for (i = z; i < j; i++) {
            dv.bits = 0;
            cross_quotient(u, d + i + 1, u, -1, row + i, lj + i, d + i, &dv, t);
        }
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

/* Row k of the GSO (lattice._visit), of column k at its first visit or of the
 * sweep's target: its inner products with columns 0..k-1 into lam[k] and,
 * with len = k + 1, its squared norm into d[k+1], read only at its nonzero
 * coordinates, then gso_row.  Returns nonzero where len = k + 1 and column k
 * depends on columns 0..k-1. */
static int visit(state *s, int k, int len)
{
    const ints *ck = s->cols + k;
    int nnz = nonzero(ck, s->dim, s->nz), j;

    for (j = 0; j < k; j++)
        dot(s->lam[k] + j, ck, s->cols + j, s->nz, nnz, s->t1, s->t2);
    if (len > k)
        dot(s->d + k + 1, ck, ck, s->nz, nnz, s->t1, s->t2);
    gso_row(s->lam, s->d, k, len, s->t1);
    return len > k && !mpz_sgn(s->d + k + 1);
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
    divisor dk = {0, 0, 0}, dk1 = {0, 0, 0};
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
        cross_quotient(li + k, d + k + 1, li + k - 1, -1, lkk, s->t, d + k, &dk, s->t1);
        cross_quotient(li + k - 1, s->dnew, s->t, 1, lkk, li + k, d + k + 1, &dk1, s->t1);
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
            if (visit(s, k, k + 1)) {
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

/* lattice._python_sweep (header: Sweep): the target, column k = n - 1, gets its
 * row lam_t = lam[k] without the norm entry; then from the last kernel column
 * down, q = step round_nearest(lam_t[j], step d[j+1]) is cleared from lam_t
 * and q times column j taken off the target. */
static void babai(state *s, unsigned long step)
{
    int k = s->n - 1, j;

    visit(s, k, k);
    for (j = k - 1; j >= 0; j--) {
        mpz_mul_ui(s->t, s->d + j + 1, step);
        round_nearest(s->gamma, s->lam[k] + j, s->t, s->t1, s->t2);
        if (!mpz_sgn(s->gamma))
            continue;
        mpz_mul_ui(s->gamma, s->gamma, step);
        sub_multiple(s->lam[k], s->lam[j], j, s->gamma);
        sub_column(s->cols + k, s->cols + j, s->dim, s->gamma);
    }
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
            bits = bit_length(norm);
        }
        if (__builtin_mul_overflow(bits, (unsigned long)(s->n - i), &bits)
            || __builtin_add_overflow(sum, bits, &sum))
            sum = ULONG_MAX;
    }
    set_int128(s->t, top, 0);
    if (mpz_cmp(s->t, s->bound) > 0)
        mpz_set(s->bound, s->t);
    mpz_set_ui(s->t2, sum);
    mpz_mul(s->t2, s->t2, s->q);
    mpz_sub(s->t1, s->q, s->p);
    mpz_fdiv_q(s->t2, s->t2, s->t1);
    s->budget = mpz_fits_ulong_p(s->t2) ? mpz_get_ui(s->t2) : ULONG_MAX;
    s->exchanges = 0;
}


/* *v = the int obj where it is a word: returns 0 where it is, 1 where obj is an
 * int past a long, and -1 with an exception set, a TypeError where obj is not
 * an int.  It reads every entry that enters, and is inline, as word() is:
 * called, it made LO's resumed tails at n = 30 1.2-3.1% and the desk sweeps
 * 3.2-5.2% slower (best of 100 per call, one core of a 2-core x86 VM). */
static inline int read_word(PyObject *obj, long *v)
{
    int overflow;

    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "an entry must be an int, not %.100s", Py_TYPE(obj)->tp_name);
        return -1;
    }
    *v = PyLong_AsLongAndOverflow(obj, &overflow);
    if (*v == -1 && PyErr_Occurred())
        return -1;
    return overflow != 0;
}

/* z = the int obj through its hex text (header: Crossing); returns -1 with an
 * exception set where it is not read. */
static int read_text(mpz_ptr z, PyObject *obj)
{
    PyObject *text = PyNumber_ToBase(obj, 16);
    const char *digits = text ? PyUnicode_AsUTF8(text) : NULL;
    int status = digits ? mpz_set_str(z, digits, 0) : -1;

    if (digits && status)
        PyErr_Format(PyExc_ValueError, "GMP cannot read %.100s", digits);
    Py_XDECREF(text);
    return status;
}

/* z = the int obj (header: Crossing).  Where limb is NULL, z is an mpz_t of
 * its own.  Otherwise z is a view on entry, and only clear_view may clear it:
 * a word becomes a read-only view of *limb (mpz_roinit_n), so that reading it
 * allocates nothing, and an int past a long an mpz_t initialised here.
 * Returns -1 with an exception set, a TypeError where obj is not an int. */
static int read_int(mpz_ptr z, mp_limb_t *limb, PyObject *obj)
{
    long v;
    int status = read_word(obj, &v);

    if (status < 0)
        return -1;
    if (status) {
        if (limb)
            mpz_init(z);
        return read_text(z, obj);
    }
    if (!limb) {
        mpz_set_si(z, v);
        return 0;
    }
    *limb = v < 0 ? -(mp_limb_t)v : (mp_limb_t)v;
    mpz_roinit_n(z, limb, v < 0 ? -1 : v > 0);
    return 0;
}

/* Clears z unless it is a view of limb (read_int). */
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

/* count vectors of dim entries in one block: their ints, then their words,
 * then their mpz_t, initialised; NULL with MemoryError where it cannot be
 * allocated.  free_vectors frees them. */
static ints *new_vectors(int count, int dim)
{
    size_t entries = (size_t)count * dim, e;
    ints *v = NULL;
    long *w;
    mpz_ptr z;
    int i;

    if (entries <= PY_SSIZE_T_MAX / 64)
        v = PyMem_Malloc(count * sizeof(ints) + entries * (sizeof(long) + sizeof(__mpz_struct)));
    if (!v) {
        PyErr_NoMemory();
        return NULL;
    }
    w = (long *)(v + count);
    z = (mpz_ptr)(w + entries);
    for (e = 0; e < entries; e++)
        mpz_init(z + e);
    for (i = 0; i < count; i++) {
        v[i].w = w + (size_t)i * dim;
        v[i].z = z + (size_t)i * dim;
    }
    return v;
}

/* Frees the count vectors of dim entries of new_vectors, in whatever order
 * their ints now are. */
static void free_vectors(ints *v, int count, int dim)
{
    size_t entries = (size_t)count * dim, e;
    mpz_ptr z = (mpz_ptr)((long *)(v + count) + entries);

    for (e = 0; e < entries; e++)
        mpz_clear(z + e);
    PyMem_Free(v);
}

/* The count sequences items[0..count-1] of dim ints into v: each through its
 * words, or, where one of its ints is not a long, all of them through read_int
 * (header: Crossing).  Returns -1 with an exception set where one is not read,
 * a TypeError where it is not an int and a ValueError where a sequence's
 * length is not dim. */
static int read_vectors(ints *v, PyObject *const *items, int count, int dim)
{
    PyObject *seq, **item;
    int i, r, wide, status = 0;

    for (i = 0; !status && i < count; i++) {
        if (!(seq = PySequence_Fast(items[i], "a vector must be a sequence")))
            return -1;
        item = PySequence_Fast_ITEMS(seq);
        wide = 0;
        if (PySequence_Fast_GET_SIZE(seq) != dim) {
            PyErr_SetString(PyExc_ValueError, "the vectors must share one length");
            wide = -1;
        }
        /* wide is 1 once an entry is past a long, and -1, which absorbs both
         * other results of read_word, once one is not read. */
        for (r = 0; wide >= 0 && r < dim; r++)
            wide |= read_word(item[r], v[i].w + r);
        v[i].wide = wide > 0;
        status = wide < 0 ? -1 : 0;
        for (r = 0; !status && wide && r < dim; r++)
            status = read_int(v[i].z + r, NULL, item[r]);
        Py_DECREF(seq);
    }
    return status;
}

/* The dim entries of v as a new list or tuple of ints, as make (PyList_New or
 * PyTuple_New) makes it (header: Crossing), or NULL with an exception set. */
static PyObject *write_ints(const ints *v, int dim, PyObject *(*make)(Py_ssize_t))
{
    PyObject *out = make(dim), **items;
    int r;

    if (!out)
        return NULL;
    items = PySequence_Fast_ITEMS(out);
    for (r = 0; r < dim; r++)
        if (!(items[r] = v->wide ? new_int(v->z + r) : PyLong_FromLong(v->w[r]))) {
            Py_DECREF(out);
            return NULL;
        }
    return out;
}

/* A state of n columns of dim entries (new_vectors), with one block for
 * d[0..n], the n lam rows of n entries, the limbs of the first views of those,
 * the row pointers and nz.  The first views entries start as zero views of
 * their limbs, the others owned.  Returns -1 with MemoryError where it cannot
 * be allocated; free_state frees it. */
static int new_state(state *s, int n, int dim, size_t views)
{
    size_t total = (size_t)n * n + n + 1, e;
    int i;

    s->n = n;
    s->dim = dim;
    s->views = views;
    if (!(s->cols = new_vectors(n, dim)))
        return -1;
    s->d = total <= PY_SSIZE_T_MAX / 64
           ? PyMem_Malloc(total * sizeof(__mpz_struct) + views * sizeof(mp_limb_t)
                          + n * sizeof(mpz_ptr) + dim * sizeof(int))
           : NULL;
    if (!s->d) {
        free_vectors(s->cols, n, dim);
        PyErr_NoMemory();
        return -1;
    }
    s->limbs = (mp_limb_t *)(s->d + total);
    s->lam = (mpz_ptr *)(s->limbs + views);
    s->nz = (int *)(s->lam + n);
    for (e = 0; e < views; e++)
        mpz_roinit_n(s->d + e, s->limbs + e, 0);
    for (; e < total; e++)
        mpz_init(s->d + e);
    for (i = 0; i < n; i++)
        s->lam[i] = s->d + n + 1 + (size_t)i * n;
    mpz_inits(s->p, s->q, s->bound, s->gamma, s->num, s->dnew, s->t, s->t1, s->t2, NULL);
    return 0;
}

/* Frees a state of new_state, clearing every entry but a view (clear_view). */
static void free_state(state *s)
{
    size_t total = (size_t)s->n * s->n + s->n + 1, e;

    mpz_clears(s->p, s->q, s->bound, s->gamma, s->num, s->dnew, s->t, s->t1, s->t2, NULL);
    for (e = 0; e < s->views; e++)
        clear_view(s->d + e, s->limbs + e);
    for (; e < total; e++)
        mpz_clear(s->d + e);
    PyMem_Free(s->d);
    free_vectors(s->cols, s->n, s->dim);
}

/* d[0..r] and lam rows 0..r-1 from the sequences d and lam, a start's (header:
 * Resume) or the sweep's kernel's (header: Sweep), through read_int: as views
 * where they are among the state's first views entries, as mpz_t of their own
 * past them.  Returns -1 with an exception set where they do not have that
 * shape, an entry is not an int or a d is not positive. */
static int read_gso(state *s, PyObject *d, PyObject *lam, int r)
{
    PyObject *row;
    size_t e;
    int i, j, status = 0;

    for (i = 0; !status && i <= r; i++) {
        status = read_int(s->d + i, (size_t)i < s->views ? s->limbs + i : NULL,
                          PySequence_Fast_GET_ITEM(d, i));
        if (!status && mpz_sgn(s->d + i) <= 0) {
            PyErr_SetString(PyExc_ValueError, "d must be positive");
            status = -1;
        }
    }
    for (i = 0; !status && i < r; i++) {
        if (!(row = PySequence_Fast(PySequence_Fast_GET_ITEM(lam, i),
                                    "a lam row must be a sequence")))
            return -1;
        if (PySequence_Fast_GET_SIZE(row) != i) {
            PyErr_SetString(PyExc_ValueError, "lam row i must have i entries");
            status = -1;
        }
        for (j = 0; !status && j < i; j++) {
            e = (size_t)(s->lam[i] + j - s->d);
            status = read_int(s->lam[i] + j, e < s->views ? s->limbs + e : NULL,
                              PySequence_Fast_GET_ITEM(row, j));
        }
        Py_DECREF(row);
    }
    return status;
}

/* (columns, d, lam) for the prefix k (header: Output), or NULL with an
 * exception set. */
static PyObject *output(state *s, int k)
{
    PyObject *cols = PyTuple_New(s->n), *d = PyList_New(k + 1), *lam = PyList_New(k), *seq, *x;
    int i, j;

    if (!cols || !d || !lam)
        goto fail;
    for (i = 0; i < s->n; i++) {
        if (!(seq = write_ints(s->cols + i, s->dim, PyTuple_New)))
            goto fail;
        PyTuple_SET_ITEM(cols, i, seq);
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
    state s;
    int prefix, where = 0, status = LLL_OK, i;

    (void)module;
    if (!PyArg_ParseTuple(args, "OOOi|O:reduce", &cols, &p, &q, &prefix, &start)
        || !(seq = PySequence_Fast(cols, "the columns must be a sequence")))
        return NULL;
    n = PySequence_Fast_GET_SIZE(seq);
    dim = n ? PySequence_Size(PySequence_Fast_GET_ITEM(seq, 0)) : 0;
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
    if (new_state(&s, (int)n, (int)dim, 0))
        goto release;
    mpz_set_ui(s.d, 1);
    if (!read_vectors(s.cols, PySequence_Fast_ITEMS(seq), s.n, s.dim) && !read_int(s.p, NULL, p)
        && !read_int(s.q, NULL, q) && !(d && read_gso(&s, d, lam, (int)r))) {
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
    free_state(&s);
release:
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

/* sweep(cols, d, lam, target, step): lattice._python_sweep of target, a list or
 * tuple of n ints, against the s columns cols of D, lists or tuples of n
 * ints, whose integral Gram-Schmidt is d[0..s] and lam rows 0..s-1, with
 * step >= 1 (header: Sweep).  Returns target - D q as a list of n ints.  An
 * entry that is not an int raises TypeError; shapes that do not match raise
 * ValueError. */
static PyObject *lll_sweep(PyObject *module, PyObject *args)
{
    PyObject *cols, *d, *lam, *target, *out = NULL;
    PyObject *seqs[4] = {NULL, NULL, NULL, NULL};
    Py_ssize_t s_size, n_size;
    state s;
    int step, k, j;

    (void)module;
    if (!PyArg_ParseTuple(args, "OOOOi:sweep", &cols, &d, &lam, &target, &step)
        || !(seqs[0] = PySequence_Fast(cols, "the columns must be a sequence"))
        || !(seqs[1] = PySequence_Fast(d, "d must be a sequence"))
        || !(seqs[2] = PySequence_Fast(lam, "lam must be a sequence"))
        || !(seqs[3] = PySequence_Fast(target, "the target must be a sequence")))
        goto release;
    s_size = PySequence_Fast_GET_SIZE(seqs[0]);
    n_size = PySequence_Fast_GET_SIZE(seqs[3]);
    if (s_size >= INT_MAX || n_size < 1 || n_size > INT_MAX
        || PySequence_Fast_GET_SIZE(seqs[1]) <= s_size
        || PySequence_Fast_GET_SIZE(seqs[2]) < s_size || step < 1) {
        PyErr_SetString(PyExc_ValueError, "sweep takes s columns, d[0..s], lam rows "
                                          "0..s-1, a target of n >= 1 entries and a step >= 1");
        goto release;
    }
    /* The target is column k = s.  d[0..k+1] and lam rows 0..k-1, the
     * k + 2 + k (k + 1) entries before lam_t in the state's block, are views. */
    k = (int)s_size;
    if (new_state(&s, k + 1, (int)n_size, (size_t)(k + 2) + (size_t)k * (k + 1)))
        goto release;
    if (!read_vectors(s.cols, PySequence_Fast_ITEMS(seqs[0]), k, s.dim)
        && !read_vectors(s.cols + k, seqs + 3, 1, s.dim) && !read_gso(&s, seqs[1], seqs[2], k)) {
        babai(&s, (unsigned long)step);
        out = write_ints(s.cols + k, s.dim, PyList_New);
    }
    free_state(&s);
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
    PyObject *rows, *cols, *out = NULL, *line, *x;
    PyObject *seqs[2] = {NULL, NULL};
    Py_ssize_t r_size, c_size, n_size = 0;
    ints *v;
    mpz_t t, t1, t2;
    int r, c, n, i, j;

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
    if (!(v = new_vectors(r + c, n)))
        goto release;
    mpz_inits(t, t1, t2, NULL);
    if (!read_vectors(v, PySequence_Fast_ITEMS(seqs[0]), r, n)
        && !read_vectors(v + r, PySequence_Fast_ITEMS(seqs[1]), c, n) && (out = PyList_New(r)))
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
    free_vectors(v, r + c, n);
release:
    Py_XDECREF(seqs[0]);
    Py_XDECREF(seqs[1]);
    return out;
}

static PyMethodDef methods[] = {
    {"reduce", lll_reduce, METH_VARARGS,
     "reduce(cols, p, q, prefix, start=None) -> (status, value): the LLL loop over GMP."},
    {"sweep", lll_sweep, METH_VARARGS,
     "sweep(cols, d, lam, target, step) -> list: lattice._python_sweep over GMP."},
    {"products", lll_products, METH_VARARGS,
     "products(rows, cols) -> list: lattice._python_products over GMP."},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef_Slot slots[] = {{0, NULL}};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_lll",
    .m_doc = "lattice._python_reduce, lattice._python_sweep and "
             "lattice._python_products over GMP; lattice.py loads them.",
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC PyInit__lll(void)
{
    return PyModuleDef_Init(&module);
}
