/* Exact LLL over GMP, the kernel sweep that follows it and the exact integer
 * products around them: lattice._python_reduce, lattice._python_sweep and
 * lattice._python_products, run on machine words, __int128 and mpz_t, as the
 * CPython extension module knapcrack._lll.
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
 * functions allocates them, in one block of their ints, words and room for
 * their mpz_t (new_vectors), reads them (read_vectors), writes one back as ints
 * (write_ints) and frees them (free_vectors).  A vector's mpz_t are set up only
 * where it is wide, when it is read (read_vectors) or first widens (widen), and
 * only those are cleared: setting up and clearing every entry's cost 8% of a
 * desk sweep, and the sweep and products paid it per entry of every vector.  A size reduction, column k -=
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
 * quotient is not exact, and it is a truncating __int128 division moved to the
 * floor's nearest integer, or mpz_fdiv_q in GMP.  The four other quotients are
 * exact: the new d[k] of an exchange, num /
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
 * sign-extends to q where |q| < 2^(127 - z) (exact_quotient).  So the three
 * quotients of cross_quotient, the row updates and gso_row's step, take three
 * paths: the word path (Machine words); else two_limb_quotient, where the five
 * operands are below 2^127 in absolute value and their bit lengths put q below
 * 2^(125 - z), two bits inside what it needs: with top the larger bit length
 * of the two products, |N| < 2^(top + 1) and den >= 2^(bits(den) - 1), so the
 * test is top + 2 - bits(den) <= 125 - z; else mpz_divexact.  A divisor's z
 * and inverse (set_divisor) serve every quotient by it: the exchange reads
 * those of d[k] and d[k+1] once per exchange (Granlund and Montgomery,
 * "Division by invariant integers using multiplication", PLDI 1994), and
 * gso_row, whose divisor changes at each step, once per quotient; a variant
 * that read every divisor of a row up front and dropped the word path made
 * lattice_scan and dag_rescue 8-10% slower, and one that read gso_row's
 * divisors once per visit gained no more than the host's noise (0-5%).  The
 * exchange's rows whose operands are words do not go through cross_quotient: a
 * numerator of words is exact in __int128, each product being below 2^126, so
 * its quotient, below 2^127 / den <= 2^(127 - z), is exact_quotient of it, a
 * few multiplications where the word path divides an __int128 by a long.  The
 * second row update reads the first's result, so it runs there where that
 * result is a word.  The divisors are Gram determinants, so positive; one that
 * is not in [1, 2^127) leaves its quotients to GMP.  The exchange's new d[k]
 * is never a modular quotient: it is one quotient per exchange, and it is what
 * the falling-d check (Termination) tests, which is there for a wrong state,
 * where num need not be a multiple of d[k] and a modular quotient is any
 * residue the check could pass.  It is the __int128 division of num by d[k]
 * where both are inline, the floor the Python loop takes, and mpz_divexact
 * otherwise.
 *
 * Machine words.  d and lam live in cells (cell), as do the loop's scalars
 * (gamma, num, the new d[k]): a cell is an __int128 in the state's block, the
 * value itself where it lies within +-(2^127 - 1), the inline range, and
 * otherwise WIDE, -2^127, which no inline value takes, with the value in an
 * mpz_t at the cell's offset in a second block (own).  That mpz_t is set up
 * the first time its cell goes past the range (put) and kept, unused, while
 * the cell is inline again, so that a cell that crosses back and forth costs
 * no malloc and free per crossing; the block starts zeroed, and free_state
 * clears the ones that were set up.  So an inline operand is one load and an
 * inline result one store.  The entries are mostly one limb (at the exchanges
 * of a lattice_scan pass, 68% of d[k] and 69% of the lam the row update
 * reads), so the loop's cost there was reading and writing them: sampled over
 * lattice_scan's median ops when every entry was an mpz_t of its own, reading
 * one through its size field, its limb pointer and a limb on the heap (word())
 * was 10-12% of the samples, and writing one (mpz_set_si) 5.5-7.5%.
 *
 * Three steps compute in words where their operands are ones (|x| <=
 * LONG_MAX, is_word): the Lovasz test (lovasz_fails) and the quotients of the
 * exchange and of gso_row (exchange, cross_quotient).  Each does its
 * arithmetic in __int128, where a product of two longs and a sum of two such
 * products are exact, and stores its result, which is inline, as it is; where
 * the operands are inline but not all words, the quotients try two limbs
 * (Division).  The size reduction's test and rounding, the lam updates and
 * gso_row's first product (size_reduce, round_nearest, sub_multiple, mul_cell)
 * compute in __int128 wherever their operands are inline, under
 * __builtin_*_overflow and a test that the result is not WIDE; a path of
 * longs of their own measured no faster.  Only past those does a
 * step run in GMP: an inline operand is written into a scratch mpz_t
 * (set_int128, t1 or t2), and the result is read back into its cell (put),
 * inline where it is within the range (two_limbs).  At [I; N A] scale an
 * operand of a quotient is often past a long and within two limbs: of the
 * 2.83 M quotients of a kernel_geometry pass, 1.72 M leave the word path, and
 * 65 K of those go on to GMP.  set_int128, two_limbs and word(), which reads
 * p, q and the GMP results that leave as ints, read or write an mpz_t's size
 * field, _mp_size, and the limbs of _mp_d directly, the sign from the size as
 * gmp.h's own mpz_sgn macro reads it (GMP's manual, "Integer Internals",
 * describes both fields); set_int128 first gives its mpz_t room for two limbs
 * where it has less, as its library twins mpz_set_si and mpz_limbs_write cost
 * a call each.  Every value and decision is the one GMP would compute.  The
 * cells made the loop faster on the LLL calls of every workload than an mpz_t
 * per entry (benchmarks/kernel_ab.py, both builds in one process on one core;
 * its last run is benchmarks/BENCH_kernel_ab.json), and took the sweep's and
 * products' time on the desk DAG calls to x0.68 and x0.77 (products also by
 * new_vectors, above).
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
 * 0..r-1, which it reads into its own cells and so never writes.  Cohen's loop
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
 * d and lam and each entry of a column, row or target, is checked to be an int
 * and read through a C long where it fits one (read_word).  Past a long, a
 * column's entries and p and q are read into mpz_t through their hex text
 * (read_int, read_text), and a d or lam entry into its cell (read_cell):
 * through its two words, obj >> 64 and obj modulo 2^64, where it is within the
 * inline range, and through its hex text into the cell's mpz_t past it.  Out,
 * a cell is written through a long where it is a word, through its two words
 * where it is inline (new_int128) and through GMP's base-16 text past that
 * (new_int); an mpz_t is written through a long where word() reads it as one
 * and through its text otherwise, so LONG_MIN, which word() and is_word
 * exclude, is read as a word and written as two words or text.  Vectors are
 * read as ints by read_vectors, each entry through read_word into the words
 * or, where one is past a long, all of them through read_int into the mpz_t,
 * and written back by write_ints, a word vector's entries through a long,
 * LONG_MIN among them: the loop's columns, and the sweep's target.  d and lam
 * cross through read_gso, a start's and the sweep's alike, and output.
 * Only an int past the inline range, or a column entry past a long, crosses
 * as text: a traced dag_rescue pass spent 0.176 s in LLL against 0.251 s in
 * the ctypes library this module replaced, which built without the Python
 * headers but passed every entry as hex text (one lane, medians of 7 runs).  The loop runs with the interpreter's lock
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
 * narrows, as a wide column's do.  The kernel's d and lam rows 0..s-1 are
 * read into the state's cells as a start's are (read_gso): an entry within the
 * inline range allocates nothing.  Before the cells, the sweep read them as
 * read-only views of one limb, as an mpz_t of their own cost an allocation and
 * a free per entry (25.7 us per desk sweep against 16.5 us); a traced
 * dag_rescue pass (seed 941, one lane, medians of 14 runs) then spent 0.026 s
 * in its 268 sweeps, against 0.069 s with the Python twin.  The half shift of
 * reduce_half, 2x - 1 and its undoing, stays in Python.  The sweep holds the
 * interpreter's lock: it is short, and it reads Python objects until it has
 * its input.
 *
 * Products.  products(rows, cols) is lattice._python_products: the exact inner
 * product of every row with every column, out[i][j] = <rows[i], cols[j]>, for
 * the Gram matrix of the kernel features (intmat.gram) and the decomposition's
 * contract, A (D | C) = (0 | E) in one call (formulations).  Its rows and columns are ints,
 * allocated and read as the loop's columns are (new_vectors, read_vectors),
 * each once, however many products it enters; each product is the first visit's
 * dot, in __int128 under overflow checks where both vectors are words, in GMP
 * otherwise, and each result is written with new_int128 or new_int.  The
 * lengths are checked here too, with a ValueError, and intmat checks them
 * first, with its own DimensionMismatch, before either twin runs (the Python
 * twin would zip a ragged input short).  Like the sweep, it holds the interpreter's lock.  The
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
 * all of them in z, with wide set.  new_vectors allocates them, and z is set
 * up, with ready set, where the vector first widens. */
typedef struct {
    long *w;
    mpz_ptr z;
    int wide, ready;
} ints;

/* An entry of d or lam, or one of the state's scalars (header: Machine
 * words): its value where that is within +-(2^127 - 1), else WIDE, -2^127,
 * which no such value takes, the value being in the cell's mpz_t (own). */
typedef __int128 cell;
#define CELL_MAX ((cell)(~(unsigned __int128)0 >> 1))
#define WIDE (-CELL_MAX - 1)

/* The state of the LLL loop and of the sweep (header: Sweep).  cols holds the
 * n columns of dim entries: for reduce, the input ones until they are first
 * visited and at exit the reduced ones; for the sweep, the kernel's and then
 * the target, as column n - 1.  d points at d[0..n] and lam[i] at row i of lam
 * (entries 0..i-1 in use), n cells each, which follow d in one block, and the
 * scalar cells follow them: gamma, the size reduction's multiplier; num, the
 * Lovasz test's numerator; dnew, the exchange's new d[k]; old, a row entry the
 * exchange replaces; den and step, the sweep's divisor and step.  z holds the
 * mpz_t of every cell, at the cell's offset in the block, which is set up the
 * first time the cell goes past the inline range (put) and kept for its next
 * time while the cell is inline again; a struct of zeros is not set up.
 * Swapping two columns or two rows swaps pointers.  exchanges counts the
 * exchanges against budget (header: Termination); pw and qw are p and q where
 * small says both are words.  t, t1 and t2 are GMP's scratch: t for a result,
 * t1 and t2 for the operands that are inline. */
typedef struct {
    int n, dim, small;
    unsigned long exchanges, budget;
    long pw, qw;
    ints *cols;
    cell **lam, *d, *gamma, *num, *dnew, *old, *den, *step;
    __mpz_struct *z;
    int *nz;
    mpz_t p, q, bound, t, t1, t2;
} state;

enum { SCALARS = 6 };

/* *v = z when |z| <= LONG_MAX; returns whether it is.  It reads z's size once
 * and then only the limb that size names, the sign from the size as gmp.h's
 * mpz_sgn does (header: Machine words). */
static inline int word(mpz_srcptr z, long *v)
{
    int size = z->_mp_size;
    mp_limb_t low;

    if (size > 1 || size < -1)
        return 0;
    low = size ? z->_mp_d[0] : 0;
    if (low > (mp_limb_t)LONG_MAX)
        return 0;
    *v = size < 0 ? -(long)low : (long)low;
    return 1;
}

/* Whether |x| <= LONG_MAX, so that a product of two such and a sum of two
 * products are exact in __int128; WIDE is not. */
static inline int is_word(cell x)
{
    return (unsigned __int128)x + LONG_MAX <= 2 * (unsigned __int128)LONG_MAX;
}

/* |x| for an inline x. */
static inline unsigned __int128 magnitude(cell x)
{
    return x < 0 ? -(unsigned __int128)x : (unsigned __int128)x;
}

/* z = the inline value x, written into z's first two limbs and its size
 * (header: Machine words), z being given room for two limbs first where it
 * has less. */
static inline void set_int128(mpz_ptr z, cell x)
{
    unsigned __int128 mag = magnitude(x);
    mp_limb_t high = (mp_limb_t)(mag >> 64), low = (mp_limb_t)mag;
    int size = high ? 2 : low ? 1 : 0;

    if (z->_mp_alloc < 2)
        mpz_realloc2(z, 128);
    z->_mp_d[0] = low;
    z->_mp_d[1] = high;
    z->_mp_size = x < 0 ? -size : size;
}

/* *v = z and returns 1 where |z| <= 2^127 - 1, the inline range, else 0 (header:
 * Machine words).  Like word(), it reads z's size once and then only the
 * limbs that size names. */
static inline int two_limbs(mpz_srcptr z, cell *v)
{
    int size = z->_mp_size, len = size < 0 ? -size : size;
    const mp_limb_t *limb = z->_mp_d;
    unsigned __int128 mag;

    if (len > 2)
        return 0;
    mag = len == 2 ? (unsigned __int128)limb[1] << 64 | limb[0] : len ? limb[0] : 0;
    if (mag >> 127)
        return 0;
    *v = size < 0 ? -(cell)mag : (cell)mag;
    return 1;
}

/* The mpz_t of cell x, at x's offset in the state's block. */
static inline mpz_ptr own(const state *s, const cell *x)
{
    return s->z + (x - s->d);
}

/* x's value as an mpz_t: x's own where x is WIDE, else set into t. */
static inline mpz_srcptr as_mpz(const state *s, const cell *x, mpz_ptr t)
{
    if (*x == WIDE)
        return own(s, x);
    set_int128(t, *x);
    return t;
}

/* x = z, which may be x's own mpz_t: inline where z is within the inline
 * range (two_limbs), else in x's mpz_t, which takes z's fields, as mpz_swap
 * swaps them, and gives z its old ones, set up first where they are not. */
static void put(const state *s, cell *x, mpz_ptr z)
{
    mpz_ptr o = own(s, x);
    __mpz_struct old;

    if (two_limbs(z, x))
        return;
    *x = WIDE;
    if (o == z)
        return;
    if (!o->_mp_d)
        mpz_init(o);
    old = *o, *o = *z, *z = old;
}

/* Exchanges cells a and b with their mpz_t. */
static void swap_cells(const state *s, cell *a, cell *b)
{
    cell v = *a;
    __mpz_struct z = *own(s, a);

    *a = *b, *own(s, a) = *own(s, b);
    *b = v, *own(s, b) = z;
}

/* x = a b: in __int128 where both are inline and the product is, else in GMP. */
static void mul_cell(state *s, cell *x, const cell *a, const cell *b)
{
    cell va = *a, vb = *b, v;

    if (va != WIDE && vb != WIDE && !__builtin_mul_overflow(va, vb, &v) && v != WIDE) {
        *x = v;
        return;
    }
    mpz_mul(s->t, as_mpz(s, a, s->t1), as_mpz(s, b, s->t2));
    put(s, x, s->t);
}

/* The bit length of x, 0 for x = 0. */
static inline int bit_length(unsigned __int128 x)
{
    unsigned long high = (unsigned long)(x >> 64), low = (unsigned long)x;

    return high ? 128 - __builtin_clzl(high) : low ? 64 - __builtin_clzl(low) : 0;
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
 * one in __int128 the 128.  WIDE, being negative, is not read. */
static void set_divisor(divisor *dv, cell den)
{
    unsigned __int128 odd;
    unsigned long low, x;
    int i;

    if (den <= 0) {
        dv->bits = -1;
        return;
    }
    dv->bits = bit_length((unsigned __int128)den);
    low = (unsigned long)den;
    dv->z = low ? __builtin_ctzl(low) : 64 + __builtin_ctzl((unsigned long)(den >> 64));
    odd = (unsigned __int128)den >> dv->z;
    low = (unsigned long)odd;
    x = (3 * low) ^ 2;
    for (i = 0; i < 4; i++)
        x *= 2 - low * x;
    dv->inv = x * (2 - odd * x);
}

/* num / den for a multiple num of den, whose divisor dv is, where the quotient
 * is below 2^(127 - z) in absolute value (header: Division): num modulo 2^128,
 * shifted right by z, times the inverse of den's odd part is the quotient
 * modulo 2^(128 - z), which sign-extends to it.  The conversion to __int128
 * and its right shift are GCC's and Clang's: modulo 2^128 and arithmetic. */
static inline cell exact_quotient(unsigned __int128 num, const divisor *dv)
{
    return (cell)(((num >> dv->z) * dv->inv) << dv->z) >> dv->z;
}

/* out = (a b + sign c e) / den in two limbs, where a, b, c, e and den, whose
 * divisor dv is, are inline and their bit lengths put the quotient below
 * 2^(125 - z) (header: Division); returns whether they are, the quotient
 * being exact_quotient of the numerator modulo 2^128. */
static __attribute__((noinline)) int two_limb_quotient(cell *out, cell a, cell b, int sign,
                                                       cell c, cell e, const cell *den, divisor *dv)
{
    unsigned __int128 num, cross;
    int la, lb, lc, le, top;

    if (a == WIDE || b == WIDE || c == WIDE || e == WIDE)
        return 0;
    if (!dv->bits)
        set_divisor(dv, *den);
    la = bit_length(magnitude(a)), lb = bit_length(magnitude(b));
    lc = bit_length(magnitude(c)), le = bit_length(magnitude(e));
    top = la + lb > lc + le ? la + lb : lc + le;
    /* |num| < 2^(top + 1) and den >= 2^(bits - 1) */
    if (dv->bits < 0 || top + 2 - dv->bits > 125 - dv->z)
        return 0;
    num = (unsigned __int128)a * (unsigned __int128)b;
    cross = (unsigned __int128)c * (unsigned __int128)e;
    num = sign > 0 ? num + cross : num - cross;
    *out = exact_quotient(num, dv);
    return 1;
}

/* out = (a b + sign c e) / den with sign +1 or -1, where the quotient is known
 * to be exact (header); out may be b.  When the five operands are words the
 * numerator is exact in __int128, each product being below 2^126 in absolute
 * value, and so is its quotient; otherwise two_limb_quotient computes it
 * where it can, with den's divisor dv, and GMP where it cannot. */
static inline void cross_quotient(state *s, cell *out, const cell *a, const cell *b, int sign,
                                  const cell *c, const cell *e, const cell *den, divisor *dv)
{
    cell va = *a, vb = *b, vc = *c, ve = *e, vd = *den;

    if (is_word(va) && is_word(vb) && is_word(vc) && is_word(ve) && is_word(vd)) {
        *out = (va * vb + sign * (vc * ve)) / vd;
        return;
    }
    if (two_limb_quotient(out, va, vb, sign, vc, ve, den, dv))
        return;
    mpz_mul(s->t, as_mpz(s, a, s->t1), as_mpz(s, b, s->t2));
    if (sign > 0)
        mpz_addmul(s->t, as_mpz(s, c, s->t1), as_mpz(s, e, s->t2));
    else
        mpz_submul(s->t, as_mpz(s, c, s->t1), as_mpz(s, e, s->t2));
    mpz_divexact(s->t, s->t, as_mpz(s, den, s->t1));
    put(s, out, s->t);
}

/* Entry r of v as an mpz_t, set into t where v is words. */
static mpz_srcptr entry(const ints *v, int r, mpz_ptr t)
{
    if (v->wide)
        return v->z + r;
    mpz_set_si(t, v->w[r]);
    return t;
}

/* The inner product of a and b over len coordinates, the first len of at or,
 * where at is NULL, 0..len-1: into *v, returning 1, in __int128 where both
 * are words and no sum overflows or leaves the inline range; otherwise into
 * z in GMP, returning 0, with t1 and t2 as scratch.  A product of two longs
 * is at most 2^126 in absolute value, so only the sums need a check. */
static int dot(cell *v, mpz_ptr z, const ints *a, const ints *b, const int *at, int len,
               mpz_ptr t1, mpz_ptr t2)
{
    cell acc = 0;
    int i, r;

    if (!a->wide && !b->wide) {
        for (i = 0; i < len; i++) {
            r = at ? at[i] : i;
            if (__builtin_add_overflow(acc, (__int128)a->w[r] * b->w[r], &acc))
                break;
        }
        if (i == len && acc != WIDE) {
            *v = acc;
            return 1;
        }
    }
    mpz_set_ui(z, 0);
    for (i = 0; i < len; i++) {
        r = at ? at[i] : i;
        mpz_addmul(z, entry(a, r, t1), entry(b, r, t2));
    }
    return 0;
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
static void gso_row(state *s, int k, int len)
{
    cell *row = s->lam[k], *d = s->d, *u;
    const cell *lj;
    divisor dv;
    int z, j, i;

    for (z = 0; z < k && !row[z]; z++)
        ;
    for (j = z; j < len; j++) {
        u = j < k ? row + j : d + k + 1;
        lj = j < k ? s->lam[j] : row;
        mul_cell(s, u, u, d + z);
        for (i = z; i < j; i++) {
            dv.bits = 0;
            cross_quotient(s, u, d + i + 1, u, -1, row + i, lj + i, d + i, &dv);
        }
    }
}

/* gamma = ceil(num/den - 1/2) = -((den - 2 num) // (2 den)), den > 0.  Where
 * both are inline, from C's division of __int128, which truncates: the
 * quotient moves one away from zero where the remainder passes half of den,
 * and at a negative half tie (4.5 -> 4, -4.5 -> -5).  |gamma| <= |num|, so it
 * is inline.  Otherwise in GMP.  A path of its own for words, dividing longs,
 * measured no faster on the workloads' LLL calls. */
static void round_nearest(state *s, cell *gamma, const cell *num, const cell *den)
{
    cell x = *num, y = *den, q, m;

    if (x != WIDE && y != WIDE) {
        /* 2 m > y and 2 m <= -y without the doubling, which may overflow */
        q = x / y;
        m = x % y;
        if (m > 0 && m > y - m)
            q++;
        else if (m < 0 && -m >= y + m)
            q--;
        *gamma = q;
        return;
    }
    mpz_mul_2exp(s->t, as_mpz(s, num, s->t1), 1);
    mpz_sub(s->t, as_mpz(s, den, s->t2), s->t);
    mpz_mul_2exp(s->t2, as_mpz(s, den, s->t2), 1);
    mpz_fdiv_q(s->t, s->t, s->t2);
    mpz_neg(s->t, s->t);
    put(s, gamma, s->t);
}

/* v[0..len-1] -= gamma * w[0..len-1]: an entry in __int128 where gamma, both
 * entries and the result are inline, else with mpz_sub (gamma = 1), mpz_add
 * (gamma = -1) or mpz_submul, in v's own mpz_t where v is WIDE. */
static void sub_multiple(state *s, cell *v, const cell *w, int len, const cell *gamma)
{
    cell g = *gamma, a, b, x;
    mpz_srcptr big = NULL;
    mpz_ptr o;
    int i;

    for (i = 0; i < len; i++) {
        a = v[i], b = w[i];
        if (g != WIDE && a != WIDE && b != WIDE && !__builtin_mul_overflow(g, b, &x)
            && !__builtin_sub_overflow(a, x, &x) && x != WIDE) {
            v[i] = x;
            continue;
        }
        if (a == WIDE)
            o = own(s, v + i);
        else
            set_int128(o = s->t, a);
        if (g == 1)
            mpz_sub(o, o, as_mpz(s, w + i, s->t1));
        else if (g == -1)
            mpz_add(o, o, as_mpz(s, w + i, s->t1));
        else {
            if (!big)
                big = as_mpz(s, gamma, s->t2);
            mpz_submul(o, big, as_mpz(s, w + i, s->t1));
        }
        put(s, v + i, o);
    }
}

/* Column v of dim entries into GMP: its words into its mpz_t, set up the
 * first time. */
static void widen(ints *v, int dim)
{
    int r;

    for (r = 0; r < dim; r++)
        if (v->ready)
            mpz_set_si(v->z + r, v->w[r]);
        else
            mpz_init_set_si(v->z + r, v->w[r]);
    v->wide = v->ready = 1;
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
static void sub_column(state *s, ints *v, const ints *w, const cell *gamma)
{
    int dim = s->dim, r = 0;
    mpz_srcptr g;
    long x;

    if (!v->wide && !w->wide && is_word(*gamma))
        for (; r < dim && !__builtin_mul_overflow((long)*gamma, w->w[r], &x)
               && !__builtin_sub_overflow(v->w[r], x, &x); r++)
            v->w[r] = x;
    if (r == dim)
        return;
    if (!v->wide)
        widen(v, dim);
    g = as_mpz(s, gamma, s->t1);
    for (; r < dim; r++)
        if (w->wide)
            mpz_submul(v->z + r, g, w->z + r);
        else if (w->w[r] > 0)
            mpz_submul_ui(v->z + r, g, (unsigned long)w->w[r]);
        else if (w->w[r] < 0)
            mpz_addmul_ui(v->z + r, g, -(unsigned long)w->w[r]);
    narrow(v, dim);
}

/* x = the inner product of columns a and b over the state's nz, count of them. */
static void dot_cell(state *s, cell *x, const ints *a, const ints *b, int count)
{
    cell v;

    if (dot(&v, s->t, a, b, s->nz, count, s->t1, s->t2))
        *x = v;
    else
        put(s, x, s->t);
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
        dot_cell(s, s->lam[k] + j, ck, s->cols + j, nnz);
    if (len > k)
        dot_cell(s, s->d + k + 1, ck, ck, nnz);
    gso_row(s, k, len);
    return len > k && !s->d[k + 1];
}

/* Size-reduce column k against column j < k, as in _python_reduce: when
 * |2 lam[k][j]| > d[j+1], subtract gamma = round_nearest(lam[k][j], d[j+1])
 * times column j.  Where both are inline the test is exact in unsigned
 * __int128, d being positive. */
static void size_reduce(state *s, int k, int j)
{
    cell *lkj = s->lam[k] + j, *dj = s->d + j + 1, l = *lkj, d = *dj;

    if (l != WIDE && d != WIDE) {
        if (2 * magnitude(l) <= (unsigned __int128)d)
            return;
    } else {
        mpz_mul_2exp(s->t, as_mpz(s, lkj, s->t1), 1);
        if (mpz_cmpabs(s->t, as_mpz(s, dj, s->t2)) <= 0)
            return;
    }
    round_nearest(s, s->gamma, lkj, dj);
    sub_column(s, s->cols + k, s->cols + j, s->gamma);
    sub_multiple(s, s->lam[k], s->lam[j], j, s->gamma);
    sub_multiple(s, lkj, dj, 1, s->gamma);
}

/* Exchange columns k-1 and k, the Lovasz test having failed; num holds
 * d[k+1] d[k-1] + lam[k][k-1]^2.  Returns 0, changing nothing, when the new
 * d[k], num / d[k], is not in [1, d[k]) (header: Termination).  Rows i > k
 * get lam[i][k] = (d[k+1] lam[i][k-1] - lam[k][k-1] lam[i][k]) / d[k] and
 * then lam[i][k-1] = (new d[k] lam[i][k] + lam[k][k-1] lam[i][k]') / d[k+1],
 * with the old lam[i][k] and the new one ('), both exact (header: Division).
 * d[k+1], the new d[k], lam[k][k-1] and the divisors of d[k] and d[k+1] are
 * read once per exchange, and a row's two entries once per row.  Where those
 * five are words, the first numerator is exact in __int128 and its quotient is
 * exact_quotient, and where that quotient is a word too, so is the second.  Any
 * other row goes through cross_quotient, with the old lam[i][k] in old. */
static int exchange(state *s, int k, int kmax)
{
    cell **lam = s->lam, *d = s->d, *swap, *lkk, *li, vd1, vdn, vl, a, b, x;
    divisor dk = {0, 0, 0}, dk1 = {0, 0, 0};
    ints col;
    int i, small, fell;

    if (*s->num != WIDE && d[k] != WIDE) {
        *s->dnew = *s->num / d[k];
        fell = *s->dnew > 0 && *s->dnew < d[k];
    } else {
        mpz_divexact(s->t, as_mpz(s, s->num, s->t1), as_mpz(s, d + k, s->t2));
        put(s, s->dnew, s->t);
        fell = mpz_sgn(as_mpz(s, s->dnew, s->t1)) > 0
               && mpz_cmp(as_mpz(s, s->dnew, s->t1), as_mpz(s, d + k, s->t2)) < 0;
    }
    if (!fell)
        return 0;
    col = s->cols[k - 1], s->cols[k - 1] = s->cols[k], s->cols[k] = col;
    /* Rows k-1 and k trade their entries for columns 0..k-2; lam[k][k-1]
     * stays. */
    swap = lam[k - 1], lam[k - 1] = lam[k], lam[k] = swap;
    swap_cells(s, lam[k] + k - 1, lam[k - 1] + k - 1);
    lkk = lam[k] + k - 1;
    if (k < kmax) {
        set_divisor(&dk, d[k]);
        set_divisor(&dk1, d[k + 1]);
    }
    vd1 = d[k + 1], vdn = *s->dnew, vl = *lkk;
    small = dk.bits > 0 && dk1.bits > 0 && is_word(vd1) && is_word(vdn) && is_word(vl);
    for (i = k + 1; i <= kmax; i++) {
        li = lam[i];
        a = li[k - 1], b = li[k];
        if (small && is_word(a) && is_word(b)) {
            x = exact_quotient(vd1 * a - vl * b, &dk);
            li[k] = x;
            if (is_word(x)) {
                li[k - 1] = exact_quotient(vdn * b + vl * x, &dk1);
                continue;
            }
            *s->old = b;
        } else {
            swap_cells(s, s->old, li + k);
            cross_quotient(s, li + k, d + k + 1, li + k - 1, -1, lkk, s->old, d + k, &dk);
        }
        cross_quotient(s, li + k - 1, s->dnew, s->old, 1, lkk, li + k, d + k + 1, &dk1);
    }
    swap_cells(s, d + k, s->dnew);
    return 1;
}

/* Nonzero when the Lovasz test fails at k > 0, so columns k-1 and k are
 * exchanged: when ||b*_k + mu b*_{k-1}||^2 < alpha ||b*_{k-1}||^2, that is
 * q num < p d[k]^2 with num = d[k+1] d[k-1] + lam[k][k-1]^2, which is left in
 * the cell num for the exchange.  Where d[k+1], d[k-1] and lam[k][k-1] are
 * words, num is exact in __int128 (below 2^127, the d being positive), and
 * where p, q and d[k] are words too and neither product overflows, the
 * comparison is too. */
static int lovasz_fails(state *s, int k)
{
    cell *d = s->d, *lkk = s->lam[k] + k - 1, a = d[k + 1], b = d[k - 1], l = *lkk, dk = d[k];
    unsigned __int128 num, lhs, rhs;
    mpz_srcptr big;

    if (is_word(a) && is_word(b) && is_word(l)) {
        num = (unsigned __int128)(a * b + l * l);
        *s->num = (cell)num;
        if (s->small && is_word(dk)
            && !__builtin_mul_overflow(num, (unsigned __int128)s->qw, &lhs)
            && !__builtin_mul_overflow((unsigned __int128)dk * (unsigned __int128)dk,
                                       (unsigned __int128)s->pw, &rhs))
            return lhs < rhs;
    } else {
        mpz_mul(s->t, as_mpz(s, d + k + 1, s->t1), as_mpz(s, d + k - 1, s->t2));
        big = as_mpz(s, lkk, s->t1);
        mpz_addmul(s->t, big, big);
        put(s, s->num, s->t);
    }
    mpz_mul(s->t1, s->q, as_mpz(s, s->num, s->t1));
    big = as_mpz(s, d + k, s->t2);
    mpz_mul(s->t2, big, big);
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
static void babai(state *s)
{
    int k = s->n - 1, j;

    visit(s, k, k);
    for (j = k - 1; j >= 0; j--) {
        mul_cell(s, s->den, s->step, s->d + j + 1);
        round_nearest(s, s->gamma, s->lam[k] + j, s->den);
        if (!*s->gamma)
            continue;
        mul_cell(s, s->gamma, s->gamma, s->step);
        sub_multiple(s, s->lam[k], s->lam[j], j, s->gamma);
        sub_column(s, s->cols + k, s->cols + j, s->gamma);
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
    cell v;
    int i, r, big;

    for (i = 0; i < s->n; i++) {
        c = s->cols + i;
        norm = 0;
        for (r = 0, big = c->wide; !big && r < s->dim; r++)
            big = __builtin_add_overflow(norm, (unsigned __int128)((cell)c->w[r] * c->w[r]),
                                         &norm);
        if (big) {
            if (dot(&v, s->t, c, c, NULL, s->dim, s->t1, s->t2))
                set_int128(s->t, v);
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
    mpz_import(s->t, 1, -1, sizeof top, 0, 0, &top);
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

/* z = the int obj, through a long where it is a word, else through its hex
 * text (header: Crossing).  Returns -1 with an exception set, a TypeError
 * where obj is not an int. */
static int read_int(mpz_ptr z, PyObject *obj)
{
    long v;
    int status = read_word(obj, &v);

    if (status < 0)
        return -1;
    if (status)
        return read_text(z, obj);
    mpz_set_si(z, v);
    return 0;
}

/* The cell x, inline and not yet written, = the int obj (header: Crossing):
 * through a long where it is a word, else through its two words, obj >> 64
 * and obj modulo 2^64, where it is within the inline range, else through its
 * hex text into x's mpz_t.  Returns -1 with an exception set, a TypeError
 * where obj is not an int. */
static int read_cell(const state *s, cell *x, PyObject *obj)
{
    PyObject *shift, *high;
    unsigned long long low;
    long long top = -1;
    long v;
    int status = read_word(obj, &v), overflow = 1;

    if (status <= 0) {
        if (!status)
            *x = v;
        return status;
    }
    low = PyLong_AsUnsignedLongLongMask(obj);
    shift = PyLong_FromLong(64);
    high = shift ? PyNumber_Rshift(obj, shift) : NULL;
    Py_XDECREF(shift);
    if (high)
        top = PyLong_AsLongLongAndOverflow(high, &overflow);
    Py_XDECREF(high);
    if (PyErr_Occurred())
        return -1;
    *x = (cell)((unsigned __int128)(unsigned long long)top << 64 | low);
    if (!overflow && *x != WIDE)
        return 0;
    *x = WIDE;
    mpz_init(own(s, x));
    return read_text(own(s, x), obj);
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

/* The int x, through a long where it is a word and else through its two
 * words, x >> 64 and x modulo 2^64 (header: Crossing), or NULL with an
 * exception set. */
static PyObject *new_int128(cell x)
{
    PyObject *high, *low, *shift, *out = NULL;

    if (is_word(x))
        return PyLong_FromLong((long)x);
    high = PyLong_FromLongLong((long long)(x >> 64));
    low = PyLong_FromUnsignedLongLong((unsigned long long)x);
    shift = PyLong_FromLong(64);
    if (high && low && shift) {
        Py_SETREF(high, PyNumber_Lshift(high, shift));
        if (high)
            out = PyNumber_Add(high, low);
    }
    Py_XDECREF(high);
    Py_XDECREF(low);
    Py_XDECREF(shift);
    return out;
}

/* The int the cell x holds, or NULL with an exception set. */
static PyObject *new_cell(const state *s, const cell *x)
{
    return *x == WIDE ? new_int(own(s, x)) : new_int128(*x);
}

/* count vectors of dim entries in one block: their ints, then their words,
 * then room for their mpz_t, which widen or read_vectors sets up for a
 * vector that is wide; NULL with MemoryError where it cannot be allocated.
 * free_vectors frees them. */
static ints *new_vectors(int count, int dim)
{
    size_t entries = (size_t)count * dim;
    ints *v = NULL;
    long *w;
    int i;

    if (entries <= PY_SSIZE_T_MAX / 64)
        v = PyMem_Malloc(count * sizeof(ints) + entries * (sizeof(long) + sizeof(__mpz_struct)));
    if (!v) {
        PyErr_NoMemory();
        return NULL;
    }
    w = (long *)(v + count);
    for (i = 0; i < count; i++) {
        v[i].w = w + (size_t)i * dim;
        v[i].z = (mpz_ptr)(w + entries) + (size_t)i * dim;
        v[i].wide = v[i].ready = 0;
    }
    return v;
}

/* Frees the count vectors of dim entries of new_vectors, in whatever order
 * their ints now are, clearing the mpz_t of those that were set up. */
static void free_vectors(ints *v, int count, int dim)
{
    int i, r;

    for (i = 0; i < count; i++)
        for (r = 0; v[i].ready && r < dim; r++)
            mpz_clear(v[i].z + r);
    PyMem_Free(v);
}

/* The count sequences items[0..count-1] of dim ints into v: each through its
 * words, or, where one of its ints is not a long, all of them through read_int
 * into its mpz_t, set up here (header: Crossing).  Returns -1 with an
 * exception set where one is not read, a TypeError where it is not an int and
 * a ValueError where a sequence's length is not dim. */
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
        v[i].wide = v[i].ready = wide > 0;
        status = wide < 0 ? -1 : 0;
        for (r = 0; v[i].ready && r < dim; r++)
            mpz_init(v[i].z + r);
        for (r = 0; !status && wide && r < dim; r++)
            status = read_int(v[i].z + r, item[r]);
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

/* A state of n columns of dim entries (new_vectors), with one block for the
 * cells, d[0..n], the n lam rows of n cells and the scalars, all 0, then
 * their mpz_t, zeroed so that put sets one up where it is not yet (header:
 * Machine words), the row pointers and nz.  Returns -1 with MemoryError where
 * it cannot be allocated; free_state frees it. */
static int new_state(state *s, int n, int dim)
{
    size_t cells = (size_t)n * n + n + 1 + SCALARS;
    int i;

    s->n = n;
    s->dim = dim;
    if (!(s->cols = new_vectors(n, dim)))
        return -1;
    s->d = cells <= PY_SSIZE_T_MAX / 64
           ? PyMem_Malloc(cells * (sizeof(cell) + sizeof(__mpz_struct)) + n * sizeof(cell *)
                          + dim * sizeof(int))
           : NULL;
    if (!s->d) {
        free_vectors(s->cols, n, dim);
        PyErr_NoMemory();
        return -1;
    }
    s->z = (__mpz_struct *)(s->d + cells);
    memset(s->d, 0, cells * (sizeof(cell) + sizeof(__mpz_struct)));
    s->lam = (cell **)(s->z + cells);
    s->nz = (int *)(s->lam + n);
    for (i = 0; i < n; i++)
        s->lam[i] = s->d + n + 1 + (size_t)i * n;
    s->gamma = s->d + cells - SCALARS;
    s->num = s->gamma + 1;
    s->dnew = s->gamma + 2;
    s->old = s->gamma + 3;
    s->den = s->gamma + 4;
    s->step = s->gamma + 5;
    s->small = 0;
    mpz_inits(s->p, s->q, s->bound, s->t, s->t1, s->t2, NULL);
    return 0;
}

/* Frees a state of new_state, clearing every mpz_t that was set up. */
static void free_state(state *s)
{
    size_t cells = (size_t)s->n * s->n + s->n + 1 + SCALARS, e;

    mpz_clears(s->p, s->q, s->bound, s->t, s->t1, s->t2, NULL);
    for (e = 0; e < cells; e++)
        if (s->z[e]._mp_d)
            mpz_clear(s->z + e);
    PyMem_Free(s->d);
    free_vectors(s->cols, s->n, s->dim);
}

/* d[0..r] and lam rows 0..r-1 from the sequences d and lam, a start's (header:
 * Resume) or the sweep's kernel's (header: Sweep), through read_cell.
 * Returns -1 with an exception set where they do not have that shape, an
 * entry is not an int or a d is not positive. */
static int read_gso(state *s, PyObject *d, PyObject *lam, int r)
{
    PyObject *row;
    int i, j, status = 0;

    for (i = 0; !status && i <= r; i++) {
        status = read_cell(s, s->d + i, PySequence_Fast_GET_ITEM(d, i));
        if (!status && mpz_sgn(as_mpz(s, s->d + i, s->t)) <= 0) {
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
        for (j = 0; !status && j < i; j++)
            status = read_cell(s, s->lam[i] + j, PySequence_Fast_GET_ITEM(row, j));
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
        if (!(x = new_cell(s, s->d + i)))
            goto fail;
        PyList_SET_ITEM(d, i, x);
    }
    for (i = 0; i < k; i++) {
        if (!(seq = PyList_New(i)))
            goto fail;
        PyList_SET_ITEM(lam, i, seq);
        for (j = 0; j < i; j++) {
            if (!(x = new_cell(s, s->lam[i] + j)))
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

/* Whether d[j+1] > B d[j] for some j, with *where = j (header: The LLL
 * invariant). */
static int premise_fails(state *s, int *where)
{
    int i;

    for (i = 0; i < s->n; i++) {
        mpz_mul(s->t, s->bound, as_mpz(s, s->d + i, s->t1));
        if (mpz_cmp(as_mpz(s, s->d + i + 1, s->t2), s->t) > 0) {
            *where = i;
            return 1;
        }
    }
    return 0;
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
    int prefix, where = 0, status = LLL_OK;

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
    if (new_state(&s, (int)n, (int)dim))
        goto release;
    s.d[0] = 1;
    if (!read_vectors(s.cols, PySequence_Fast_ITEMS(seq), s.n, s.dim) && !read_int(s.p, p)
        && !read_int(s.q, q) && !(d && read_gso(&s, d, lam, (int)r))) {
        s.small = word(s.p, &s.pw) && word(s.q, &s.qw);
        Py_BEGIN_ALLOW_THREADS
        set_budget(&s);
        status = reduce(&s, (int)r, &where);
        if (status == LLL_OK && premise_fails(&s, &where))
            status = LLL_PREMISE;
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
    /* The target is column k = s. */
    k = (int)s_size;
    if (new_state(&s, k + 1, (int)n_size))
        goto release;
    *s.step = step;
    if (!read_vectors(s.cols, PySequence_Fast_ITEMS(seqs[0]), k, s.dim)
        && !read_vectors(s.cols + k, seqs + 3, 1, s.dim) && !read_gso(&s, seqs[1], seqs[2], k)) {
        babai(&s);
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
    cell value;
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
                x = dot(&value, t, v + i, v + r + j, NULL, n, t1, t2) ? new_int128(value)
                                                                      : new_int(t);
                if (!x) {
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
