/* Exact LLL over GMP: the loop of lattice._reduce, run on mpz_t.
 *
 * This is the same Cohen integral LLL (Alg. 2.6.7) as the Python loop, step
 * for step: the same k_max first visits, the same zero-prefix skip of the
 * inner products (gso_row), the same nearest integer ceil(q - 1/2), the same
 * Lovasz test against alpha = p/q and the same exchange update of rows
 * k+1..k_max.  Every Python `a // b` is mpz_fdiv_q, so both loops compute one
 * function of their input, bit for bit, and raise at the same column.  The
 * columns are plain mpz_t vectors: the Python loop's packing into one int per
 * column is a representation, not a step.  lattice.py builds this file on
 * first use and holds it to the Python loop in the tests.
 *
 * Marshalling is text: the n * dim entries arrive column by column as
 * comma-separated Python hex() literals ("0x1f", "-0x1f"), and the reduced
 * entries leave in the same order as comma-separated base-16 digits ("-1f").
 */
#include <gmp.h>
#include <stdlib.h>
#include <string.h>

enum { LLL_OK = 0, LLL_DEPENDENT = 1, LLL_PREMISE = 2, LLL_NO_MEMORY = 3 };

/* The reduction state.  col[i] points at column i's dim entries, lam[i] at
 * row i of lam (entries 0..i-1 in use), d at d[0..n]; swapping two columns or
 * two rows swaps pointers. */
typedef struct {
    int n, dim;
    mpz_ptr store;
    mpz_ptr *col, *lam, d;
    int *nz;
    mpz_t p, q, bound, gamma, num, dnew, t, t1, t2;
} state;

/* gamma = ceil(num/den - 1/2) = -((den - 2 num) // (2 den)), den > 0. */
static void round_nearest(state *s, mpz_srcptr num, mpz_srcptr den)
{
    mpz_mul_2exp(s->t1, num, 1);
    mpz_sub(s->t1, den, s->t1);
    mpz_mul_2exp(s->t2, den, 1);
    mpz_fdiv_q(s->gamma, s->t1, s->t2);
    mpz_neg(s->gamma, s->gamma);
}

/* v[0..len-1] -= gamma * w[0..len-1] */
static void sub_multiple(mpz_ptr v, mpz_srcptr w, int len, mpz_srcptr gamma)
{
    int i;
    if (mpz_cmp_ui(gamma, 1) == 0)
        for (i = 0; i < len; i++)
            mpz_sub(v + i, v + i, w + i);
    else if (mpz_cmp_si(gamma, -1) == 0)
        for (i = 0; i < len; i++)
            mpz_add(v + i, v + i, w + i);
    else
        for (i = 0; i < len; i++)
            mpz_submul(v + i, gamma, w + i);
}

/* First visit of column k, still the input column: its GSO row into lam[k]
 * and d[k+1] (lattice.gso_row).  The inner products with columns 0..k-1 read
 * only the input column's nonzero coordinates.  Returns nonzero when column k
 * depends on columns 0..k-1. */
static int visit(state *s, int k)
{
    mpz_ptr ck = s->col[k], row = s->lam[k], d = s->d;
    int nnz = 0, r, i, j, z;

    for (r = 0; r < s->dim; r++)
        if (mpz_sgn(ck + r))
            s->nz[nnz++] = r;
    for (j = 0; j < k; j++) {
        mpz_set_ui(row + j, 0);
        for (r = 0; r < nnz; r++)
            mpz_addmul(row + j, ck + s->nz[r], s->col[j] + s->nz[r]);
    }
    mpz_set_ui(d + k + 1, 0);
    for (r = 0; r < nnz; r++)
        mpz_addmul(d + k + 1, ck + s->nz[r], ck + s->nz[r]);
    if (mpz_cmp(d + k + 1, s->bound) > 0)
        mpz_set(s->bound, d + k + 1);

    /* Entry j is row[j] for j < k and d[k+1] for j = k; a zero prefix of the
     * inner products telescopes to g[j] * d[z]. */
    for (z = 0; z < k && !mpz_sgn(row + z); z++)
        ;
    for (j = z; j <= k; j++) {
        mpz_ptr u = j < k ? row + j : d + k + 1;
        mpz_srcptr lj = j < k ? s->lam[j] : row;
        mpz_mul(u, u, d + z);
        for (i = z; i < j; i++) {
            mpz_mul(s->t1, d + i + 1, u);
            mpz_submul(s->t1, row + i, lj + i);
            mpz_fdiv_q(u, s->t1, d + i);
        }
    }
    return !mpz_sgn(d + k + 1);
}

/* Size-reduce column k against column j < k, as in _reduce. */
static void size_reduce(state *s, int k, int j)
{
    mpz_ptr lkj = s->lam[k] + j, dj = s->d + j + 1;

    mpz_mul_2exp(s->t1, lkj, 1);
    if (mpz_cmpabs(s->t1, dj) <= 0)
        return;
    round_nearest(s, lkj, dj);
    sub_multiple(s->col[k], s->col[j], s->dim, s->gamma);
    sub_multiple(s->lam[k], s->lam[j], j, s->gamma);
    mpz_submul(lkj, s->gamma, dj);
}

/* Exchange columns k-1 and k, the Lovasz test having failed; s->num holds
 * d[k+1] d[k-1] + lam[k][k-1]^2. */
static void exchange(state *s, int k, int kmax)
{
    mpz_ptr *lam = s->lam, d = s->d, swap, lkk, li;
    int i;

    swap = s->col[k - 1], s->col[k - 1] = s->col[k], s->col[k] = swap;
    /* Rows k-1 and k trade their entries for columns 0..k-2; lam[k][k-1]
     * stays. */
    swap = lam[k - 1], lam[k - 1] = lam[k], lam[k] = swap;
    mpz_swap(lam[k] + k - 1, lam[k - 1] + k - 1);
    lkk = lam[k] + k - 1;
    mpz_fdiv_q(s->dnew, s->num, d + k);
    for (i = k + 1; i <= kmax; i++) {
        li = lam[i];
        mpz_swap(s->t, li + k);
        mpz_mul(s->t1, d + k + 1, li + k - 1);
        mpz_submul(s->t1, lkk, s->t);
        mpz_fdiv_q(li + k, s->t1, d + k);
        mpz_mul(s->t1, s->dnew, s->t);
        mpz_addmul(s->t1, lkk, li + k);
        mpz_fdiv_q(li + k - 1, s->t1, d + k + 1);
    }
    mpz_swap(d + k, s->dnew);
}

/* The loop of lattice._reduce from k = 0.  Returns LLL_DEPENDENT with *where
 * = k when column k depends on the columns before it. */
static int reduce(state *s, int *where)
{
    int n = s->n, k = 0, kmax = -1, j;
    mpz_ptr d = s->d, lkk;

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
        lkk = s->lam[k] + k - 1;
        mpz_mul(s->num, d + k + 1, d + k - 1);
        mpz_addmul(s->num, lkk, lkk);
        /* Exchange when ||b*_k + mu b*_{k-1}||^2 < alpha ||b*_{k-1}||^2. */
        mpz_mul(s->t1, s->q, s->num);
        mpz_mul(s->t2, d + k, d + k);
        mpz_mul(s->t2, s->t2, s->p);
        if (mpz_cmp(s->t1, s->t2) < 0) {
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

/* The reduced columns as comma-separated base-16 text, or NULL. */
static char *format_columns(state *s)
{
    size_t size = 1, pos = 0;
    int i, r;
    char *text;

    for (i = 0; i < s->n; i++)
        for (r = 0; r < s->dim; r++)
            size += mpz_sizeinbase(s->col[i] + r, 16) + 2;
    text = malloc(size);
    if (!text)
        return NULL;
    for (i = 0; i < s->n; i++)
        for (r = 0; r < s->dim; r++) {
            if (pos)
                text[pos++] = ',';
            mpz_get_str(text + pos, 16, s->col[i] + r);
            pos += strlen(text + pos);
        }
    text[pos] = '\0';
    return text;
}

/* LLL-reduce the n columns of dimension dim in `entries` with alpha = p/q
 * (hex() literals, any size).  On LLL_OK, *out is the reduced columns' text,
 * to be released with knapcrack_free.  LLL_DEPENDENT: column *where depends
 * on the columns before it.  LLL_PREMISE: d[j+1] > B d[j] at j = *where,
 * where B is the largest squared norm of an input column. */
int knapcrack_lll(int n, int dim, const char *entries, const char *p, const char *q,
                  char **out, int *where)
{
    size_t total = (size_t)n * dim + (size_t)n * n + n + 1, e;
    state s;
    char *text = strdup(entries), *tok;
    int i, status = LLL_NO_MEMORY;

    *out = NULL;
    s.n = n;
    s.dim = dim;
    s.store = malloc(total * sizeof(__mpz_struct));
    s.col = malloc(n * sizeof(mpz_ptr));
    s.lam = malloc(n * sizeof(mpz_ptr));
    s.nz = malloc(dim * sizeof(int));
    if (!text || !s.store || !s.col || !s.lam || !s.nz)
        goto release;
    for (e = 0; e < total; e++)
        mpz_init(s.store + e);
    for (i = 0; i < n; i++) {
        s.col[i] = s.store + (size_t)i * dim;
        s.lam[i] = s.store + (size_t)n * dim + (size_t)i * n;
    }
    s.d = s.store + (size_t)n * dim + (size_t)n * n;
    mpz_set_ui(s.d, 1);
    mpz_inits(s.p, s.q, s.bound, s.gamma, s.num, s.dnew, s.t, s.t1, s.t2, NULL);
    mpz_set_str(s.p, p, 0);
    mpz_set_str(s.q, q, 0);
    for (tok = text, e = 0; e < (size_t)n * dim; e++) {
        char *end = strchr(tok, ',');
        if (end)
            *end = '\0';
        mpz_set_str(s.store + e, tok, 0);
        if (end)
            tok = end + 1;
    }

    status = reduce(&s, where);
    for (i = 0; status == LLL_OK && i < n; i++) {
        mpz_mul(s.t1, s.bound, s.d + i);
        if (mpz_cmp(s.d + i + 1, s.t1) > 0) {
            *where = i;
            status = LLL_PREMISE;
        }
    }
    if (status == LLL_OK && !(*out = format_columns(&s)))
        status = LLL_NO_MEMORY;

    mpz_clears(s.p, s.q, s.bound, s.gamma, s.num, s.dnew, s.t, s.t1, s.t2, NULL);
    for (e = 0; e < total; e++)
        mpz_clear(s.store + e);
release:
    free(text);
    free(s.store);
    free(s.col);
    free(s.lam);
    free(s.nz);
    return status;
}

void knapcrack_free(char *text)
{
    free(text);
}
