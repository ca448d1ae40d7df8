/* Compiled hot loops, loaded through ctypes by _kernels.py.
 *
 * Seven loops are compiled: gf_epoch, truth_ranks (which ranks pairs by the
 * mean of their two directed scores), jacobi_sweeps, csr_matmul,
 * csr_tmatmul, penalty_pass and nesterov_update.  Each does what its
 * namesake in _kernels_py.py does, in the same order.  All but jacobi_sweeps
 * equal numpy's results exactly, so eval reports, GF embeddings and
 * autoencoder training do not depend on the backend; jacobi_sweeps differs
 * in the last bits, where numpy sums a dot product in another order.
 * Built with -ffp-contract=off, so no multiply-add is fused and the results
 * do not depend on the build host's instruction set.
 * Matrices are row-major doubles; indices are ptrdiff_t (numpy's intp). */
#include <float.h>
#include <math.h>
#include <stddef.h>

/* One epoch of per-edge SGD for graph factorization on the n x d matrix y:
 * for each of the k edges e = order[o], r = w_e - <y_i, y_j>, then
 * y_i += 2*lr*(r*y_j - lam*y_i) and y_j += 2*lr*(r*y_i - lam*y_j), both from
 * the pre-update rows.  Returns 0, or -1 at the first edge (index into the m
 * edges) or node index out of range, before that edge's update. */
int gf_epoch(double *y, const ptrdiff_t *heads, const ptrdiff_t *tails,
             const double *weights, const ptrdiff_t *order, ptrdiff_t n,
             ptrdiff_t d, ptrdiff_t m, ptrdiff_t k, double lr, double lam)
{
    double two_lr = 2.0 * lr;
    for (ptrdiff_t o = 0; o < k; o++) {
        ptrdiff_t e = order[o];
        if (e < 0 || e >= m || heads[e] < 0 || heads[e] >= n || tails[e] < 0 || tails[e] >= n)
            return -1;
        double *yi = y + heads[e] * d, *yj = y + tails[e] * d;
        double dot = 0.0;
        for (ptrdiff_t l = 0; l < d; l++)
            dot += yi[l] * yj[l];
        double r = weights[e] - dot;
        for (ptrdiff_t l = 0; l < d; l++) {
            double a = yi[l], b = yj[l];
            yi[l] = a + two_lr * (r * b - lam * a);
            yj[l] += two_lr * (r * a - lam * b);
        }
    }
    return 0;
}

/* Rank of each of the m true pairs (heads[e], tails[e]) in its head's
 * ranking, where a pair scores the mean of its two directed scores in the
 * n x n scores: whenever the head changes, row[j] = (s[h,j] + s[j,h]) * 0.5
 * fills the scratch row of n doubles (callers pass heads in order).  The head
 * ranks every other node that is not in its row of the excluded CSR (indptr
 * over n rows, indices), by descending score, ties by ascending id.  One pass
 * over the row counts the j < t scoring at least row[t] and the j > t scoring
 * more; the head and every excluded neighbour counted there are taken off
 * again.  A tail in the head's excluded row gets rank 0.  Returns 0, or -1
 * at the first pair or excluded index out of range. */
int truth_ranks(const double *scores, const ptrdiff_t *heads, const ptrdiff_t *tails,
                const ptrdiff_t *indptr, const ptrdiff_t *indices, double *row,
                ptrdiff_t *ranks, ptrdiff_t n, ptrdiff_t m)
{
    ptrdiff_t formed = -1;
    for (ptrdiff_t e = 0; e < m; e++) {
        ptrdiff_t h = heads[e], t = tails[e];
        if (h < 0 || h >= n || t < 0 || t >= n)
            return -1;
        if (h != formed) {
            for (ptrdiff_t j = 0; j < n; j++)
                row[j] = (scores[h * n + j] + scores[j * n + h]) * 0.5;
            formed = h;
        }
        double s = row[t];
        ptrdiff_t ahead = 0;
        for (ptrdiff_t j = 0; j < t; j++)
            ahead += row[j] >= s;
        for (ptrdiff_t j = t + 1; j < n; j++)
            ahead += row[j] > s;
        if (h != t)
            ahead -= h < t ? row[h] >= s : row[h] > s;
        int blocked = 0;
        for (ptrdiff_t k = indptr[h]; k < indptr[h + 1]; k++) {
            ptrdiff_t c = indices[k];
            if (c < 0 || c >= n)
                return -1;
            if (c == t)
                blocked = 1;
            else  /* never h: a snapshot has no self-loops */
                ahead -= c < t ? row[c] >= s : row[c] > s;
        }
        ranks[e] = blocked ? 0 : ahead + 1;
    }
    return 0;
}

/* out = X W^T for the k x n CSR matrix X (indptr over k rows, indices,
 * values) and wt = W^T, an n x h matrix: each row i of out starts at zero
 * and adds v * wt[j] for each non-zero (j, v) of row i, in order.  Returns
 * 0, or -1 at the first column index out of range. */
int csr_matmul(const ptrdiff_t *restrict indptr, const ptrdiff_t *restrict indices,
               const double *restrict values, const double *restrict wt,
               double *restrict out, ptrdiff_t k, ptrdiff_t n, ptrdiff_t h)
{
    for (ptrdiff_t i = 0; i < k; i++) {
        double *restrict row = out + i * h;
        for (ptrdiff_t l = 0; l < h; l++)
            row[l] = 0.0;
        for (ptrdiff_t p = indptr[i]; p < indptr[i + 1]; p++) {
            ptrdiff_t j = indices[p];
            if (j < 0 || j >= n)
                return -1;
            double v = values[p];
            const double *restrict w = wt + j * h;
            for (ptrdiff_t l = 0; l < h; l++)
                row[l] += v * w[l];
        }
    }
    return 0;
}

/* out = X^T G for the k x n CSR matrix X and the k x h matrix g: out (n x h)
 * starts at zero, and each row i in order adds v * g[i] into out[j] for each
 * non-zero (j, v) of row i, in order.  Returns 0, or -1 at the first column
 * index out of range. */
int csr_tmatmul(const ptrdiff_t *restrict indptr, const ptrdiff_t *restrict indices,
                const double *restrict values, const double *restrict g,
                double *restrict out, ptrdiff_t k, ptrdiff_t n, ptrdiff_t h)
{
    for (ptrdiff_t l = 0; l < n * h; l++)
        out[l] = 0.0;
    for (ptrdiff_t i = 0; i < k; i++) {
        const double *restrict gi = g + i * h;
        for (ptrdiff_t p = indptr[i]; p < indptr[i + 1]; p++) {
            ptrdiff_t j = indices[p];
            if (j < 0 || j >= n)
                return -1;
            double v = values[p];
            double *restrict o = out + j * h;
            for (ptrdiff_t l = 0; l < h; l++)
                o[l] += v * gi[l];
        }
    }
    return 0;
}

/* Adds the gradient nu1*sign(w) + 2*nu2*w of the weight penalty into g, for
 * the n elements of w and g, and writes sum |w| and sum w^2, each added in
 * element order, to sums[0] and sums[1].  The sign is branchless: a branch
 * mispredicts on random signs and made the loop several times slower. */
void penalty_pass(const double *w, double *g, ptrdiff_t n, double nu1, double nu2, double *sums)
{
    double two_nu2 = 2.0 * nu2, l1 = 0.0, l2 = 0.0;
    for (ptrdiff_t i = 0; i < n; i++) {
        double x = w[i], sign = (double)(x > 0.0) - (double)(x < 0.0);
        l1 += fabs(x);
        l2 += x * x;
        g[i] += sign * nu1 + x * two_nu2;
    }
    sums[0] = l1;
    sums[1] = l2;
}

/* The Nesterov step of the n elements of p with gradient g and velocity v:
 * v <- mu*v - lr*g, then p <- p + mu*v - lr*g with the new v. */
void nesterov_update(double *p, const double *g, double *v, ptrdiff_t n, double lr, double mu)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        double step = g[i] * lr, vi = v[i] * mu - step;
        v[i] = vi;
        p[i] = p[i] + vi * mu - step;
    }
}

static double col_dot(const double *g, ptrdiff_t n, ptrdiff_t d, ptrdiff_t p, ptrdiff_t q)
{
    double sum = 0.0;
    for (ptrdiff_t k = 0; k < n; k++)
        sum += g[k * d + p] * g[k * d + q];
    return sum;
}

static void rotate(double *a, ptrdiff_t rows, ptrdiff_t d, ptrdiff_t p, ptrdiff_t q, double c, double s)
{
    for (ptrdiff_t k = 0; k < rows; k++) {
        double xp = a[k * d + p], xq = a[k * d + q];
        a[k * d + p] = c * xp - s * xq;
        a[k * d + q] = s * xp + c * xq;
    }
}

/* One-sided Jacobi orthogonalization of the columns of the n x d matrix g,
 * in place, accumulating the rotations into the dv x d matrix v.  A pair
 * (p, q) is converged when |g_p . g_q| <= tol * |g_p| * |g_q|; columns whose
 * norm decays below eps * ||g_in||_F are zeroed and skipped.  Returns the
 * number of completed sweeps, or -1 when a pair still violated the
 * tolerance after max_sweeps sweeps. */
int jacobi_sweeps(double *g, double *v, ptrdiff_t n, ptrdiff_t d, ptrdiff_t dv,
                  double tol, int max_sweeps)
{
    double fro2 = 0.0;
    for (ptrdiff_t q = 0; q < d; q++)
        fro2 += col_dot(g, n, d, q, q);
    double cut2 = DBL_EPSILON * DBL_EPSILON * fro2;
    for (int sweep = 0; sweep < max_sweeps; sweep++) {
        for (ptrdiff_t q = 0; q < d; q++) {
            double nj = col_dot(g, n, d, q, q);
            if (nj > 0.0 && nj <= cut2)
                for (ptrdiff_t k = 0; k < n; k++)
                    g[k * d + q] = 0.0;
        }
        int rotated = 0;
        for (ptrdiff_t p = 0; p + 1 < d; p++) {
            for (ptrdiff_t q = p + 1; q < d; q++) {
                double app = col_dot(g, n, d, p, p), aqq = col_dot(g, n, d, q, q);
                if (app == 0.0 || aqq == 0.0)
                    continue;
                double apq = col_dot(g, n, d, p, q);
                if (fabs(apq) <= tol * sqrt(app * aqq))
                    continue;
                rotated = 1;
                double zeta = (aqq - app) / (2.0 * apq);
                double t = copysign(1.0, zeta) / (fabs(zeta) + sqrt(1.0 + zeta * zeta));
                double c = 1.0 / sqrt(1.0 + t * t);
                rotate(g, n, d, p, q, c, c * t);
                rotate(v, dv, d, p, q, c, c * t);
            }
        }
        if (!rotated)
            return sweep;
    }
    return -1;
}
