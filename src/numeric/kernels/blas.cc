#include "blas.hh"

#include <algorithm>

namespace wcnn {
namespace numeric {
namespace kernels {

namespace {

/**
 * Cache-block sizes for the GEMM, chosen so a B panel
 * (kBlockK x kBlockN doubles = 32 KiB) stays resident in L1d while a
 * row strip of A streams through. k-blocks are visited in ascending
 * order, which keeps every C element's accumulation sequence in
 * plain ikj order (blocking reorders the loop *nest*, never the
 * per-element reduction).
 */
constexpr std::size_t kBlockK = 64;
constexpr std::size_t kBlockN = 64;

} // namespace

void
gemm(const double *a, const double *b, double *c, std::size_t m,
     std::size_t k, std::size_t n)
{
    for (std::size_t j0 = 0; j0 < n; j0 += kBlockN) {
        const std::size_t j1 = std::min(n, j0 + kBlockN);
        for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
            const std::size_t k1 = std::min(k, k0 + kBlockK);
            for (std::size_t i = 0; i < m; ++i) {
                const double *arow = a + i * k;
                double *crow = c + i * n;
                for (std::size_t kk = k0; kk < k1; ++kk) {
                    const double aik = arow[kk];
                    // An exact zero contributes nothing; skipping it
                    // also keeps 0 * Inf/NaN out of C.
                    if (aik == 0.0)
                        continue;
                    const double *brow = b + kk * n;
                    // SIMD across independent output columns: each
                    // c[i][j] still sees its k-products in ascending
                    // order, so no reduction is reassociated.
#pragma omp simd
                    for (std::size_t j = j0; j < j1; ++j)
                        crow[j] += aik * brow[j];
                }
            }
        }
    }
}

void
gemv(const double *a, const double *x, double *y, std::size_t m,
     std::size_t n)
{
    std::size_t i = 0;
    // Four rows share each load of x[j]; every accumulator still adds
    // its products in ascending j, so y equals the plain per-row dot
    // bit for bit.
    for (; i + 4 <= m; i += 4) {
        const double *r0 = a + (i + 0) * n;
        const double *r1 = a + (i + 1) * n;
        const double *r2 = a + (i + 2) * n;
        const double *r3 = a + (i + 3) * n;
        double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            const double xj = x[j];
            a0 += r0[j] * xj;
            a1 += r1[j] * xj;
            a2 += r2[j] * xj;
            a3 += r3[j] * xj;
        }
        y[i + 0] = a0;
        y[i + 1] = a1;
        y[i + 2] = a2;
        y[i + 3] = a3;
    }
    for (; i < m; ++i) {
        double acc = 0.0;
        const double *row = a + i * n;
        for (std::size_t j = 0; j < n; ++j)
            acc += row[j] * x[j];
        y[i] = acc;
    }
}

void
axpy(double alpha, const double *x, double *y, std::size_t n)
{
#pragma omp simd
    for (std::size_t j = 0; j < n; ++j)
        y[j] += alpha * x[j];
}

double
seqDotMinus(double init, const double *a, const double *b,
            std::size_t n)
{
    double acc = init;
    for (std::size_t j = 0; j < n; ++j)
        acc -= a[j] * b[j];
    return acc;
}

} // namespace kernels
} // namespace numeric
} // namespace wcnn
