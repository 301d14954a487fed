/**
 * @file
 * Dense BLAS-style kernels: the one implementation of every dense
 * product in the tree.
 *
 * All kernels operate on raw row-major double buffers so they serve
 * both the Matrix operators and the arena-backed fused serving path
 * without copies. They are cache-blocked and `#pragma omp simd`-
 * annotated, but they vectorize only across NON-reduction lanes
 * (output columns / output units), so every output element still
 * accumulates its products in plain ascending-index order. Each
 * kernel is therefore bit-identical to the textbook scalar loop;
 * tests/kernel_equivalence_test.cc holds those loops as its oracle
 * and asserts exact bits over random, tail, unaligned and
 * hostile-value inputs.
 *
 * Everything here is free of global state and safe to call
 * concurrently; scratch, where needed, comes from the caller.
 */

#ifndef WCNN_NUMERIC_KERNELS_BLAS_HH
#define WCNN_NUMERIC_KERNELS_BLAS_HH

#include <cstddef>

namespace wcnn {
namespace numeric {
namespace kernels {

/**
 * C += A * B for row-major buffers: A is m x k, B is k x n, C is
 * m x n (callers zero-initialize it for a plain product). Cache-
 * blocked ikj order, SIMD across output columns. Products with an
 * exact-zero A element are skipped, so 0 * Inf or 0 * NaN in B never
 * reaches C.
 */
void gemm(const double *a, const double *b, double *c, std::size_t m,
          std::size_t k, std::size_t n);

/**
 * y = A * x for a row-major m x n A; y holds m elements. Four-row
 * register-blocked, each row a sequential dot in ascending index.
 */
void gemv(const double *a, const double *x, double *y, std::size_t m,
          std::size_t n);

/** y += alpha * x over n elements (SIMD, elementwise). */
void axpy(double alpha, const double *x, double *y, std::size_t n);

/**
 * init - a[0]*b[0] - a[1]*b[1] - ... - a[n-1]*b[n-1], subtracted in
 * index order — the accumulation shape of the Cholesky inner loops
 * in linalg.cc. Sequential (a serial subtraction chain cannot be
 * reassociated without changing bits), routed here so linalg's raw
 * element loops live in the kernel layer (lint R8).
 */
double seqDotMinus(double init, const double *a, const double *b,
                   std::size_t n);

} // namespace kernels
} // namespace numeric
} // namespace wcnn

#endif // WCNN_NUMERIC_KERNELS_BLAS_HH
