/**
 * @file
 * The equivalence gate for the kernel layer (numeric/kernels/):
 * seeded property tests comparing every blocked/SIMD kernel against a
 * plain scalar oracle over random shapes (including single-row/column
 * degenerates and non-multiple-of-block tails), unaligned views, and
 * a hostile value pool (denormals, +-0.0, large magnitudes, and
 * non-finite values behind exact zeros).
 *
 * The oracles are the textbook loops — ikj GEMM with its exact-zero
 * skip, per-row sequential GEMV, scalar AXPY — plus, for the batched
 * and fused paths, the per-row composition through the single-vector
 * API (Standardizer::transform(Vector), Mlp::forward(Vector),
 * ModelBundle::predict). The kernels never reassociate a reduction,
 * so every comparison demands IDENTICAL bits.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/contracts.hh"
#include "data/standardizer.hh"
#include "nn/mlp.hh"
#include "numeric/kernels/blas.hh"
#include "numeric/kernels/fused.hh"
#include "numeric/linalg.hh"
#include "numeric/matrix.hh"
#include "numeric/rng.hh"
#include "serve/bundle.hh"

using wcnn::data::Standardizer;
using wcnn::nn::Activation;
using wcnn::nn::InitRule;
using wcnn::nn::LayerSpec;
using wcnn::nn::Mlp;
using wcnn::numeric::Matrix;
using wcnn::numeric::Rng;
using wcnn::numeric::Vector;
using wcnn::serve::ModelBundle;
namespace kernels = wcnn::numeric::kernels;

namespace {

/**
 * Hostile value pool: ordinary magnitudes most of the time, with
 * exact zeros (to exercise the GEMM zero-skip), signed zeros,
 * denormals, and large magnitudes mixed in.
 */
double
poolValue(Rng &rng)
{
    switch (rng.uniformInt(0, 9)) {
    case 0:
        return 0.0;
    case 1:
        return -0.0;
    case 2:
        return 5e-324; // smallest denormal
    case 3:
        return -1e-310; // denormal
    case 4:
        return rng.uniform(-1.0, 1.0) * 1e100;
    default:
        return rng.uniform(-3.0, 3.0);
    }
}

std::vector<double>
poolBuffer(Rng &rng, std::size_t n)
{
    std::vector<double> v(n);
    for (double &e : v)
        e = poolValue(rng);
    return v;
}

void
expectBitIdentical(const std::vector<double> &a,
                   const std::vector<double> &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const std::uint64_t ba = std::bit_cast<std::uint64_t>(a[i]);
        const std::uint64_t bb = std::bit_cast<std::uint64_t>(b[i]);
        ASSERT_EQ(ba, bb) << what << " diverges at element " << i << ": "
                          << a[i] << " vs " << b[i];
    }
}

// Scalar oracles ---------------------------------------------------

/** C += A * B: plain ikj loop, skipping exact-zero A elements. */
void
oracleGemm(const double *a, const double *b, double *c, std::size_t m,
           std::size_t k, std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            const double aik = a[i * k + kk];
            if (aik == 0.0)
                continue;
            for (std::size_t j = 0; j < n; ++j)
                c[i * n + j] += aik * b[kk * n + j];
        }
    }
}

/** y = A * x: one sequential dot per row. */
void
oracleGemv(const double *a, const double *x, double *y, std::size_t m,
           std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            acc += a[i * n + j] * x[j];
        y[i] = acc;
    }
}

/** Apply a single-vector map to every row of @p xs. */
template <typename RowFn>
Matrix
perRow(const Matrix &xs, std::size_t out_cols, RowFn fn)
{
    Matrix out(xs.rows(), out_cols);
    for (std::size_t r = 0; r < xs.rows(); ++r)
        out.setRow(r, fn(xs.row(r)));
    return out;
}

/** Blocked gemm against the oracle, bit for bit. */
void
expectGemmMatchesOracle(const std::vector<double> &a,
                        const std::vector<double> &b, std::size_t m,
                        std::size_t k, std::size_t n)
{
    std::vector<double> c_oracle(m * n, 0.0);
    std::vector<double> c(m * n, 0.0);
    oracleGemm(a.data(), b.data(), c_oracle.data(), m, k, n);
    kernels::gemm(a.data(), b.data(), c.data(), m, k, n);
    expectBitIdentical(c_oracle, c, "gemm");
}

} // namespace

// GEMV -----------------------------------------------------------------

TEST(KernelEquivalenceTest, GemvBitIdenticalOverRandomShapes)
{
    for (std::uint64_t trial = 0; trial < 200; ++trial) {
        Rng rng = Rng::stream(2006, trial);
        const auto m = static_cast<std::size_t>(rng.uniformInt(1, 67));
        const auto n = static_cast<std::size_t>(rng.uniformInt(1, 67));
        const std::vector<double> a = poolBuffer(rng, m * n);
        const std::vector<double> x = poolBuffer(rng, n);
        std::vector<double> y_oracle(m, 0.0);
        std::vector<double> y(m, 0.0);
        oracleGemv(a.data(), x.data(), y_oracle.data(), m, n);
        kernels::gemv(a.data(), x.data(), y.data(), m, n);
        expectBitIdentical(y_oracle, y, "gemv");
    }
}

TEST(KernelEquivalenceTest, GemvBitIdenticalOnUnalignedViews)
{
    // The Matrix layer always hands the kernels aligned vector
    // storage, but the raw-pointer contract must hold for any offset:
    // run the same comparison through pointers displaced by one
    // element (8 bytes — guaranteed not 64-byte aligned).
    for (std::uint64_t trial = 0; trial < 50; ++trial) {
        Rng rng = Rng::stream(2007, trial);
        const auto m = static_cast<std::size_t>(rng.uniformInt(1, 33));
        const auto n = static_cast<std::size_t>(rng.uniformInt(1, 33));
        const std::vector<double> a = poolBuffer(rng, m * n + 1);
        const std::vector<double> x = poolBuffer(rng, n + 1);
        std::vector<double> y_oracle(m + 1, 0.0);
        std::vector<double> y(m + 1, 0.0);
        oracleGemv(a.data() + 1, x.data() + 1, y_oracle.data() + 1, m,
                   n);
        kernels::gemv(a.data() + 1, x.data() + 1, y.data() + 1, m, n);
        expectBitIdentical(y_oracle, y, "gemv (unaligned)");
    }
}

TEST(KernelEquivalenceTest, MatrixVectorProductDispatchIsBitIdentical)
{
    Rng rng = Rng::stream(2008, 0);
    const Matrix a = Matrix::random(17, 23, rng, -5.0, 5.0);
    Vector x(23);
    for (double &e : x)
        e = poolValue(rng);
    Vector y_oracle(17);
    oracleGemv(a.data().data(), x.data(), y_oracle.data(), 17, 23);
    expectBitIdentical(y_oracle, a * x, "Matrix::operator*(Vector)");
}

// AXPY -----------------------------------------------------------------

TEST(KernelEquivalenceTest, AxpyBitIdentical)
{
    for (std::uint64_t trial = 0; trial < 100; ++trial) {
        Rng rng = Rng::stream(2009, trial);
        const auto n = static_cast<std::size_t>(rng.uniformInt(1, 131));
        const double alpha = poolValue(rng);
        const std::vector<double> x = poolBuffer(rng, n);
        std::vector<double> y_oracle = poolBuffer(rng, n);
        std::vector<double> y = y_oracle;
        for (std::size_t j = 0; j < n; ++j)
            y_oracle[j] += alpha * x[j];
        kernels::axpy(alpha, x.data(), y.data(), n);
        expectBitIdentical(y_oracle, y, "axpy");
    }
}

// GEMM -----------------------------------------------------------------

TEST(KernelEquivalenceTest, GemmWithinUlpBudgetOverRandomShapes)
{
    // The budget is zero ULP: blocking never reorders a per-element
    // reduction, and both sides skip the same exact zeros.
    for (std::uint64_t trial = 0; trial < 120; ++trial) {
        Rng rng = Rng::stream(2010, trial);
        const auto m = static_cast<std::size_t>(rng.uniformInt(1, 67));
        const auto k = static_cast<std::size_t>(rng.uniformInt(1, 67));
        const auto n = static_cast<std::size_t>(rng.uniformInt(1, 67));
        const std::vector<double> a = poolBuffer(rng, m * k);
        const std::vector<double> b = poolBuffer(rng, k * n);
        expectGemmMatchesOracle(a, b, m, k, n);
    }
}

TEST(KernelEquivalenceTest, GemmExactOnBlockBoundaryShape)
{
    // 64x64x64 hits every cache-block edge exactly; 65/66/67 cover
    // one-past-tail in each dimension.
    for (std::size_t dim : {64u, 65u, 66u, 67u}) {
        Rng rng = Rng::stream(2011, dim);
        const std::vector<double> a = poolBuffer(rng, dim * dim);
        const std::vector<double> b = poolBuffer(rng, dim * dim);
        expectGemmMatchesOracle(a, b, dim, dim, dim);
    }
}

TEST(KernelEquivalenceTest, GemmValueEqualOnZeroRichInputs)
{
    // Half-zero A: every other product is skipped.
    Rng rng = Rng::stream(2012, 0);
    const std::size_t m = 31, k = 47, n = 29;
    std::vector<double> a(m * k, 0.0);
    for (std::size_t i = 0; i < a.size(); i += 2)
        a[i] = rng.uniform(-2.0, 2.0);
    expectGemmMatchesOracle(a, poolBuffer(rng, k * n), m, k, n);

    // Exact zeros in A's column kk wherever B's row kk holds +-Inf or
    // NaN. Skipped, those products leave C finite; multiplied, 0 * Inf
    // would turn whole rows of C into NaN. k spans two cache blocks.
    const std::size_t k2 = 70;
    std::vector<double> a2 = poolBuffer(rng, m * k2);
    std::vector<double> b2 = poolBuffer(rng, k2 * n);
    const double non_finite[] = {
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};
    for (std::size_t kk = 3; kk < k2; kk += 7) {
        for (std::size_t j = 0; j < n; ++j)
            b2[kk * n + j] = non_finite[(kk + j) % 3];
        for (std::size_t i = 0; i < m; ++i)
            a2[i * k2 + kk] = (i % 2) ? 0.0 : -0.0;
    }
    expectGemmMatchesOracle(a2, b2, m, k2, n);
}

TEST(KernelEquivalenceTest, MatrixProductDispatchWithinBudget)
{
    // Matrix::operator* through the kernel layer, zero-ULP budget.
    Rng rng = Rng::stream(2013, 0);
    const Matrix a = Matrix::random(19, 37, rng, -4.0, 4.0);
    const Matrix b = Matrix::random(37, 11, rng, -4.0, 4.0);
    std::vector<double> c_oracle(19 * 11, 0.0);
    oracleGemm(a.data().data(), b.data().data(), c_oracle.data(), 19, 37,
               11);
    const Matrix c = a * b;
    ASSERT_EQ(c.rows(), 19u);
    ASSERT_EQ(c.cols(), 11u);
    expectBitIdentical(c_oracle, c.data(), "Matrix::operator*(Matrix)");
}

// seqDotMinus: one implementation, order-pinned ------------------------

TEST(KernelEquivalenceTest, SeqDotMinusMatchesManualChain)
{
    Rng rng = Rng::stream(2014, 0);
    const std::size_t n = 53;
    const std::vector<double> a = poolBuffer(rng, n);
    const std::vector<double> b = poolBuffer(rng, n);
    const double init = rng.uniform(-10.0, 10.0);
    double manual = init;
    for (std::size_t i = 0; i < n; ++i)
        manual -= a[i] * b[i];
    const double got = kernels::seqDotMinus(init, a.data(), b.data(), n);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(manual),
              std::bit_cast<std::uint64_t>(got));
}

// Standardize / destandardize ----------------------------------------

TEST(KernelEquivalenceTest, StandardizerMatrixPathsBitIdentical)
{
    for (std::uint64_t trial = 0; trial < 20; ++trial) {
        Rng rng = Rng::stream(2015, trial);
        const auto rows =
            static_cast<std::size_t>(rng.uniformInt(1, 67));
        const auto d = static_cast<std::size_t>(rng.uniformInt(1, 19));
        Matrix xs(rows, d);
        for (double &e : xs.data())
            e = poolValue(rng);
        Vector mu(d), sigma(d);
        for (std::size_t j = 0; j < d; ++j) {
            mu[j] = rng.uniform(-2.0, 2.0);
            sigma[j] = rng.uniform(0.1, 3.0);
        }
        const Standardizer std_ =
            Standardizer::fromMoments(mu, sigma);
        const Matrix z_oracle = perRow(
            xs, d, [&](const Vector &x) { return std_.transform(x); });
        expectBitIdentical(z_oracle.data(), std_.transform(xs).data(),
                           "Standardizer::transform(Matrix)");
    }
}

TEST(KernelEquivalenceTest, StandardizeRowsSupportsInPlace)
{
    Rng rng = Rng::stream(2016, 0);
    const std::size_t rows = 13, d = 7;
    std::vector<double> x = poolBuffer(rng, rows * d);
    std::vector<double> mu(d), sigma(d);
    for (std::size_t j = 0; j < d; ++j) {
        mu[j] = rng.uniform(-1.0, 1.0);
        sigma[j] = rng.uniform(0.5, 2.0);
    }
    std::vector<double> out(rows * d);
    kernels::standardizeRows(x.data(), out.data(), rows, d, mu.data(),
                             sigma.data());
    std::vector<double> inplace = x;
    kernels::standardizeRows(inplace.data(), inplace.data(), rows, d,
                             mu.data(), sigma.data());
    expectBitIdentical(out, inplace, "standardizeRows in-place");
}

// Batched forward + fused serving path --------------------------------

namespace {

Mlp
randomNet(std::uint64_t seed, std::size_t inputs,
          std::vector<std::size_t> hidden, std::size_t outputs)
{
    Rng rng = Rng::stream(2017, seed);
    std::vector<LayerSpec> layers;
    for (std::size_t h : hidden)
        layers.push_back(LayerSpec{h, Activation::logistic(1.0)});
    layers.push_back(LayerSpec{outputs, Activation::identity()});
    return Mlp(inputs, std::move(layers), InitRule::Xavier, rng);
}

} // namespace

TEST(KernelEquivalenceTest, BatchedForwardBitIdenticalAcrossTopologies)
{
    const struct
    {
        std::size_t inputs;
        std::vector<std::size_t> hidden;
        std::size_t outputs;
        std::size_t rows;
    } cases[] = {
        {1, {}, 1, 1},       // degenerate single-unit net
        {4, {8}, 5, 3},      // the Table 2 shape
        {4, {16}, 5, 64},    // exactly one row block
        {4, {16}, 5, 65},    // block + 1-row tail
        {7, {32, 16}, 3, 200}, // two hidden layers, multiple blocks
        {3, {5}, 2, 130},
    };
    std::uint64_t seed = 0;
    for (const auto &c : cases) {
        const Mlp net = randomNet(seed++, c.inputs, c.hidden, c.outputs);
        Rng rng = Rng::stream(2018, seed);
        Matrix xs(c.rows, c.inputs);
        for (double &e : xs.data())
            e = poolValue(rng);
        const Matrix out_oracle = perRow(
            xs, c.outputs, [&](const Vector &x) { return net.forward(x); });
        const Matrix out = net.forward(xs);
        ASSERT_EQ(out.rows(), c.rows);
        ASSERT_EQ(out.cols(), c.outputs);
        expectBitIdentical(out_oracle.data(), out.data(),
                           "Mlp::forward(Matrix)");
    }
}

TEST(KernelEquivalenceTest, FusedServingPathBitIdentical)
{
    const Mlp net = randomNet(99, 4, {16}, 5);
    Rng rng = Rng::stream(2019, 0);
    Vector x_mu(4), x_sigma(4), y_mu(5), y_sigma(5);
    for (std::size_t j = 0; j < 4; ++j) {
        x_mu[j] = rng.uniform(-2.0, 2.0);
        x_sigma[j] = rng.uniform(0.2, 4.0);
    }
    for (std::size_t j = 0; j < 5; ++j) {
        y_mu[j] = rng.uniform(-10.0, 10.0);
        y_sigma[j] = rng.uniform(0.2, 8.0);
    }
    const ModelBundle bundle = ModelBundle::fromParts(
        net, Standardizer::fromMoments(x_mu, x_sigma),
        Standardizer::fromMoments(y_mu, y_sigma), {}, {});

    for (std::size_t rows : {1u, 37u, 64u, 129u}) {
        Matrix xs(rows, 4);
        for (double &e : xs.data())
            e = poolValue(rng);
        const Matrix out_oracle = perRow(
            xs, 5, [&](const Vector &x) { return bundle.predict(x); });
        expectBitIdentical(out_oracle.data(), bundle.predictAll(xs).data(),
                           "ModelBundle::predictAll");
    }
}

#ifndef WCNN_NO_CONTRACTS
TEST(KernelEquivalenceTest, FusedForwardRejectsHalfPairedMoments)
{
    const Mlp net = randomNet(7, 3, {4}, 2);
    const Matrix xs(2, 3, 0.5);
    Vector mu(3, 0.0);
    EXPECT_THROW(static_cast<void>(net.fusedForward(
                     xs, &mu, nullptr, nullptr, nullptr)),
                 wcnn::ContractViolation);
}
#endif

TEST(KernelEquivalenceTest, FusedForwardHandlesEmptyBatch)
{
    const Mlp net = randomNet(8, 3, {4}, 2);
    const Matrix xs(0, 3);
    const Matrix out =
        net.fusedForward(xs, nullptr, nullptr, nullptr, nullptr);
    EXPECT_EQ(out.rows(), 0u);
    EXPECT_EQ(out.cols(), 2u);
}

// Normal-equations path against a scalar Cholesky ---------------------

TEST(KernelEquivalenceTest, CholeskyPipelineUnchangedByPolicy)
{
    // A^T A through gemm, then cholesky + choleskySolve through
    // seqDotMinus, must equal the textbook loops bit for bit.
    Rng rng = Rng::stream(2020, 0);
    const std::size_t rows = 40, n = 6;
    const Matrix a = Matrix::random(rows, n, rng, -2.0, 2.0);
    const Matrix at = a.transposed();
    Matrix spd = at * a;
    std::vector<double> spd_oracle(n * n, 0.0);
    oracleGemm(at.data().data(), a.data().data(), spd_oracle.data(), n,
               rows, n);
    expectBitIdentical(spd_oracle, spd.data(), "A^T A");
    for (std::size_t i = 0; i < n; ++i)
        spd(i, i) += 1.0;
    Vector b(n);
    for (double &e : b)
        e = rng.uniform(-1.0, 1.0);

    Matrix l_oracle(n, n);
    for (std::size_t j = 0; j < n; ++j) {
        double diag = spd(j, j);
        for (std::size_t k = 0; k < j; ++k)
            diag -= l_oracle(j, k) * l_oracle(j, k);
        l_oracle(j, j) = std::sqrt(diag);
        for (std::size_t i = j + 1; i < n; ++i) {
            double acc = spd(i, j);
            for (std::size_t k = 0; k < j; ++k)
                acc -= l_oracle(i, k) * l_oracle(j, k);
            l_oracle(i, j) = acc / l_oracle(j, j);
        }
    }
    Vector y_oracle(n), x_oracle(n);
    for (std::size_t i = 0; i < n; ++i) {
        double acc = b[i];
        for (std::size_t k = 0; k < i; ++k)
            acc -= l_oracle(i, k) * y_oracle[k];
        y_oracle[i] = acc / l_oracle(i, i);
    }
    for (std::size_t i = n; i-- > 0;) {
        double acc = y_oracle[i];
        for (std::size_t k = i + 1; k < n; ++k)
            acc -= l_oracle(k, i) * x_oracle[k];
        x_oracle[i] = acc / l_oracle(i, i);
    }

    const auto l = wcnn::numeric::cholesky(spd);
    ASSERT_TRUE(l.has_value());
    expectBitIdentical(l_oracle.data(), l->data(), "cholesky L");
    expectBitIdentical(x_oracle, wcnn::numeric::choleskySolve(*l, b),
                       "choleskySolve");
}
