// Kernel-equivalence suite for the blocked, packed GEMM layer
// (src/tensor/gemm.h), Conv1d and its VJPs lowered onto that GEMM, the
// fused out-parameter / in-place ops, and the Workspace arena allocator
// (src/tensor/workspace.h).
//
// The blocked kernel is checked against an independent naive triple-loop
// reference across odd/prime sizes (micro-kernel tails in every
// dimension), all four trans-flag combinations, every batched sharing
// pattern, and both beta modes — plus bit-determinism across OpenMP
// thread counts.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "src/autograd/ops.h"
#include "src/autograd/variable.h"
#include "src/core/parallel.h"
#include "src/core/rng.h"
#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "src/tensor/workspace.h"
#include "tests/testing_utils.h"

namespace dyhsl::tensor {
namespace {

using ::dyhsl::testing::SeededTest;

// Independent reference: naive i-k-j product over logical indices. Not the
// production kernel of any era, so both old and new layouts are checked
// against the math, not against each other.
Tensor RefMatMul(const Tensor& a, const Tensor& b, bool trans_a,
                 bool trans_b) {
  int64_t m = trans_a ? a.size(1) : a.size(0);
  int64_t k = trans_a ? a.size(0) : a.size(1);
  int64_t n = trans_b ? b.size(0) : b.size(1);
  Tensor out = Tensor::Zeros({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      float av = trans_a ? a.At({p, i}) : a.At({i, p});
      for (int64_t j = 0; j < n; ++j) {
        float bv = trans_b ? b.At({j, p}) : b.At({p, j});
        out.data()[i * n + j] += av * bv;
      }
    }
  }
  return out;
}

// Extracts batch item `bi` of a 3-D tensor as a 2-D tensor (copy).
Tensor BatchItem(const Tensor& t, int64_t bi) {
  return Slice(t, 0, bi, 1).Reshape({t.size(1), t.size(2)});
}

// Odd and prime extents exercise the kMr/kNr register-tile tails; the
// k > kKc (240) and m > kMc (120) panel crossings get dedicated tests.
constexpr int64_t kOddSizes[] = {1, 2, 3, 5, 7, 13, 17, 31, 37, 64, 67};

// Tolerance scaled to the accumulation length: float32 GEMM with different
// (but deterministic) summation associativity than the reference.
float GemmTol(int64_t k) { return 1e-5f * static_cast<float>(k) + 1e-5f; }

class TensorKernelsTest : public SeededTest {};

TEST_F(TensorKernelsTest, MatMulMatchesReferenceAcrossSizesAndFlags) {
  for (int64_t m : kOddSizes) {
    for (int64_t k : {1L, 3L, 17L, 37L, 67L}) {
      for (int64_t n : {1L, 5L, 16L, 31L}) {
        Tensor a = Tensor::Randn({m, k}, &rng_);
        Tensor b = Tensor::Randn({k, n}, &rng_);
        Tensor at = Transpose2D(a);
        Tensor bt = Transpose2D(b);
        Tensor ref = RefMatMul(a, b, false, false);
        float tol = GemmTol(k);
        EXPECT_TENSOR_NEAR(MatMul(a, b), ref, tol);
        EXPECT_TENSOR_NEAR(MatMul(at, b, true, false), ref, tol);
        EXPECT_TENSOR_NEAR(MatMul(a, bt, false, true), ref, tol);
        EXPECT_TENSOR_NEAR(MatMul(at, bt, true, true), ref, tol);
      }
    }
  }
}

TEST_F(TensorKernelsTest, MatMulCrossesKPanelBoundary) {
  // k > kKc (240) exercises the multi-panel accumulation path (beta == 1
  // for the second K panel).
  Tensor a = Tensor::Randn({7, 251}, &rng_);
  Tensor b = Tensor::Randn({251, 19}, &rng_);
  EXPECT_TENSOR_NEAR(MatMul(a, b), RefMatMul(a, b, false, false),
                     GemmTol(251));
}

TEST_F(TensorKernelsTest, MatMulCrossesRowBlockBoundary) {
  // m > kMc (120) exercises multiple row-block tasks.
  Tensor a = Tensor::Randn({131, 23}, &rng_);
  Tensor b = Tensor::Randn({23, 33}, &rng_);
  EXPECT_TENSOR_NEAR(MatMul(a, b), RefMatMul(a, b, false, false),
                     GemmTol(23));
}

TEST_F(TensorKernelsTest, BatchedMatMulAllFlagsMatchPerBatchReference) {
  constexpr int64_t kBatch = 3, kM = 13, kK = 7, kN = 17;
  Tensor a = Tensor::Randn({kBatch, kM, kK}, &rng_);
  Tensor b = Tensor::Randn({kBatch, kK, kN}, &rng_);
  Tensor at = TransposePerm(a, {0, 2, 1});
  Tensor bt = TransposePerm(b, {0, 2, 1});
  for (int variant = 0; variant < 4; ++variant) {
    bool ta = variant & 1, tb = variant & 2;
    Tensor c = BatchedMatMul(ta ? at : a, tb ? bt : b, ta, tb);
    ASSERT_EQ(c.shape(), (Shape{kBatch, kM, kN}));
    for (int64_t bi = 0; bi < kBatch; ++bi) {
      Tensor ref = RefMatMul(BatchItem(a, bi), BatchItem(b, bi), false,
                             false);
      EXPECT_TENSOR_NEAR(BatchItem(c, bi), ref, GemmTol(kK));
    }
  }
}

TEST_F(TensorKernelsTest, BatchedMatMulSharedRhsAllFlags) {
  constexpr int64_t kBatch = 4, kM = 11, kK = 5, kN = 9;
  Tensor a = Tensor::Randn({kBatch, kM, kK}, &rng_);
  Tensor b = Tensor::Randn({kK, kN}, &rng_);
  Tensor at = TransposePerm(a, {0, 2, 1});
  Tensor bt = Transpose2D(b);
  for (int variant = 0; variant < 4; ++variant) {
    bool ta = variant & 1, tb = variant & 2;
    Tensor c = BatchedMatMul(ta ? at : a, tb ? bt : b, ta, tb);
    for (int64_t bi = 0; bi < kBatch; ++bi) {
      Tensor ref = RefMatMul(BatchItem(a, bi), b, false, false);
      EXPECT_TENSOR_NEAR(BatchItem(c, bi), ref, GemmTol(kK));
    }
  }
}

TEST_F(TensorKernelsTest, BatchedMatMulSharedLhsAllFlags) {
  // The shared-LHS form U @ M_b that replaced the double-transpose
  // sandwich in the DHSL block.
  constexpr int64_t kBatch = 3, kM = 9, kK = 7, kN = 13;
  Tensor u = Tensor::Randn({kM, kK}, &rng_);
  Tensor m = Tensor::Randn({kBatch, kK, kN}, &rng_);
  Tensor ut = Transpose2D(u);
  Tensor mt = TransposePerm(m, {0, 2, 1});
  for (int variant = 0; variant < 4; ++variant) {
    bool ta = variant & 1, tb = variant & 2;
    Tensor c = BatchedMatMul(ta ? ut : u, tb ? mt : m, ta, tb);
    ASSERT_EQ(c.shape(), (Shape{kBatch, kM, kN}));
    for (int64_t bi = 0; bi < kBatch; ++bi) {
      Tensor ref = RefMatMul(u, BatchItem(m, bi), false, false);
      EXPECT_TENSOR_NEAR(BatchItem(c, bi), ref, GemmTol(kK));
    }
  }
}

TEST_F(TensorKernelsTest, MatMulIntoBetaModes) {
  Tensor a = Tensor::Randn({5, 7}, &rng_);
  Tensor b = Tensor::Randn({7, 3}, &rng_);
  Tensor ref = RefMatMul(a, b, false, false);
  // beta == 0 fully overwrites, even NaN garbage.
  Tensor out = Tensor::Full({5, 3}, std::numeric_limits<float>::quiet_NaN());
  MatMulInto(a, b, false, false, /*beta=*/0.0f, &out);
  EXPECT_TENSOR_NEAR(out, ref, GemmTol(7));
  // beta == 1 accumulates.
  MatMulInto(a, b, false, false, /*beta=*/1.0f, &out);
  EXPECT_TENSOR_NEAR(out, MulScalar(ref, 2.0f), 2 * GemmTol(7));
  // General beta scales the existing contents.
  MatMulInto(a, b, false, false, /*beta=*/0.5f, &out);
  EXPECT_TENSOR_NEAR(out, MulScalar(ref, 2.0f), 3 * GemmTol(7));
}

TEST_F(TensorKernelsTest, BatchedMatMulIntoAccumulates) {
  Tensor a = Tensor::Randn({2, 4, 6}, &rng_);
  Tensor b = Tensor::Randn({2, 6, 5}, &rng_);
  Tensor base = BatchedMatMul(a, b);
  Tensor out = base.Clone();
  BatchedMatMulInto(a, b, false, false, /*beta=*/1.0f, &out);
  EXPECT_TENSOR_NEAR(out, MulScalar(base, 2.0f), 1e-4f);
}

TEST_F(TensorKernelsTest, BatchedMatMulReduceIntoSumsBatch) {
  constexpr int64_t kBatch = 4;
  Tensor a = Tensor::Randn({kBatch, 6, 3}, &rng_);
  Tensor g = Tensor::Randn({kBatch, 6, 5}, &rng_);
  // sum_b A_b^T G_b — the gradient of a batch-shared operand.
  Tensor expected = Tensor::Zeros({3, 5});
  for (int64_t bi = 0; bi < kBatch; ++bi) {
    AddInPlace(&expected,
               RefMatMul(BatchItem(a, bi), BatchItem(g, bi), true, false));
  }
  Tensor out({3, 5});
  BatchedMatMulReduceInto(a, g, true, false, /*beta=*/0.0f, &out);
  EXPECT_TENSOR_NEAR(out, expected, 1e-4f);
  // And beta == 1 accumulates on top.
  BatchedMatMulReduceInto(a, g, true, false, /*beta=*/1.0f, &out);
  EXPECT_TENSOR_NEAR(out, MulScalar(expected, 2.0f), 1e-4f);
}

TEST_F(TensorKernelsTest, GemmDegenerateKScalesOutputOnly) {
  // k == 0: C = beta * C with no product term.
  Tensor out = Tensor::Full({3, 4}, 2.0f);
  GemmInto(false, false, 3, 4, 0, nullptr, 1, nullptr, 1, 0.5f, out.data(),
           4);
  EXPECT_TENSOR_NEAR(out, Tensor::Full({3, 4}, 1.0f), 0.0f);
  GemmInto(false, false, 3, 4, 0, nullptr, 1, nullptr, 1, 0.0f, out.data(),
           4);
  EXPECT_TENSOR_NEAR(out, Tensor::Zeros({3, 4}), 0.0f);
}

TEST_F(TensorKernelsTest, AddIntoWritesWithoutAllocating) {
  Tensor a = Tensor::Randn({4, 5}, &rng_);
  Tensor b = Tensor::Randn({4, 5}, &rng_);
  Tensor out({4, 5});
  AddInto(a, b, &out);
  EXPECT_TENSOR_EQ(out, Add(a, b));
  // Aliasing the output with an input is allowed.
  Tensor alias = a.Clone();
  AddInto(alias, b, &alias);
  EXPECT_TENSOR_EQ(alias, Add(a, b));
}

TEST_F(TensorKernelsTest, SoftmaxInPlaceMatchesOutOfPlace) {
  Tensor a = Tensor::Randn({6, 9}, &rng_, 3.0f);
  Tensor expected = SoftmaxLastAxis(a);
  Tensor inplace = a.Clone();
  SoftmaxLastAxisInPlace(&inplace);
  EXPECT_TENSOR_EQ(inplace, expected);
}

TEST_F(TensorKernelsTest, RsqrtMatchesComposition) {
  Tensor a = Tensor::Uniform({32}, &rng_, 0.1f, 5.0f);
  Tensor expected = Div(Tensor::Ones({32}), Sqrt(AddScalar(a, 0.25f)));
  EXPECT_TENSOR_NEAR(Rsqrt(a, 0.25f), expected, 1e-6f);
}

#ifdef _OPENMP
TEST_F(TensorKernelsTest, GemmBitDeterministicAcrossThreadCounts) {
  // The parallel partition must not change any element's accumulation
  // order: results are required to be bit-identical for every thread
  // count (ISSUE 2 determinism constraint).
  Tensor a = Tensor::Randn({4, 150, 90}, &rng_);
  Tensor b = Tensor::Randn({90, 70}, &rng_);
  int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  Tensor c1 = BatchedMatMul(a, b);
  Tensor m1 = MatMul(BatchItem(a, 0), b);
  omp_set_num_threads(4);
  Tensor c4 = BatchedMatMul(a, b);
  Tensor m4 = MatMul(BatchItem(a, 0), b);
  omp_set_num_threads(saved);
  EXPECT_TENSOR_EQ(c4, c1);
  EXPECT_TENSOR_EQ(m4, m1);
}
#endif  // _OPENMP

// ---------------------------------------------------------------------------
// Conv1d lowered onto the GEMM
// ---------------------------------------------------------------------------

// Direct scalar convolution loops over (B, Cin, L) x (Cout, Cin, K): the
// reference the im2col + GEMM lowering must reproduce. out[b][co][t] sums
// w[co][ci][k] * x[b][ci][t + k * dilation - pad_left] over in-range taps.
Tensor RefConv1d(const Tensor& x, const Tensor& w, int64_t dilation,
                 int64_t pad_left, int64_t pad_right) {
  int64_t batch = x.size(0), cin = x.size(1), len = x.size(2);
  int64_t cout = w.size(0), ksize = w.size(2);
  int64_t lout = len + pad_left + pad_right - (ksize - 1) * dilation;
  Tensor out = Tensor::Zeros({batch, cout, lout});
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t co = 0; co < cout; ++co) {
      float* orow = out.data() + (b * cout + co) * lout;
      for (int64_t ci = 0; ci < cin; ++ci) {
        const float* xrow = x.data() + (b * cin + ci) * len;
        const float* wrow = w.data() + (co * cin + ci) * ksize;
        for (int64_t k = 0; k < ksize; ++k) {
          int64_t shift = k * dilation - pad_left;
          int64_t t_lo = std::max<int64_t>(0, -shift);
          int64_t t_hi = std::min<int64_t>(lout, len - shift);
          for (int64_t t = t_lo; t < t_hi; ++t) {
            orow[t] += wrow[k] * xrow[t + shift];
          }
        }
      }
    }
  }
  return out;
}

Tensor RefConv1dBackwardInput(const Tensor& grad_out, const Tensor& w,
                              const Shape& x_shape, int64_t dilation,
                              int64_t pad_left) {
  int64_t batch = x_shape[0], cin = x_shape[1], len = x_shape[2];
  int64_t cout = w.size(0), ksize = w.size(2), lout = grad_out.size(2);
  Tensor gx = Tensor::Zeros(x_shape);
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t ci = 0; ci < cin; ++ci) {
      float* xrow = gx.data() + (b * cin + ci) * len;
      for (int64_t co = 0; co < cout; ++co) {
        const float* grow = grad_out.data() + (b * cout + co) * lout;
        const float* wrow = w.data() + (co * cin + ci) * ksize;
        for (int64_t k = 0; k < ksize; ++k) {
          int64_t shift = k * dilation - pad_left;
          int64_t t_lo = std::max<int64_t>(0, -shift);
          int64_t t_hi = std::min<int64_t>(lout, len - shift);
          for (int64_t t = t_lo; t < t_hi; ++t) {
            xrow[t + shift] += wrow[k] * grow[t];
          }
        }
      }
    }
  }
  return gx;
}

Tensor RefConv1dBackwardWeight(const Tensor& grad_out, const Tensor& x,
                               const Shape& w_shape, int64_t dilation,
                               int64_t pad_left) {
  int64_t batch = x.size(0), cin = x.size(1), len = x.size(2);
  int64_t cout = w_shape[0], ksize = w_shape[2], lout = grad_out.size(2);
  Tensor gw = Tensor::Zeros(w_shape);
  for (int64_t co = 0; co < cout; ++co) {
    for (int64_t ci = 0; ci < cin; ++ci) {
      float* wrow = gw.data() + (co * cin + ci) * ksize;
      for (int64_t b = 0; b < batch; ++b) {
        const float* grow = grad_out.data() + (b * cout + co) * lout;
        const float* xrow = x.data() + (b * cin + ci) * len;
        for (int64_t k = 0; k < ksize; ++k) {
          int64_t shift = k * dilation - pad_left;
          int64_t t_lo = std::max<int64_t>(0, -shift);
          int64_t t_hi = std::min<int64_t>(lout, len - shift);
          double acc = 0.0;
          for (int64_t t = t_lo; t < t_hi; ++t) {
            acc += static_cast<double>(grow[t]) * xrow[t + shift];
          }
          wrow[k] += static_cast<float>(acc);
        }
      }
    }
  }
  return gw;
}

// Elementwise agreement within 1e-5 of the reference's magnitude (floored
// at 1), with NaN exactly where the reference has NaN.
::testing::AssertionResult ConvClose(const Tensor& actual,
                                     const Tensor& expected) {
  if (actual.shape() != expected.shape()) {
    return ::testing::AssertionFailure()
           << "shape " << ShapeToString(actual.shape()) << " vs "
           << ShapeToString(expected.shape());
  }
  float scale = 1.0f;
  for (int64_t i = 0; i < expected.numel(); ++i) {
    if (std::isfinite(expected.data()[i])) {
      scale = std::max(scale, std::fabs(expected.data()[i]));
    }
  }
  for (int64_t i = 0; i < expected.numel(); ++i) {
    const float a = actual.data()[i], e = expected.data()[i];
    if (std::isnan(a) != std::isnan(e) ||
        (!std::isnan(e) && std::fabs(a - e) > 1e-5f * scale)) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a << " vs reference " << e
             << " (scale " << scale << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

struct ConvCase {
  int64_t batch, cin, cout, len, ksize, dilation;
  bool causal;
};

// Checks forward and both VJPs of one case against the reference loops.
void ExpectConvMatchesReference(const ConvCase& c, Tensor x, Tensor w,
                                Rng* rng) {
  const int64_t reach = (c.ksize - 1) * c.dilation;
  const int64_t pad_left = c.causal ? reach : reach / 2;
  const int64_t pad_right = c.causal ? 0 : reach - reach / 2;
  const Tensor y = Conv1d(x, w, c.dilation, pad_left, pad_right);
  EXPECT_TRUE(ConvClose(y, RefConv1d(x, w, c.dilation, pad_left, pad_right)));
  const Tensor g = Tensor::Randn(y.shape(), rng);
  EXPECT_TRUE(ConvClose(
      Conv1dBackwardInput(g, w, x.shape(), c.dilation, pad_left),
      RefConv1dBackwardInput(g, w, x.shape(), c.dilation, pad_left)));
  EXPECT_TRUE(ConvClose(
      Conv1dBackwardWeight(g, x, w.shape(), c.dilation, pad_left),
      RefConv1dBackwardWeight(g, x, w.shape(), c.dilation, pad_left)));
}

TEST_F(TensorKernelsTest, Conv1dMatchesReferenceAcrossShapeGrid) {
  // cout 5 / 33 leave partial 16-wide register panels; 16 and 33 give odd
  // panel counts, which take the single-panel kernel.
  for (int64_t batch : {1, 3}) {
    for (int64_t cin : {1, 5}) {
      for (int64_t cout : {1, 5, 16, 33}) {
        for (int64_t ksize = 1; ksize <= 4; ++ksize) {
          for (int64_t dilation = 1; dilation <= 3; ++dilation) {
            for (bool causal : {true, false}) {
              const ConvCase c{batch, cin, cout, 9, ksize, dilation, causal};
              SCOPED_TRACE(::testing::Message()
                           << "B=" << batch << " cin=" << cin << " cout="
                           << cout << " k=" << ksize << " d=" << dilation
                           << (causal ? " causal" : " symmetric"));
              ExpectConvMatchesReference(
                  c, Tensor::Randn({batch, cin, c.len}, &rng_),
                  Tensor::Randn({cout, cin, ksize}, &rng_), &rng_);
            }
          }
        }
      }
    }
  }
}

TEST_F(TensorKernelsTest, Conv1dSingleOutputStep) {
  // No padding and len == reach + 1: every output row reads the whole
  // input series, Lout = 1.
  for (int64_t ksize = 1; ksize <= 4; ++ksize) {
    for (int64_t dilation = 1; dilation <= 3; ++dilation) {
      const int64_t len = (ksize - 1) * dilation + 1;
      Tensor x = Tensor::Randn({4, 3, len}, &rng_);
      Tensor w = Tensor::Randn({33, 3, ksize}, &rng_);
      const Tensor y = Conv1d(x, w, dilation, 0, 0);
      ASSERT_EQ(y.shape(), (Shape{4, 33, 1}));
      EXPECT_TRUE(ConvClose(y, RefConv1d(x, w, dilation, 0, 0)));
      const Tensor g = Tensor::Randn(y.shape(), &rng_);
      EXPECT_TRUE(ConvClose(Conv1dBackwardInput(g, w, x.shape(), dilation, 0),
                            RefConv1dBackwardInput(g, w, x.shape(), dilation,
                                                   0)));
      EXPECT_TRUE(ConvClose(
          Conv1dBackwardWeight(g, x, w.shape(), dilation, 0),
          RefConv1dBackwardWeight(g, x, w.shape(), dilation, 0)));
    }
  }
}

TEST_F(TensorKernelsTest, Conv1dChunkedRowsMatchReference) {
  // 300 x 12 = 3600 im2col rows: several row chunks, whose boundaries fall
  // inside batch items, so the weight-gradient reduction and col2im both
  // cross chunk boundaries.
  const ConvCase c{300, 16, 32, 12, 3, 1, /*causal=*/true};
  ExpectConvMatchesReference(c, Tensor::Randn({c.batch, c.cin, c.len}, &rng_),
                             Tensor::Randn({c.cout, c.cin, c.ksize}, &rng_),
                             &rng_);
}

TEST_F(TensorKernelsTest, Conv1dZeroWeightsGiveZeros) {
  const ConvCase c{3, 5, 33, 9, 3, 2, /*causal=*/false};
  Tensor x = Tensor::Randn({c.batch, c.cin, c.len}, &rng_);
  Tensor w = Tensor::Zeros({c.cout, c.cin, c.ksize});
  const Tensor y = Conv1d(x, w, c.dilation, 2, 2);
  EXPECT_EQ(::dyhsl::testing::MaxAbsDiff(y, Tensor::Zeros(y.shape())), 0.0f);
  const Tensor gx = Conv1dBackwardInput(Tensor::Randn(y.shape(), &rng_), w,
                                        x.shape(), c.dilation, 2);
  EXPECT_EQ(::dyhsl::testing::MaxAbsDiff(gx, Tensor::Zeros(x.shape())), 0.0f);
  ExpectConvMatchesReference(c, x, w, &rng_);
}

TEST_F(TensorKernelsTest, Conv1dPropagatesNaNInput) {
  // A NaN input reaches exactly the outputs whose receptive field covers
  // it; everything else stays finite and matches the reference.
  const ConvCase c{2, 5, 16, 12, 3, 2, /*causal=*/true};
  Tensor x = Tensor::Randn({c.batch, c.cin, c.len}, &rng_);
  x.data()[(1 * c.cin + 2) * c.len + 5] = std::nanf("");
  Tensor w = Tensor::Randn({c.cout, c.cin, c.ksize}, &rng_);
  ExpectConvMatchesReference(c, x, w, &rng_);
  const Tensor y = Conv1d(x, w, c.dilation, 4, 0);
  for (int64_t t = 0; t < c.len; ++t) {
    // Causal, dilation 2, k=3: out[t] reads x[t-4], x[t-2], x[t].
    const bool covers = t == 5 || t == 7 || t == 9;
    EXPECT_EQ(std::isnan(y.At({1, 0, t})), covers) << "t=" << t;
    EXPECT_FALSE(std::isnan(y.At({0, 0, t}))) << "t=" << t;
  }
  // Zero weights do not mask the NaN: 0 * NaN is NaN, as in any GEMM.
  const Tensor y0 =
      Conv1d(x, Tensor::Zeros({c.cout, c.cin, c.ksize}), c.dilation, 4, 0);
  EXPECT_TRUE(std::isnan(y0.At({1, 3, 7})));
  EXPECT_EQ(y0.At({0, 3, 7}), 0.0f);
}

TEST_F(TensorKernelsTest, Conv1dBitIdenticalAcrossTeamSizes) {
  // The fleet shape (8 sessions x 24 sensors) and a multi-chunk batch.
  for (int64_t batch : {192, 700}) {
    Tensor x = Tensor::Randn({batch, 16, 12}, &rng_);
    Tensor w = Tensor::Randn({32, 16, 3}, &rng_);
    Tensor g = Tensor::Randn({batch, 32, 12}, &rng_);
    Tensor y[2], gx[2], gw[2];
    const int teams[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      core::TeamScope team(teams[i]);
      y[i] = Conv1d(x, w, 1, 2, 0);
      gx[i] = Conv1dBackwardInput(g, w, x.shape(), 1, 2);
      gw[i] = Conv1dBackwardWeight(g, x, w.shape(), 1, 2);
    }
    EXPECT_TENSOR_EQ(y[1], y[0]);
    EXPECT_TENSOR_EQ(gx[1], gx[0]);
    EXPECT_TENSOR_EQ(gw[1], gw[0]);
  }
}

TEST_F(TensorKernelsTest, Conv1dBatchItemsIndependentOfBatch) {
  // Every output row is its own GEMM row: running one item alone gives the
  // same bits as running it inside a batch (batched serving relies on it).
  Tensor x = Tensor::Randn({192, 16, 12}, &rng_);
  Tensor w = Tensor::Randn({33, 16, 3}, &rng_);
  const Tensor all = Conv1d(x, w, 1, 2, 0);
  for (int64_t b : {0, 77, 191}) {
    EXPECT_TENSOR_EQ(Conv1d(Slice(x, 0, b, 1), w, 1, 2, 0),
                     Slice(all, 0, b, 1));
  }
}

// ---------------------------------------------------------------------------
// Workspace arena
// ---------------------------------------------------------------------------

TEST(WorkspaceTest, ScopeRoutesTensorAllocation) {
  Workspace workspace;
  float* first_ptr = nullptr;
  {
    WorkspaceScope scope(&workspace);
    Tensor t({16});
    first_ptr = t.data();
    EXPECT_EQ(workspace.live_allocations(), 1);
  }
  // The tensor died with the scope; Reset rewinds the slab, and the next
  // step's first allocation reuses the same memory.
  EXPECT_EQ(workspace.live_allocations(), 0);
  workspace.Reset();
  {
    WorkspaceScope scope(&workspace);
    Tensor t({16});
    EXPECT_EQ(t.data(), first_ptr);
  }
}

TEST(WorkspaceTest, TensorOutlivingResetStaysValid) {
  Workspace workspace;
  Tensor survivor;
  {
    WorkspaceScope scope(&workspace);
    survivor = Tensor::Full({64}, 3.5f);
  }
  workspace.Reset();  // retires the slab instead of rewinding it
  EXPECT_EQ(workspace.retired_count(), 1);
  {
    WorkspaceScope scope(&workspace);
    Tensor noise = Tensor::Full({64}, -1.0f);  // fresh slab, not the retired one
    EXPECT_TENSOR_EQ(survivor, Tensor::Full({64}, 3.5f));
    (void)noise;
  }
  workspace.Reset();
  EXPECT_TENSOR_EQ(survivor, Tensor::Full({64}, 3.5f));
  // Dropping the survivor lets the next Reset reclaim the retired slab.
  survivor = Tensor();
  workspace.Reset();
  EXPECT_EQ(workspace.retired_count(), 0);
}

TEST(WorkspaceTest, ReshapeSharesArenaStorage) {
  Workspace workspace;
  WorkspaceScope scope(&workspace);
  Tensor t = Tensor::Zeros({4, 4});
  Tensor view = t.Reshape({16});
  EXPECT_TRUE(view.SharesStorageWith(t));
  EXPECT_EQ(workspace.live_allocations(), 1);
}

TEST(WorkspaceTest, ScopesNest) {
  Workspace outer_ws;
  Workspace inner_ws;
  WorkspaceScope outer(&outer_ws);
  {
    WorkspaceScope inner(&inner_ws);
    Tensor t({8});
    EXPECT_EQ(inner_ws.live_allocations(), 1);
    EXPECT_EQ(outer_ws.live_allocations(), 0);
  }
  Tensor t({8});
  EXPECT_EQ(outer_ws.live_allocations(), 1);
}

TEST(WorkspaceTest, GrowsBeyondInitialSlab) {
  Workspace workspace(/*min_slab_floats=*/32);
  WorkspaceScope scope(&workspace);
  Tensor small({16});
  Tensor big({1000});  // forces a second, larger slab
  EXPECT_GE(workspace.slab_count(), 2);
  EXPECT_EQ(workspace.live_allocations(), 2);
  // Both stay writable end to end.
  small.Fill(1.0f);
  big.Fill(2.0f);
  EXPECT_FLOAT_EQ(small.data()[15], 1.0f);
  EXPECT_FLOAT_EQ(big.data()[999], 2.0f);
}

TEST(WorkspaceTest, BypassForcesHeapAllocation) {
  Workspace workspace;
  WorkspaceScope scope(&workspace);
  {
    WorkspaceBypass bypass;
    Tensor t({8});
    EXPECT_EQ(workspace.live_allocations(), 0);
  }
  Tensor t({8});  // the scope is active again after the bypass
  EXPECT_EQ(workspace.live_allocations(), 1);
}

TEST(WorkspaceTest, ParameterGradientsDoNotPinStepSlabs) {
  namespace ag = ::dyhsl::autograd;
  Rng rng(3);
  ag::Variable w(Tensor::Randn({4, 3}, &rng), /*requires_grad=*/true);
  Workspace workspace;
  {
    WorkspaceScope scope(&workspace);
    ag::Variable x(Tensor::Randn({5, 4}, &rng));
    ag::Variable loss = ag::MeanAll(ag::MatMul(x, w));
    loss.Backward();
  }  // the tape dies here; only w's grad survives the step
  workspace.Reset();
  // Leaf gradients are heap-allocated (WorkspaceBypass in the autograd
  // engine), so every step slab rewinds — nothing is retired — while the
  // parameter gradient stays valid across steps.
  EXPECT_EQ(workspace.retired_count(), 0);
  EXPECT_EQ(workspace.live_allocations(), 0);
  ASSERT_TRUE(w.has_grad());
  EXPECT_EQ(w.grad().numel(), 12);
}

TEST(WorkspaceTest, MatMulInsideScopeMatchesHeapResult) {
  Rng rng(7);
  Tensor a = Tensor::Randn({23, 31}, &rng);
  Tensor b = Tensor::Randn({31, 17}, &rng);
  Tensor heap = MatMul(a, b);
  Workspace workspace;
  for (int step = 0; step < 3; ++step) {
    WorkspaceScope scope(&workspace);
    // Arena memory is recycled across steps; beta == 0 semantics must not
    // let stale values leak into the product.
    EXPECT_TENSOR_EQ(MatMul(a, b), heap);
  }
}

}  // namespace
}  // namespace dyhsl::tensor
