#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <tuple>

#include "common/rng.h"
#include "tensor/ops.h"

using namespace fedcleanse::tensor;
using fedcleanse::common::Rng;

namespace {

// Reference convolution: the obvious quadruple loop, independent of the
// im2col production kernel.
Tensor conv_reference(const Tensor& input, const Tensor& weight, const Tensor& bias,
                      const Conv2dSpec& spec) {
  const int n = input.shape()[0], cin = input.shape()[1], h = input.shape()[2],
            w = input.shape()[3];
  const int cout = weight.shape()[0], kh = weight.shape()[2], kw = weight.shape()[3];
  const int ho = (h + 2 * spec.padding - kh) / spec.stride + 1;
  const int wo = (w + 2 * spec.padding - kw) / spec.stride + 1;
  Tensor out(Shape{n, cout, ho, wo});
  for (int b = 0; b < n; ++b) {
    for (int oc = 0; oc < cout; ++oc) {
      for (int oy = 0; oy < ho; ++oy) {
        for (int ox = 0; ox < wo; ++ox) {
          float acc = bias.at(oc);
          for (int ic = 0; ic < cin; ++ic) {
            for (int ky = 0; ky < kh; ++ky) {
              for (int kx = 0; kx < kw; ++kx) {
                const int iy = oy * spec.stride - spec.padding + ky;
                const int ix = ox * spec.stride - spec.padding + kx;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                acc += input.at(b, ic, iy, ix) * weight.at(oc, ic, ky, kx);
              }
            }
          }
          out.at(b, oc, oy, ox) = acc;
        }
      }
    }
  }
  return out;
}

// Reference max pool: the per-window scan with a data-dependent branch, the
// first strictly greater element winning, and the window's first element
// when nothing beats -inf.
void maxpool_reference(const Tensor& input, int kernel, int stride, std::vector<float>& out,
                       std::vector<std::int64_t>& argmax) {
  const int n = input.shape()[0], c = input.shape()[1], h = input.shape()[2],
            w = input.shape()[3];
  const int ho = (h - kernel) / stride + 1, wo = (w - kernel) / stride + 1;
  const auto in = input.data();
  out.clear();
  argmax.clear();
  for (int p = 0; p < n * c; ++p) {
    for (int oy = 0; oy < ho; ++oy) {
      for (int ox = 0; ox < wo; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        std::int64_t idx = -1;
        for (int ky = 0; ky < kernel; ++ky) {
          for (int kx = 0; kx < kernel; ++kx) {
            const std::int64_t i =
                (static_cast<std::int64_t>(p) * h + oy * stride + ky) * w + ox * stride + kx;
            if (in[static_cast<std::size_t>(i)] > best) {
              best = in[static_cast<std::size_t>(i)];
              idx = i;
            }
          }
        }
        if (idx < 0) {
          idx = (static_cast<std::int64_t>(p) * h + oy * stride) * w + ox * stride;
          best = in[static_cast<std::size_t>(idx)];
        }
        out.push_back(best);
        argmax.push_back(idx);
      }
    }
  }
}

// Reference im2col/col2im: bounds tested on every element.
void im2col_reference(const float* image, int cin, int h, int w, int kh, int kw,
                      const Conv2dSpec& spec, int ho, int wo, float* col) {
  float* cp = col;
  for (int ic = 0; ic < cin; ++ic) {
    for (int ky = 0; ky < kh; ++ky) {
      for (int kx = 0; kx < kw; ++kx) {
        for (int oy = 0; oy < ho; ++oy) {
          for (int ox = 0; ox < wo; ++ox) {
            const int iy = oy * spec.stride - spec.padding + ky;
            const int ix = ox * spec.stride - spec.padding + kx;
            *cp++ = (iy < 0 || iy >= h || ix < 0 || ix >= w)
                        ? 0.0f
                        : image[(static_cast<std::size_t>(ic) * h + iy) * w + ix];
          }
        }
      }
    }
  }
}

void col2im_reference(const float* col, int cin, int h, int w, int kh, int kw,
                      const Conv2dSpec& spec, int ho, int wo, float* image) {
  const float* cp = col;
  for (int ic = 0; ic < cin; ++ic) {
    for (int ky = 0; ky < kh; ++ky) {
      for (int kx = 0; kx < kw; ++kx) {
        for (int oy = 0; oy < ho; ++oy) {
          for (int ox = 0; ox < wo; ++ox, ++cp) {
            const int iy = oy * spec.stride - spec.padding + ky;
            const int ix = ox * spec.stride - spec.padding + kx;
            if (iy >= 0 && iy < h && ix >= 0 && ix < w) {
              image[(static_cast<std::size_t>(ic) * h + iy) * w + ix] += *cp;
            }
          }
        }
      }
    }
  }
}

// Values from a small set so windows hold exact ties, plus scattered NaN and
// -inf, and whole planes of each so every window shape sees an all-NaN and
// an all -inf case.
Tensor pool_input(int n, int c, int h, int w, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(Shape{n, c, h, w});
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float ninf = -std::numeric_limits<float>::infinity();
  for (auto& v : x.storage()) {
    const int r = rng.int_range(0, 9);
    v = r == 0 ? nan : r == 1 ? ninf : static_cast<float>(r % 4) - 1.0f;
  }
  auto xs = x.data();
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  std::fill_n(xs.begin(), plane, nan);           // sample 0, channel 0
  std::fill_n(xs.begin() + plane, plane, ninf);  // sample 0, channel 1
  return x;
}

}  // namespace

TEST(Matmul, HandComputed) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  auto c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.storage(), (std::vector<float>{58, 64, 139, 154}));
}

TEST(Matmul, InnerDimMismatchThrows) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{2, 3});
  EXPECT_THROW(matmul(a, b), fedcleanse::Error);
}

// Property: every transpose combination agrees with explicit transposition.
class MatmulTransposeTest : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(MatmulTransposeTest, AgreesWithExplicitTranspose) {
  auto [ta, tb] = GetParam();
  Rng rng(31);
  const int m = 4, k = 5, n = 3;
  Tensor a = Tensor::randn(ta ? Shape{k, m} : Shape{m, k}, rng);
  Tensor b = Tensor::randn(tb ? Shape{n, k} : Shape{k, n}, rng);

  auto transpose = [](const Tensor& t) {
    Tensor out(Shape{t.shape()[1], t.shape()[0]});
    for (int i = 0; i < t.shape()[0]; ++i) {
      for (int j = 0; j < t.shape()[1]; ++j) out.at(j, i) = t.at(i, j);
    }
    return out;
  };
  Tensor a_eff = ta ? transpose(a) : a;
  Tensor b_eff = tb ? transpose(b) : b;
  auto expected = matmul(a_eff, b_eff);
  auto actual = matmul_t(a, ta, b, tb);
  ASSERT_EQ(actual.shape(), expected.shape());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCombos, MatmulTransposeTest,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool()));

TEST(Conv2d, HandComputedIdentityKernel) {
  // 1x1 kernel with weight 2 and bias 1 is an affine map.
  Tensor x(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor w(Shape{1, 1, 1, 1}, {2});
  Tensor b(Shape{1}, {1});
  auto y = conv2d_forward(x, w, b, {1, 0});
  EXPECT_EQ(y.storage(), (std::vector<float>{3, 5, 7, 9}));
}

// Property sweep: production conv == reference conv across geometry.
class ConvGeometryTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};
// (cin, cout, kernel, stride, padding)

TEST_P(ConvGeometryTest, MatchesReference) {
  auto [cin, cout, kernel, stride, padding] = GetParam();
  Rng rng(17);
  Tensor x = Tensor::randn(Shape{2, cin, 7, 7}, rng);
  Tensor w = Tensor::randn(Shape{cout, cin, kernel, kernel}, rng, 0.0f, 0.5f);
  Tensor b = Tensor::randn(Shape{cout}, rng);
  Conv2dSpec spec{stride, padding};
  auto expected = conv_reference(x, w, b, spec);
  auto actual = conv2d_forward(x, w, b, spec);
  ASSERT_EQ(actual.shape(), expected.shape());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-4f) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, ConvGeometryTest,
                         ::testing::Values(std::make_tuple(1, 1, 3, 1, 0),
                                           std::make_tuple(1, 4, 3, 1, 1),
                                           std::make_tuple(3, 2, 3, 1, 1),
                                           std::make_tuple(2, 3, 5, 1, 2),
                                           std::make_tuple(2, 2, 3, 2, 1),
                                           std::make_tuple(4, 4, 1, 1, 0),
                                           std::make_tuple(1, 2, 5, 2, 0)));

TEST(Conv2d, BackwardMatchesFiniteDifference) {
  Rng rng(23);
  Tensor x = Tensor::randn(Shape{1, 2, 5, 5}, rng);
  Tensor w = Tensor::randn(Shape{3, 2, 3, 3}, rng, 0.0f, 0.5f);
  Tensor b = Tensor::randn(Shape{3}, rng);
  Conv2dSpec spec{1, 1};

  // Scalar objective: sum of outputs → grad_output of ones.
  auto y = conv2d_forward(x, w, b, spec);
  Tensor gy = Tensor::ones(y.shape());
  auto grads = conv2d_backward(x, w, gy, spec);

  const float eps = 1e-3f;
  auto objective = [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
    return conv2d_forward(xx, ww, bb, spec).sum();
  };
  // Sample a few coordinates of each gradient.
  for (std::size_t i : {0u, 7u, 24u}) {
    Tensor xp = x;
    xp[i] += eps;
    Tensor xm = x;
    xm[i] -= eps;
    const float numeric = (objective(xp, w, b) - objective(xm, w, b)) / (2 * eps);
    EXPECT_NEAR(grads.grad_input[i], numeric, 5e-2f);
  }
  for (std::size_t i : {0u, 10u, 35u}) {
    Tensor wp = w;
    wp[i] += eps;
    Tensor wm = w;
    wm[i] -= eps;
    const float numeric = (objective(x, wp, b) - objective(x, wm, b)) / (2 * eps);
    EXPECT_NEAR(grads.grad_weight[i], numeric, 5e-2f);
  }
  for (std::size_t i : {0u, 2u}) {
    Tensor bp = b;
    bp[i] += eps;
    Tensor bm = b;
    bm[i] -= eps;
    const float numeric = (objective(x, w, bp) - objective(x, w, bm)) / (2 * eps);
    EXPECT_NEAR(grads.grad_bias[i], numeric, 5e-2f);
  }
}

TEST(Conv2d, ShapeValidation) {
  Tensor x(Shape{1, 2, 4, 4});
  Tensor w(Shape{1, 3, 3, 3});  // channel mismatch
  Tensor b(Shape{1});
  EXPECT_THROW(conv2d_forward(x, w, b, {1, 0}), fedcleanse::Error);
}

TEST(MaxPool, ForwardHandComputed) {
  Tensor x(Shape{1, 1, 4, 4}, {1, 2, 3, 4,    //
                               5, 6, 7, 8,    //
                               9, 10, 11, 12,  //
                               13, 14, 15, 16});
  std::vector<std::int64_t> argmax;
  auto out = maxpool2d_forward(x, 2, 2, argmax);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(out.storage(), (std::vector<float>{6, 8, 14, 16}));
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  Tensor x(Shape{1, 1, 2, 2}, {1, 9, 3, 4});
  std::vector<std::int64_t> argmax;
  maxpool2d_forward(x, 2, 2, argmax);
  Tensor gy(Shape{1, 1, 1, 1}, {5});
  auto gx = maxpool2d_backward(x.shape(), argmax, gy);
  EXPECT_EQ(gx.storage(), (std::vector<float>{0, 5, 0, 0}));
}

TEST(MaxPool, OverlappingStride) {
  Tensor x(Shape{1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  std::vector<std::int64_t> argmax;
  auto out = maxpool2d_forward(x, 2, 1, argmax);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(out.storage(), (std::vector<float>{5, 6, 8, 9}));
}

// A window with no element greater than -inf (all NaN, e.g. after training
// diverged, or all -inf) must still name a valid input index, so backward
// stays in bounds. The window's first element is the defined winner.
TEST(MaxPool, AllNanWindowPicksFirstElement) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor x(Shape{1, 2, 2, 2}, {1, 3, 2, 0,  //
                               nan, nan, nan, nan});
  std::vector<std::int64_t> argmax;
  auto out = maxpool2d_forward(x, 2, 2, argmax);
  EXPECT_EQ(out.storage()[0], 3.0f);
  EXPECT_TRUE(std::isnan(out.storage()[1]));
  EXPECT_EQ(argmax, (std::vector<std::int64_t>{1, 4}));
  Tensor gy(Shape{1, 2, 1, 1}, {7, 9});
  auto gx = maxpool2d_backward(x.shape(), argmax, gy);
  EXPECT_EQ(gx.storage(), (std::vector<float>{0, 7, 0, 0, 9, 0, 0, 0}));
}

TEST(MaxPool, AllNegInfWindowPicksFirstElement) {
  const float ninf = -std::numeric_limits<float>::infinity();
  Tensor x(Shape{1, 1, 2, 4}, {1, 2, ninf, ninf,  //
                               3, 4, ninf, ninf});
  std::vector<std::int64_t> argmax;
  auto out = maxpool2d_forward(x, 2, 2, argmax);
  EXPECT_EQ(out.storage(), (std::vector<float>{4, ninf}));
  EXPECT_EQ(argmax, (std::vector<std::int64_t>{5, 2}));
  Tensor gy(Shape{1, 1, 1, 2}, {10, 20});
  auto gx = maxpool2d_backward(x.shape(), argmax, gy);
  EXPECT_EQ(gx.storage(), (std::vector<float>{0, 0, 20, 0, 0, 10, 0, 0}));
}

// Every kernel/stride pair, including windows that overlap (stride 1),
// touch (stride == kernel) and skip pixels (stride > kernel), on even and
// odd extents whose trailing rows/columns do not fill a window.
TEST(MaxPool, SweepMatchesReferenceBitwise) {
  for (const int kernel : {2, 3}) {
    for (const int stride : {1, 2, 3}) {
      for (const auto& [h, w] : {std::pair{8, 6}, std::pair{7, 9}, std::pair{5, 5},
                                 std::pair{11, 3}}) {
        if (h < kernel || w < kernel) continue;
        const Tensor x = pool_input(2, 3, h, w, 100 + kernel * 10 + stride);
        std::vector<float> want;
        std::vector<std::int64_t> want_arg;
        maxpool_reference(x, kernel, stride, want, want_arg);
        std::vector<std::int64_t> argmax;
        const Tensor out = maxpool2d_forward(x, kernel, stride, argmax);
        const std::string where = "k=" + std::to_string(kernel) + " s=" +
                                  std::to_string(stride) + " " + std::to_string(h) + "x" +
                                  std::to_string(w);
        ASSERT_EQ(out.size(), want.size()) << where;
        // Bitwise, so NaN outputs compare too.
        EXPECT_EQ(std::memcmp(out.data().data(), want.data(), want.size() * sizeof(float)), 0)
            << where;
        EXPECT_EQ(argmax, want_arg) << where;
      }
    }
  }
}

// The argmax-free inference pool gives the reference maxima bit for bit on
// the same sweep, ties, NaN and -inf windows included.
TEST(MaxPool, InferMatchesReferenceBitwise) {
  for (const int kernel : {2, 3}) {
    for (const int stride : {1, 2, 3}) {
      for (const auto& [h, w] : {std::pair{8, 6}, std::pair{7, 9}, std::pair{5, 5},
                                 std::pair{11, 3}}) {
        if (h < kernel || w < kernel) continue;
        const Tensor x = pool_input(2, 3, h, w, 200 + kernel * 10 + stride);
        std::vector<float> want;
        std::vector<std::int64_t> want_arg;
        maxpool_reference(x, kernel, stride, want, want_arg);
        const Tensor out = maxpool2d_infer(x, kernel, stride);
        const std::string where = "k=" + std::to_string(kernel) + " s=" +
                                  std::to_string(stride) + " " + std::to_string(h) + "x" +
                                  std::to_string(w);
        ASSERT_EQ(out.size(), want.size()) << where;
        EXPECT_EQ(std::memcmp(out.data().data(), want.data(), want.size() * sizeof(float)), 0)
            << where;
      }
    }
  }
}

// The argmax buffer is rewritten, not appended to, when a caller reuses it
// across calls of different sizes.
TEST(MaxPool, ReusedArgmaxBufferIsRewritten) {
  std::vector<std::int64_t> argmax(100, -5);
  Tensor x(Shape{1, 1, 2, 2}, {1, 9, 3, 4});
  maxpool2d_forward(x, 2, 2, argmax);
  EXPECT_EQ(argmax, (std::vector<std::int64_t>{1}));
}

// Span-hoisted im2col/col2im against the per-element loops, including
// padding >= kernel - 1 (rows and columns that are all padding) and
// stride 2 (strided gathers and scatters).
TEST(Im2col, SweepMatchesPerElementLoopsBitwise) {
  Rng rng(77);
  const int cin = 2;
  for (const int kernel : {1, 3, 5}) {
    for (const int padding : {0, 1, 2}) {
      for (const int stride : {1, 2}) {
        for (const auto& [h, w] : {std::pair{7, 9}, std::pair{6, 5}}) {
          const Conv2dSpec spec{stride, padding};
          const int ho = (h + 2 * padding - kernel) / stride + 1;
          const int wo = (w + 2 * padding - kernel) / stride + 1;
          if (ho <= 0 || wo <= 0) continue;
          const std::string where = "k=" + std::to_string(kernel) + " p=" +
                                    std::to_string(padding) + " s=" + std::to_string(stride) +
                                    " " + std::to_string(h) + "x" + std::to_string(w);
          const Tensor image = Tensor::randn(Shape{cin, h, w}, rng);
          const std::size_t cols = static_cast<std::size_t>(cin) * kernel * kernel * ho * wo;
          std::vector<float> got(cols, -3.0f), want(cols, -4.0f);
          im2col(image.data().data(), cin, h, w, kernel, kernel, spec, ho, wo, got.data());
          im2col_reference(image.data().data(), cin, h, w, kernel, kernel, spec, ho, wo,
                           want.data());
          EXPECT_EQ(got, want) << where;

          // col2im accumulates onto a non-zero image; the order of the adds
          // into each pixel must match too, so compare bitwise.
          const Tensor col = Tensor::randn(Shape{static_cast<int>(cols)}, rng);
          Tensor img_got = Tensor::randn(Shape{cin, h, w}, rng);
          Tensor img_want = img_got;
          col2im(col.data().data(), cin, h, w, kernel, kernel, spec, ho, wo,
                 img_got.data().data());
          col2im_reference(col.data().data(), cin, h, w, kernel, kernel, spec, ho, wo,
                           img_want.data().data());
          EXPECT_EQ(img_got.storage(), img_want.storage()) << where;
        }
      }
    }
  }
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(3);
  auto logits = Tensor::randn(Shape{5, 10}, rng, 0.0f, 3.0f);
  auto p = softmax_rows(logits);
  for (int i = 0; i < 5; ++i) {
    float sum = 0.0f;
    for (int j = 0; j < 10; ++j) sum += p.at(i, j);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  Tensor logits(Shape{1, 3}, {1000.0f, 1000.0f, 1000.0f});
  auto p = softmax_rows(logits);
  for (float v : p.data()) EXPECT_NEAR(v, 1.0f / 3.0f, 1e-5f);
}

TEST(Softmax, PreservesOrdering) {
  Tensor logits(Shape{1, 3}, {1.0f, 3.0f, 2.0f});
  auto p = softmax_rows(logits);
  EXPECT_GT(p.at(0, 1), p.at(0, 2));
  EXPECT_GT(p.at(0, 2), p.at(0, 0));
}

TEST(Argmax, RowWise) {
  Tensor t(Shape{2, 3}, {0.1f, 0.9f, 0.3f, 0.7f, 0.2f, 0.1f});
  EXPECT_EQ(argmax_rows(t), (std::vector<int>{1, 0}));
}

TEST(MeanStddev, HandComputed) {
  std::vector<float> values{2, 4, 4, 4, 5, 5, 7, 9};
  auto [mean, stddev] = mean_stddev(values);
  EXPECT_DOUBLE_EQ(mean, 5.0);
  EXPECT_DOUBLE_EQ(stddev, 2.0);
}

TEST(MeanStddev, EmptyThrows) {
  std::vector<float> empty;
  EXPECT_THROW(mean_stddev(empty), fedcleanse::Error);
}

TEST(Im2colCache, ForwardCachedMatchesUncached) {
  Rng rng(11);
  Tensor x = Tensor::randn(Shape{3, 4, 6, 6}, rng);
  Tensor w = Tensor::randn(Shape{5, 4, 3, 3}, rng, 0.0f, 0.4f);
  Tensor b = Tensor::randn(Shape{5}, rng);
  Conv2dSpec spec{1, 1};
  std::vector<float> cache;
  auto cached = conv2d_forward_cached(x, w, b, spec, cache);
  auto plain = conv2d_forward(x, w, b, spec);
  EXPECT_EQ(cached.storage(), plain.storage());
  // And the cache feeds a backward identical to the uncached path.
  Tensor gy = Tensor::ones(cached.shape());
  auto g1 = conv2d_backward_cached(x, w, gy, spec, cache);
  auto g2 = conv2d_backward(x, w, gy, spec);
  EXPECT_EQ(g1.grad_weight.storage(), g2.grad_weight.storage());
  EXPECT_EQ(g1.grad_input.storage(), g2.grad_input.storage());
}

// The parameter-only backward gives the full call's weight and bias
// gradients bit for bit, with and without pruned channels, and no input
// gradient.
TEST(Im2colCache, ParamOnlyBackwardMatchesFullBackward) {
  Rng rng(12);
  Tensor x = Tensor::randn(Shape{3, 2, 7, 7}, rng);
  Tensor w = Tensor::randn(Shape{4, 2, 3, 3}, rng, 0.0f, 0.4f);
  Tensor b = Tensor::randn(Shape{4}, rng);
  const Conv2dSpec spec{1, 1};
  const std::uint8_t active[4] = {1, 0, 1, 1};
  for (const std::uint8_t* mask : {static_cast<const std::uint8_t*>(nullptr), active}) {
    std::vector<float> cache;
    auto y = conv2d_forward_cached(x, w, b, spec, cache, mask);
    Tensor gy = Tensor::randn(y.shape(), rng);
    auto full = conv2d_backward_cached(x, w, gy, spec, cache, mask);
    auto params = conv2d_backward_cached(x, w, gy, spec, cache, mask,
                                         /*want_grad_input=*/false);
    EXPECT_EQ(params.grad_weight.storage(), full.grad_weight.storage());
    EXPECT_EQ(params.grad_bias.storage(), full.grad_bias.storage());
    EXPECT_EQ(params.grad_input.size(), 0u);
    EXPECT_EQ(full.grad_input.shape(), x.shape());
  }
}

// The bias gradient sums eight channels' rows as interleaved chains; each
// channel keeps its own left-to-right order, so the result equals the
// one-channel-at-a-time loop bit for bit — on a ragged tail (cout not a
// multiple of 8) and with pruned channels, which get exact zeros.
TEST(Im2colCache, BiasGradMatchesPerChannelLoopBitwise) {
  Rng rng(13);
  for (const int cout : {5, 8, 13, 19}) {
    Tensor x = Tensor::randn(Shape{3, 2, 7, 7}, rng);
    Tensor w = Tensor::randn(Shape{cout, 2, 3, 3}, rng, 0.0f, 0.4f);
    Tensor b = Tensor::randn(Shape{cout}, rng);
    const Conv2dSpec spec{1, 1};
    std::vector<std::uint8_t> active(static_cast<std::size_t>(cout), 1);
    for (int oc = 1; oc < cout; oc += 3) active[static_cast<std::size_t>(oc)] = 0;
    for (const std::uint8_t* mask : {static_cast<const std::uint8_t*>(nullptr),
                                     static_cast<const std::uint8_t*>(active.data())}) {
      std::vector<float> cache;
      auto y = conv2d_forward_cached(x, w, b, spec, cache, mask);
      // Magnitudes spread over four decades, so any change of summation
      // order shows in the low bits.
      Tensor gy = Tensor::randn(y.shape(), rng);
      for (std::size_t i = 0; i < gy.size(); ++i) gy[i] *= std::pow(10.0f, float(i % 4));
      const auto grads = conv2d_backward_cached(x, w, gy, spec, cache, mask);

      const int n = y.shape()[0], plane = y.shape()[2] * y.shape()[3];
      std::vector<float> want(static_cast<std::size_t>(cout), 0.0f);
      for (int oc = 0; oc < cout; ++oc) {
        if (mask != nullptr && mask[oc] == 0) continue;
        for (int s = 0; s < n; ++s) {
          const float* g = gy.data().data() + (static_cast<std::size_t>(s) * cout + oc) * plane;
          float sum = 0.0f;
          for (int p = 0; p < plane; ++p) sum += g[p];
          want[static_cast<std::size_t>(oc)] += sum;
        }
      }
      const std::string where =
          "cout=" + std::to_string(cout) + (mask != nullptr ? " pruned" : "");
      ASSERT_EQ(grads.grad_bias.size(), want.size()) << where;
      EXPECT_EQ(std::memcmp(grads.grad_bias.data().data(), want.data(),
                            want.size() * sizeof(float)),
                0)
          << where;
    }
  }
}
