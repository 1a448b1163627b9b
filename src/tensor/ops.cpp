#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/threadpool.h"
#include "tensor/gemm.h"
#include "tensor/workspace.h"

namespace fedcleanse::tensor {

Tensor matmul(const Tensor& a, const Tensor& b) { return matmul_t(a, false, b, false); }

Tensor matmul_t(const Tensor& a, bool transpose_a, const Tensor& b, bool transpose_b) {
  FC_REQUIRE(a.shape().rank() == 2 && b.shape().rank() == 2, "matmul requires 2-D tensors");
  const int m = transpose_a ? a.shape()[1] : a.shape()[0];
  const int k = transpose_a ? a.shape()[0] : a.shape()[1];
  const int k2 = transpose_b ? b.shape()[1] : b.shape()[0];
  const int n = transpose_b ? b.shape()[0] : b.shape()[1];
  FC_REQUIRE(k == k2, "matmul inner dimensions disagree: " + a.shape().to_string() + " x " +
                          b.shape().to_string());

  Tensor c(Shape{m, n});
  gemm(transpose_a, transpose_b, m, n, k, a.data().data(), a.shape()[1], b.data().data(),
       b.shape()[1], c.data().data(), n, /*accumulate=*/false);
  return c;
}

namespace {
inline int conv_out_dim(int in, int kernel, int stride, int padding) {
  return (in + 2 * padding - kernel) / stride + 1;
}

// Output columns [lo, hi) whose input column ox·stride − padding + kx falls
// inside [0, w). Outside that span im2col writes zeros and col2im adds
// nothing, so both loops test bounds once per (ic, ky, kx) row instead of
// once per element.
struct ColSpan {
  int lo, hi;
};

ColSpan valid_cols(int kx, int w, int wo, const Conv2dSpec& spec) {
  const int s = spec.stride;
  const int first = spec.padding - kx;   // smallest ox·s that is in bounds
  const int end = w + spec.padding - kx;  // smallest ox·s past the edge
  const int lo = std::min(wo, first <= 0 ? 0 : (first + s - 1) / s);
  const int hi = std::min(wo, end <= 0 ? 0 : (end + s - 1) / s);
  return {lo, std::max(lo, hi)};
}

}  // namespace

void im2col(const float* image, int cin, int h, int w, int kh, int kw,
            const Conv2dSpec& spec, int ho, int wo, float* col) {
  const int s = spec.stride;
  float* cp = col;
  for (int ic = 0; ic < cin; ++ic) {
    const float* plane = image + static_cast<std::size_t>(ic) * h * w;
    for (int ky = 0; ky < kh; ++ky) {
      for (int kx = 0; kx < kw; ++kx) {
        const ColSpan span = valid_cols(kx, w, wo, spec);
        const int off = kx - spec.padding;
        // Plain loops: rows are a few floats wide, where memset/memmove
        // calls cost more than the copy.
        for (int oy = 0; oy < ho; ++oy, cp += wo) {
          const int iy = oy * s - spec.padding + ky;
          if (iy < 0 || iy >= h) {
            for (int ox = 0; ox < wo; ++ox) cp[ox] = 0.0f;
            continue;
          }
          // row[ox·s + off] is the input element of output column ox.
          const float* row = plane + static_cast<std::size_t>(iy) * w;
          for (int ox = 0; ox < span.lo; ++ox) cp[ox] = 0.0f;
          for (int ox = span.lo; ox < span.hi; ++ox) cp[ox] = row[ox * s + off];
          for (int ox = span.hi; ox < wo; ++ox) cp[ox] = 0.0f;
        }
      }
    }
  }
}

void col2im(const float* col, int cin, int h, int w, int kh, int kw, const Conv2dSpec& spec,
            int ho, int wo, float* image) {
  const int s = spec.stride;
  const float* cp = col;
  for (int ic = 0; ic < cin; ++ic) {
    float* plane = image + static_cast<std::size_t>(ic) * h * w;
    for (int ky = 0; ky < kh; ++ky) {
      for (int kx = 0; kx < kw; ++kx) {
        const ColSpan span = valid_cols(kx, w, wo, spec);
        const int off = kx - spec.padding;
        for (int oy = 0; oy < ho; ++oy, cp += wo) {
          const int iy = oy * s - spec.padding + ky;
          if (iy < 0 || iy >= h) continue;
          float* row = plane + static_cast<std::size_t>(iy) * w;
          if (s == 1) {
            for (int ox = span.lo; ox < span.hi; ++ox) row[ox + off] += cp[ox];
          } else {
            for (int ox = span.lo; ox < span.hi; ++ox) row[ox * s + off] += cp[ox];
          }
        }
      }
    }
  }
}

namespace {

struct ConvDims {
  int n, cin, h, w, cout, kh, kw, ho, wo, kdim, pdim;
};

ConvDims conv_dims(const Tensor& input, const Tensor& weight, const Conv2dSpec& spec) {
  FC_REQUIRE(input.shape().rank() == 4, "conv2d input must be [N,C,H,W]");
  FC_REQUIRE(weight.shape().rank() == 4, "conv2d weight must be [O,C,kh,kw]");
  ConvDims d;
  d.n = input.shape()[0];
  d.cin = input.shape()[1];
  d.h = input.shape()[2];
  d.w = input.shape()[3];
  d.cout = weight.shape()[0];
  d.kh = weight.shape()[2];
  d.kw = weight.shape()[3];
  FC_REQUIRE(weight.shape()[1] == d.cin, "conv2d channel mismatch");
  d.ho = conv_out_dim(d.h, d.kh, spec.stride, spec.padding);
  d.wo = conv_out_dim(d.w, d.kw, spec.stride, spec.padding);
  FC_REQUIRE(d.ho > 0 && d.wo > 0, "conv2d output would be empty");
  d.kdim = d.cin * d.kh * d.kw;
  d.pdim = d.ho * d.wo;
  return d;
}

// Shared conv forward. `col_cache`, when non-null, receives the unfolded
// batch ([N][kdim·pdim]) for the training backward; when null, each sample
// unfolds into scratch from its executing thread's Workspace, released
// before the next sample, so inference keeps no batch-sized buffer.
Tensor conv2d_forward_impl(const Tensor& input, const Tensor& weight, const Tensor& bias,
                           const Conv2dSpec& spec, float* col_cache, ComputeKernel kernel,
                           bool fuse_relu, const std::uint8_t* channel_active) {
  const ConvDims d = conv_dims(input, weight, spec);
  FC_REQUIRE(bias.shape().rank() == 1 && bias.shape()[0] == d.cout, "conv2d bias mismatch");
  const bool int8 = kernel == ComputeKernel::kInt8 && d.pdim <= kGemmNC;

  Tensor out(Shape{d.n, d.cout, d.ho, d.wo});
  const auto in = input.data();
  const auto wt = weight.data();
  const auto bs = bias.data();
  auto ov = out.data();
  const GemmMask mask{channel_active, nullptr};
  const std::size_t col_size = static_cast<std::size_t>(d.kdim) * d.pdim;

  // int8: weights quantize once per call and are shared read-only by every
  // sample; gemm_s8 is serial, so the batch loop provides the parallelism.
  const PackedInt8A pa = int8 ? pack_a_int8(wt.data(), d.kdim, d.cout, d.kdim,
                                            /*per_channel=*/true)
                              : PackedInt8A{};

  // Each sample owns a disjoint slice of the column cache and of the output,
  // so the batch dimension parallelizes without reordering any float op.
  common::ambient_parallel_for(static_cast<std::size_t>(d.n), [&](std::size_t sample) {
    Workspace& ws = Workspace::tls();
    const Workspace::Mark smark = ws.mark();
    float* col = col_cache != nullptr ? col_cache + sample * col_size : ws.alloc_floats(col_size);
    im2col(&in[sample * d.cin * d.h * d.w], d.cin, d.h, d.w, d.kh, d.kw, spec, d.ho, d.wo, col);
    float* osample = &ov[sample * d.cout * d.pdim];
    if (int8) {
      gemm_s8(pa, d.pdim, col, d.pdim, osample, d.pdim, /*accumulate=*/false,
              GemmEpilogue{bs.data(), nullptr, fuse_relu});
    } else if (channel_active == nullptr) {
      // out[oc, :] = bias[oc] + weight[oc, :] · col, bias carried in as the
      // GEMM's row_bias epilogue (bit-identical to prefill + accumulate).
      gemm(false, false, d.cout, d.pdim, d.kdim, wt.data(), d.kdim, col, d.pdim, osample,
           d.pdim, /*accumulate=*/false, mask, GemmEpilogue{bs.data(), nullptr, fuse_relu});
    } else {
      // Masked path keeps the explicit prefill: pruned channels are skipped
      // by the row mask (including the relu pass) and stay at the exact zero
      // written here.
      for (int oc = 0; oc < d.cout; ++oc) {
        std::fill_n(osample + static_cast<std::size_t>(oc) * d.pdim, d.pdim,
                    channel_active[oc] != 0 ? bs[oc] : 0.0f);
      }
      gemm(false, false, d.cout, d.pdim, d.kdim, wt.data(), d.kdim, col, d.pdim, osample,
           d.pdim, /*accumulate=*/true, mask, GemmEpilogue{nullptr, nullptr, fuse_relu});
    }
    ws.release(smark);
  });
  return out;
}

}  // namespace

Tensor conv2d_forward_cached(const Tensor& input, const Tensor& weight, const Tensor& bias,
                             const Conv2dSpec& spec, std::vector<float>& col_cache,
                             const std::uint8_t* channel_active, bool fuse_relu) {
  const ConvDims d = conv_dims(input, weight, spec);
  col_cache.resize(static_cast<std::size_t>(d.n) * d.kdim * d.pdim);
  return conv2d_forward_impl(input, weight, bias, spec, col_cache.data(), ComputeKernel::kF32,
                             fuse_relu, channel_active);
}

Tensor conv2d_infer(const Tensor& input, const Tensor& weight, const Tensor& bias,
                    const Conv2dSpec& spec, ComputeKernel kernel, bool fuse_relu,
                    const std::uint8_t* channel_active) {
  return conv2d_forward_impl(input, weight, bias, spec, nullptr, kernel, fuse_relu,
                             channel_active);
}

Tensor conv2d_forward(const Tensor& input, const Tensor& weight, const Tensor& bias,
                      const Conv2dSpec& spec) {
  return conv2d_infer(input, weight, bias, spec);
}

namespace {

// sums[r] = Σ_p g[r, p], each row summed left to right from 0.0f. Eight rows
// advance together so eight independent add chains overlap instead of one
// chain waiting on every add; each row keeps its own order, so every sum is
// bit-identical to the one-row-at-a-time loop.
void channel_row_sums(const float* g, int rows, int cols, float* sums) {
  constexpr int kLanes = 8;
  int r = 0;
  for (; r + kLanes <= rows; r += kLanes) {
    const float* base = g + static_cast<std::size_t>(r) * cols;
    float acc[kLanes] = {};
    for (int p = 0; p < cols; ++p) {
#pragma GCC unroll 8
      for (int l = 0; l < kLanes; ++l) acc[l] += base[static_cast<std::size_t>(l) * cols + p];
    }
    for (int l = 0; l < kLanes; ++l) sums[r + l] = acc[l];
  }
  for (; r < rows; ++r) {
    const float* row = g + static_cast<std::size_t>(r) * cols;
    float acc = 0.0f;
    for (int p = 0; p < cols; ++p) acc += row[p];
    sums[r] = acc;
  }
}

Conv2dGrads conv2d_backward_impl(const Tensor& input, const Tensor& weight,
                                 const Tensor& grad_output, const Conv2dSpec& spec,
                                 const float* col_cache,
                                 const std::uint8_t* channel_active, bool want_grad_input) {
  const ConvDims d = conv_dims(input, weight, spec);
  FC_REQUIRE(grad_output.shape()[0] == d.n && grad_output.shape()[1] == d.cout,
             "conv2d_backward grad_output shape mismatch");

  Conv2dGrads g{want_grad_input ? Tensor(input.shape()) : Tensor(), Tensor(weight.shape()),
                Tensor(Shape{d.cout})};
  const auto wt = weight.data();
  const auto go = grad_output.data();
  auto gi = g.grad_input.data();
  auto gw = g.grad_weight.data();
  auto gb = g.grad_bias.data();

  // grad_input is disjoint per sample, but grad_weight/grad_bias are sums
  // over the batch. Each sample writes its contribution into its own slot of
  // a workspace scratch area; a serial in-order reduction below then produces
  // the exact float sequence of the serial kernel, independent of thread
  // count. The scratch lives on the calling thread's arena and is released
  // (for byte-identical reuse next call) before returning.
  const std::size_t wslot = static_cast<std::size_t>(d.cout) * d.kdim;
  Workspace& cws = Workspace::tls();
  const Workspace::Mark outer = cws.mark();
  float* gw_partial = cws.alloc_floats(static_cast<std::size_t>(d.n) * wslot);
  float* gb_partial = cws.alloc_floats(static_cast<std::size_t>(d.n) * d.cout);
  const GemmMask row_mask{channel_active, nullptr};
  const GemmMask contraction_mask{nullptr, channel_active};

  common::ambient_parallel_for(static_cast<std::size_t>(d.n), [&](std::size_t sample) {
    const int b = static_cast<int>(sample);
    const float* col = &col_cache[static_cast<std::size_t>(b) * d.kdim * d.pdim];
    const float* gsample = &go[static_cast<std::size_t>(b) * d.cout * d.pdim];
    float* gwp = &gw_partial[static_cast<std::size_t>(b) * wslot];
    float* gbp = &gb_partial[static_cast<std::size_t>(b) * d.cout];

    channel_row_sums(gsample, d.cout, d.pdim, gbp);
    for (int oc = 0; oc < d.cout; ++oc) {
      if (channel_active != nullptr && channel_active[oc] == 0) {
        // Pruned channel: exact-zero gradient rows, skipped in the GEMMs.
        gbp[oc] = 0.0f;
        std::fill_n(gwp + static_cast<std::size_t>(oc) * d.kdim, d.kdim, 0.0f);
      }
    }
    // gw[oc, k] = Σ_p grad[oc, p] · col[k, p]  (B read transposed).
    gemm(false, true, d.cout, d.kdim, d.pdim, gsample, d.pdim, col, d.pdim, gwp, d.kdim,
         /*accumulate=*/false, row_mask);
    if (!want_grad_input) return;

    // gcol[k, p] = Σ_oc w[oc, k] · grad[oc, p]  (A read transposed; pruned
    // channels drop out of the contraction).
    Workspace& ws = Workspace::tls();
    const Workspace::Mark smark = ws.mark();
    float* gcol = ws.alloc_floats(static_cast<std::size_t>(d.kdim) * d.pdim);
    gemm(true, false, d.kdim, d.pdim, d.cout, wt.data(), d.kdim, gsample, d.pdim, gcol,
         d.pdim, /*accumulate=*/false, contraction_mask);

    col2im(gcol, d.cin, d.h, d.w, d.kh, d.kw, spec, d.ho, d.wo,
           &gi[static_cast<std::size_t>(b) * d.cin * d.h * d.w]);
    ws.release(smark);
  });

  // Ordered reduction: batch order, never thread-completion order.
  for (int b = 0; b < d.n; ++b) {
    const float* gwp = &gw_partial[static_cast<std::size_t>(b) * wslot];
    for (std::size_t i = 0; i < wslot; ++i) gw[i] += gwp[i];
    const float* gbp = &gb_partial[static_cast<std::size_t>(b) * d.cout];
    for (int oc = 0; oc < d.cout; ++oc) gb[oc] += gbp[oc];
  }
  cws.release(outer);
  return g;
}

}  // namespace

Conv2dGrads conv2d_backward_cached(const Tensor& input, const Tensor& weight,
                                   const Tensor& grad_output, const Conv2dSpec& spec,
                                   const std::vector<float>& col_cache,
                                   const std::uint8_t* channel_active, bool want_grad_input) {
  const ConvDims d = conv_dims(input, weight, spec);
  FC_REQUIRE(col_cache.size() == static_cast<std::size_t>(d.n) * d.kdim * d.pdim,
             "conv2d_backward column cache has the wrong size");
  return conv2d_backward_impl(input, weight, grad_output, spec, col_cache.data(),
                              channel_active, want_grad_input);
}

Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output, const Conv2dSpec& spec) {
  const ConvDims d = conv_dims(input, weight, spec);
  Workspace& ws = Workspace::tls();
  const Workspace::Mark mk = ws.mark();
  float* col = ws.alloc_floats(static_cast<std::size_t>(d.n) * d.kdim * d.pdim);
  const auto in = input.data();
  common::ambient_parallel_for(static_cast<std::size_t>(d.n), [&](std::size_t b) {
    im2col(&in[b * d.cin * d.h * d.w], d.cin, d.h, d.w, d.kh, d.kw, spec, d.ho, d.wo,
           &col[b * d.kdim * d.pdim]);
  });
  Conv2dGrads g = conv2d_backward_impl(input, weight, grad_output, spec, col, nullptr, true);
  ws.release(mk);
  return g;
}

namespace {

// One output row of a 2×2/stride-2 pool over input rows r0, r1 (base = flat
// index of r0[0]). Each step takes its element only when it is strictly
// greater than the best so far, so the first maximum wins ties. A window
// where nothing beats -inf (all NaN or all -inf) outputs its first element.
// Selects instead of branches let GCC vectorize the loop. Without argmax
// (inference) the same chain runs and only the winner's position is dropped.
template <bool kArgmax>
void maxpool_2x2_row(const float* __restrict r0, const float* __restrict r1, int wo,
                     std::int64_t base, std::int64_t w, float* __restrict out,
                     std::int64_t* __restrict argmax) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  for (int ox = 0; ox < wo; ++ox) {
    const float a = r0[2 * ox], b = r0[2 * ox + 1], c = r1[2 * ox], d = r1[2 * ox + 1];
    float best = a > kNegInf ? a : kNegInf;
    const bool tb = b > best;
    best = tb ? b : best;
    const bool tc = c > best;
    best = tc ? c : best;
    const bool td = d > best;
    best = td ? d : best;
    if constexpr (kArgmax) {
      const std::int32_t k = td ? 3 : (tc ? 2 : (tb ? 1 : 0));
      out[ox] = k == 0 ? a : best;
      argmax[ox] = base + 2 * ox + (k & 1) + (k >> 1) * w;
    } else {
      out[ox] = (tb | tc | td) ? best : a;
    }
  }
}

// Any kernel/stride, one [h, w] plane; same tie and NaN rules as above.
template <bool kArgmax>
void maxpool_plane(const float* plane, std::int64_t base, int w, int kernel, int stride,
                   int ho, int wo, float* out, std::int64_t* argmax) {
  for (int oy = 0; oy < ho; ++oy) {
    for (int ox = 0; ox < wo; ++ox) {
      const int start = oy * stride * w + ox * stride;
      const float* win = plane + start;
      float best = -std::numeric_limits<float>::infinity();
      int arg = -1;
      for (int ky = 0; ky < kernel; ++ky) {
        const float* row = win + ky * w;
        for (int kx = 0; kx < kernel; ++kx) {
          if (row[kx] > best) {
            best = row[kx];
            arg = ky * w + kx;
          }
        }
      }
      if (arg < 0) {
        arg = 0;
        best = win[0];
      }
      *out++ = best;
      if constexpr (kArgmax) *argmax++ = base + start + arg;
    }
  }
}

// Shared pool driver; with kArgmax, `argmax` is resized to one flat input
// index per output element.
template <bool kArgmax>
Tensor maxpool2d_impl(const Tensor& input, int kernel, int stride,
                      std::vector<std::int64_t>* argmax) {
  FC_REQUIRE(input.shape().rank() == 4, "maxpool input must be [N,C,H,W]");
  FC_REQUIRE(kernel > 0 && stride > 0, "maxpool kernel/stride must be positive");
  const int n = input.shape()[0], c = input.shape()[1], h = input.shape()[2],
            w = input.shape()[3];
  const int ho = (h - kernel) / stride + 1;
  const int wo = (w - kernel) / stride + 1;
  FC_REQUIRE(ho > 0 && wo > 0, "maxpool output would be empty");

  Tensor output(Shape{n, c, ho, wo});
  std::int64_t* am = nullptr;
  if constexpr (kArgmax) {
    argmax->resize(output.size());
    am = argmax->data();
  }
  const float* in = input.data().data();
  float* out = output.data().data();
  const std::size_t in_plane = static_cast<std::size_t>(h) * w;
  const std::size_t out_plane = static_cast<std::size_t>(ho) * wo;

  // Samples own disjoint input and output planes, so the batch splits across
  // threads with no change to any element's result.
  common::ambient_parallel_for(static_cast<std::size_t>(n), [&](std::size_t b) {
    for (std::size_t p = b * c; p < (b + 1) * c; ++p) {
      const float* ip = in + p * in_plane;
      const auto base = static_cast<std::int64_t>(p * in_plane);
      float* op = out + p * out_plane;
      std::int64_t* ap = kArgmax ? am + p * out_plane : nullptr;
      if (kernel == 2 && stride == 2) {
        for (int oy = 0; oy < ho; ++oy) {
          const std::size_t r = static_cast<std::size_t>(2 * oy) * w;
          const std::size_t o = static_cast<std::size_t>(oy) * wo;
          maxpool_2x2_row<kArgmax>(ip + r, ip + r + w, wo, base + static_cast<std::int64_t>(r),
                                   w, op + o, kArgmax ? ap + o : nullptr);
        }
      } else {
        maxpool_plane<kArgmax>(ip, base, w, kernel, stride, ho, wo, op, ap);
      }
    }
  });
  return output;
}

}  // namespace

Tensor maxpool2d_forward(const Tensor& input, int kernel, int stride,
                         std::vector<std::int64_t>& argmax) {
  return maxpool2d_impl<true>(input, kernel, stride, &argmax);
}

Tensor maxpool2d_infer(const Tensor& input, int kernel, int stride) {
  return maxpool2d_impl<false>(input, kernel, stride, nullptr);
}

Tensor maxpool2d_backward(const Shape& input_shape, const std::vector<std::int64_t>& argmax,
                          const Tensor& grad_output) {
  FC_REQUIRE(argmax.size() == grad_output.size(), "maxpool argmax/grad size mismatch");
  Tensor grad_in(input_shape);
  auto gi = grad_in.data();
  const auto go = grad_output.data();
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    gi[static_cast<std::size_t>(argmax[i])] += go[i];
  }
  return grad_in;
}

Tensor softmax_rows(const Tensor& logits) {
  FC_REQUIRE(logits.shape().rank() == 2, "softmax_rows requires [N,K]");
  const int n = logits.shape()[0], k = logits.shape()[1];
  Tensor out(logits.shape());
  const auto in = logits.data();
  auto ov = out.data();
  for (int i = 0; i < n; ++i) {
    const float* row = &in[static_cast<std::size_t>(i) * k];
    float* orow = &ov[static_cast<std::size_t>(i) * k];
    float mx = row[0];
    for (int j = 1; j < k; ++j) mx = std::max(mx, row[j]);
    float denom = 0.0f;
    for (int j = 0; j < k; ++j) {
      orow[j] = std::exp(row[j] - mx);
      denom += orow[j];
    }
    for (int j = 0; j < k; ++j) orow[j] /= denom;
  }
  return out;
}

std::vector<int> argmax_rows(const Tensor& t) {
  FC_REQUIRE(t.shape().rank() == 2, "argmax_rows requires [N,K]");
  const int n = t.shape()[0], k = t.shape()[1];
  std::vector<int> out(static_cast<std::size_t>(n));
  const auto v = t.data();
  for (int i = 0; i < n; ++i) {
    const float* row = &v[static_cast<std::size_t>(i) * k];
    int best = 0;
    for (int j = 1; j < k; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

std::pair<double, double> mean_stddev(std::span<const float> values) {
  FC_REQUIRE(!values.empty(), "mean_stddev of empty span");
  double mean = 0.0;
  for (float v : values) mean += v;
  mean /= static_cast<double>(values.size());
  double var = 0.0;
  for (float v : values) {
    const double d = v - mean;
    var += d * d;
  }
  var /= static_cast<double>(values.size());
  return {mean, std::sqrt(var)};
}

}  // namespace fedcleanse::tensor
