// Numeric kernels on Tensor: matrix multiply, 2-D convolution and pooling
// (forward + backward), row softmax, and weight statistics. These are the
// testable primitives that the nn layers delegate to.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace fedcleanse::tensor {

// C[m,n] = A[m,k] · B[k,n].
Tensor matmul(const Tensor& a, const Tensor& b);
// C[k_a?,..] with optional transposes: computes op(A) · op(B) where
// op transposes the 2-D argument when the flag is set.
Tensor matmul_t(const Tensor& a, bool transpose_a, const Tensor& b, bool transpose_b);

struct Conv2dSpec {
  int stride = 1;
  int padding = 0;
};

// input [N, Cin, H, W], weight [Cout, Cin, kh, kw], bias [Cout]
// → output [N, Cout, Ho, Wo] with Ho = (H + 2p − kh)/s + 1.
Tensor conv2d_forward(const Tensor& input, const Tensor& weight, const Tensor& bias,
                      const Conv2dSpec& spec);

struct Conv2dGrads {
  Tensor grad_input;
  Tensor grad_weight;
  Tensor grad_bias;
};

Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output, const Conv2dSpec& spec);

// im2col: unfold one image's receptive fields into a [kdim, pdim] column
// buffer (kdim = Cin·kh·kw, pdim = Ho·Wo). Shared by conv forward/backward;
// the NN layer caches the result so backward skips the rebuild.
void im2col(const float* image, int cin, int h, int w, int kh, int kw,
            const Conv2dSpec& spec, int ho, int wo, float* col);
// col2im: the adjoint of im2col — adds every column entry back onto the
// image pixel it was read from (`image` accumulates, in column order).
void col2im(const float* col, int cin, int h, int w, int kh, int kw, const Conv2dSpec& spec,
            int ho, int wo, float* image);

// Variants that reuse a caller-provided column cache holding the unfolded
// batch ([N][kdim·pdim], concatenated). `channel_active` (optional, [Cout])
// marks pruned output channels: inactive channels are skipped in the packed
// GEMMs — forward writes exact zeros for them, backward produces exact-zero
// grad_weight/grad_bias rows and drops them from the grad_input contraction.
// `fuse_relu` applies max(0, ·) inside the GEMM epilogue — bit-identical to
// running nn::ReLU over the returned tensor (including -0.0f preservation),
// but without the extra pass over memory.
Tensor conv2d_forward_cached(const Tensor& input, const Tensor& weight, const Tensor& bias,
                             const Conv2dSpec& spec, std::vector<float>& col_cache,
                             const std::uint8_t* channel_active = nullptr,
                             bool fuse_relu = false);
// Inference conv forward: the same output as conv2d_forward_cached, bit for
// bit, but no column cache — each sample unfolds into scratch taken from its
// executing thread's Workspace and released before the next sample. `kernel`
// picks the GEMM: kInt8 (the activation-profiling scans) packs the weights
// once per call and quantizes activations inside the pack; pruned channels
// need no mask there, because set_unit_active zeroes their weights and bias,
// so they quantize to zero rows and stay exact zeros. kInt8 falls back to
// fp32 when the spatial extent exceeds the int8 kernel's single-pass column
// limit (kGemmNC).
Tensor conv2d_infer(const Tensor& input, const Tensor& weight, const Tensor& bias,
                    const Conv2dSpec& spec, ComputeKernel kernel = ComputeKernel::kF32,
                    bool fuse_relu = false, const std::uint8_t* channel_active = nullptr);
// want_grad_input = false computes grad_weight/grad_bias only (bit-identical
// to the full call) and leaves grad_input empty: no gcol GEMM, no col2im.
Conv2dGrads conv2d_backward_cached(const Tensor& input, const Tensor& weight,
                                   const Tensor& grad_output, const Conv2dSpec& spec,
                                   const std::vector<float>& col_cache,
                                   const std::uint8_t* channel_active = nullptr,
                                   bool want_grad_input = true);

// Non-overlapping (stride == kernel) and overlapping max pooling. `argmax`
// receives the flat input index of every output element's maximum, for
// backward; it is resized in place, so a caller that keeps it between calls
// allocates it once. Ties and windows with no comparable maximum (all NaN or
// all -inf) take the window's first element, so every argmax is a valid
// input index. 2×2 windows at stride 2 run a vectorized path.
Tensor maxpool2d_forward(const Tensor& input, int kernel, int stride,
                         std::vector<std::int64_t>& argmax);
// The same output with no argmax, for forwards that never run backward.
Tensor maxpool2d_infer(const Tensor& input, int kernel, int stride);
Tensor maxpool2d_backward(const Shape& input_shape, const std::vector<std::int64_t>& argmax,
                          const Tensor& grad_output);

// Row-wise softmax of logits [N, K].
Tensor softmax_rows(const Tensor& logits);
// Row-wise argmax of [N, K].
std::vector<int> argmax_rows(const Tensor& t);

// Mean and standard deviation (population) of a float span.
std::pair<double, double> mean_stddev(std::span<const float> values);

}  // namespace fedcleanse::tensor
