// 2-D convolution layer with per-output-channel prune masking.
//
// A "neuron" in the paper's pruning discussion corresponds to an output
// channel of this layer (feature-map pruning, as in fine-pruning).
#pragma once

#include "common/rng.h"
#include "nn/layer.h"
#include "tensor/ops.h"

namespace fedcleanse::nn {

class Conv2d : public Layer {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, common::Rng& rng, int stride = 1,
         int padding = 0);

  Tensor forward(const Tensor& x) override;
  // Forward with an optional fused ReLU epilogue, bit-identical to a
  // trailing nn::ReLU. forward(x) ≡ forward_conv(x, false).
  Tensor forward_conv(const Tensor& x, bool fuse_relu);
  Tensor infer(const Tensor& x) const override;
  // infer with the same optional ReLU epilogue and a per-call compute kernel
  // for the quantized scan paths. infer(x) ≡ infer_conv(x, false, kF32).
  Tensor infer_conv(const Tensor& x, bool fuse_relu, tensor::ComputeKernel kernel) const;
  Tensor backward(Tensor grad_out) override;
  // Skips the gcol GEMM, the col2im scatter and the grad_input allocation.
  void backward_params(Tensor grad_out) override;
  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "Conv2d"; }

  int prunable_units() const override { return out_channels_; }
  void set_unit_active(int unit, bool active) override;
  bool unit_active(int unit) const override;
  std::vector<std::uint8_t> prune_mask() const override { return active_; }

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int kernel() const { return kernel_; }
  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }
  // Weights of active (unpruned) channels, flattened — the population over
  // which AdjustExtremeWeights computes μ and σ.
  std::vector<float> active_weights() const;

 private:
  // Shared body of backward/backward_params; returns dLoss/dInput, empty
  // when want_grad_input is false.
  Tensor accumulate_grads(const Tensor& grad_out, bool want_grad_input);

  int in_channels_;
  int out_channels_;
  int kernel_;
  tensor::Conv2dSpec spec_;
  Tensor weight_;  // [out, in, k, k]
  Tensor bias_;    // [out]
  Tensor grad_weight_;
  Tensor grad_bias_;
  std::vector<std::uint8_t> active_;
  // True iff any entry of active_ is 0; lets forward/backward skip the
  // per-channel mask scan in the common fully-active case.
  bool any_pruned_ = false;
  Tensor input_cache_;
  // im2col buffer from the last forward, reused by backward.
  std::vector<float> col_cache_;
};

}  // namespace fedcleanse::nn
