#include "nn/conv2d.h"

#include <algorithm>

#include "nn/init.h"

namespace fedcleanse::nn {

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, common::Rng& rng, int stride,
               int padding)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      spec_{stride, padding},
      weight_(Shape{out_channels, in_channels, kernel, kernel}),
      bias_(Shape{out_channels}),
      grad_weight_(Shape{out_channels, in_channels, kernel, kernel}),
      grad_bias_(Shape{out_channels}),
      active_(static_cast<std::size_t>(out_channels), 1) {
  FC_REQUIRE(in_channels > 0 && out_channels > 0 && kernel > 0,
             "Conv2d dims must be positive");
  kaiming_uniform(weight_, in_channels * kernel * kernel, rng);
  bias_.fill(0.0f);
}

Tensor Conv2d::forward(const Tensor& x) { return forward_conv(x, /*fuse_relu=*/false); }

Tensor Conv2d::forward_conv(const Tensor& x, bool fuse_relu) {
  input_cache_ = x;
  // Pruned channels are skipped inside the packed GEMM (and written as exact
  // zeros) rather than zeroed in a second pass over the output.
  return tensor::conv2d_forward_cached(x, weight_, bias_, spec_, col_cache_,
                                       any_pruned_ ? active_.data() : nullptr, fuse_relu);
}

Tensor Conv2d::infer(const Tensor& x) const {
  return infer_conv(x, /*fuse_relu=*/false, tensor::ComputeKernel::kF32);
}

Tensor Conv2d::infer_conv(const Tensor& x, bool fuse_relu, tensor::ComputeKernel kernel) const {
  return tensor::conv2d_infer(x, weight_, bias_, spec_, kernel, fuse_relu,
                              any_pruned_ ? active_.data() : nullptr);
}

Tensor Conv2d::backward(Tensor grad_out) { return accumulate_grads(grad_out, true); }

void Conv2d::backward_params(Tensor grad_out) { (void)accumulate_grads(grad_out, false); }

Tensor Conv2d::accumulate_grads(const Tensor& grad_out, bool want_grad_input) {
  // The channel mask makes the kernel drop pruned channels from every
  // gradient product, so the incoming gradient needs no masking copy.
  auto grads = tensor::conv2d_backward_cached(input_cache_, weight_, grad_out, spec_,
                                              col_cache_,
                                              any_pruned_ ? active_.data() : nullptr,
                                              want_grad_input);
  grad_weight_ += grads.grad_weight;
  grad_bias_ += grads.grad_bias;
  return std::move(grads.grad_input);
}

std::vector<ParamRef> Conv2d::params() {
  return {{&weight_, &grad_weight_}, {&bias_, &grad_bias_}};
}

std::unique_ptr<Layer> Conv2d::clone() const { return std::make_unique<Conv2d>(*this); }

void Conv2d::set_unit_active(int unit, bool active) {
  FC_REQUIRE(unit >= 0 && unit < out_channels_, "Conv2d channel index out of range");
  active_[static_cast<std::size_t>(unit)] = active ? 1 : 0;
  any_pruned_ = std::find(active_.begin(), active_.end(), std::uint8_t{0}) != active_.end();
  if (!active) {
    const std::size_t per_channel =
        static_cast<std::size_t>(in_channels_) * kernel_ * kernel_;
    auto wv = weight_.data();
    std::fill(&wv[static_cast<std::size_t>(unit) * per_channel],
              &wv[static_cast<std::size_t>(unit) * per_channel] + per_channel, 0.0f);
    bias_.data()[static_cast<std::size_t>(unit)] = 0.0f;
  }
}

bool Conv2d::unit_active(int unit) const {
  FC_REQUIRE(unit >= 0 && unit < out_channels_, "Conv2d channel index out of range");
  return active_[static_cast<std::size_t>(unit)] != 0;
}

std::vector<float> Conv2d::active_weights() const {
  std::vector<float> out;
  const std::size_t per_channel = static_cast<std::size_t>(in_channels_) * kernel_ * kernel_;
  out.reserve(weight_.size());
  const auto wv = weight_.data();
  for (int oc = 0; oc < out_channels_; ++oc) {
    if (!active_[static_cast<std::size_t>(oc)]) continue;
    const float* p = &wv[static_cast<std::size_t>(oc) * per_channel];
    out.insert(out.end(), p, p + per_channel);
  }
  return out;
}

}  // namespace fedcleanse::nn
