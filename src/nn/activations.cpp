#include "nn/activations.h"

namespace fedcleanse::nn {

Tensor ReLU::forward(const Tensor& x) {
  input_cache_ = x;
  return infer(x);
}

Tensor ReLU::infer(const Tensor& x) const {
  Tensor y = x;
  // Selects, not branches, so the loops vectorize; NaN fails both compares
  // and passes through unchanged.
  for (auto& v : y.storage()) v = v < 0.0f ? 0.0f : v;
  return y;
}

Tensor ReLU::backward(Tensor grad_out) {
  FC_REQUIRE(grad_out.shape() == input_cache_.shape(), "ReLU backward shape mismatch");
  const auto in = input_cache_.data();
  auto gv = grad_out.data();
  // Select form as in forward: a NaN input fails `<= 0` and keeps its gradient.
  for (std::size_t i = 0; i < gv.size(); ++i) gv[i] = in[i] <= 0.0f ? 0.0f : gv[i];
  return grad_out;
}

Tensor Flatten::forward(const Tensor& x) {
  Tensor y = infer(x);
  input_shape_ = x.shape();
  return y;
}

Tensor Flatten::infer(const Tensor& x) const {
  FC_REQUIRE(x.shape().rank() >= 2, "Flatten expects at least 2-D input");
  const int n = x.shape()[0];
  const int features = static_cast<int>(x.size() / static_cast<std::size_t>(n));
  return x.reshaped(Shape{n, features});
}

Tensor Flatten::backward(Tensor grad_out) {
  return std::move(grad_out).reshaped(input_shape_);
}

}  // namespace fedcleanse::nn
