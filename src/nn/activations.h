// Elementwise activation layers.
#pragma once

#include "nn/layer.h"

namespace fedcleanse::nn {

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor infer(const Tensor& x) const override;
  // Masks the gradient in place.
  Tensor backward(Tensor grad_out) override;
  // When the preceding layer fused this ReLU into its epilogue, the post-relu
  // output stands in for the cached input: gating grad on y = relu(x) instead
  // of x is bit-identical (x > 0 ⇔ y > 0, and both ±0 block the gradient).
  void adopt_output(const Tensor& y) { input_cache_ = y; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<ReLU>(*this); }
  std::string name() const override { return "ReLU"; }

 private:
  Tensor input_cache_;
};

// Reshapes [N, C, H, W] (or any rank ≥ 2) to [N, features].
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor infer(const Tensor& x) const override;
  Tensor backward(Tensor grad_out) override;
  std::unique_ptr<Layer> clone() const override { return std::make_unique<Flatten>(*this); }
  std::string name() const override { return "Flatten"; }

 private:
  Shape input_shape_;
};

}  // namespace fedcleanse::nn
