// Max pooling layer.
#pragma once

#include "nn/layer.h"
#include "tensor/ops.h"

namespace fedcleanse::nn {

class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(int kernel, int stride = 0)
      : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {
    FC_REQUIRE(kernel_ > 0 && stride_ > 0, "MaxPool2d kernel/stride must be positive");
  }

  Tensor forward(const Tensor& x) override;
  // Maxima only: no argmax, which only backward reads.
  Tensor infer(const Tensor& x) const override;
  Tensor backward(Tensor grad_out) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<MaxPool2d>(*this);
  }
  std::string name() const override { return "MaxPool2d"; }

 private:
  int kernel_;
  int stride_;
  Shape input_shape_;
  // Rewritten in place by every forward; its capacity carries across calls.
  std::vector<std::int64_t> argmax_;
};

}  // namespace fedcleanse::nn
