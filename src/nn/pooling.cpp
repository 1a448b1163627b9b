#include "nn/pooling.h"

namespace fedcleanse::nn {

Tensor MaxPool2d::forward(const Tensor& x) {
  input_shape_ = x.shape();
  return tensor::maxpool2d_forward(x, kernel_, stride_, argmax_);
}

Tensor MaxPool2d::infer(const Tensor& x) const {
  return tensor::maxpool2d_infer(x, kernel_, stride_);
}

Tensor MaxPool2d::backward(Tensor grad_out) {
  return tensor::maxpool2d_backward(input_shape_, argmax_, grad_out);
}

}  // namespace fedcleanse::nn
