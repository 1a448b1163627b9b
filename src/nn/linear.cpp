#include "nn/linear.h"

#include <algorithm>

#include "nn/init.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace fedcleanse::nn {

Linear::Linear(int in_features, int out_features, common::Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Shape{out_features, in_features}),
      bias_(Shape{out_features}),
      grad_weight_(Shape{out_features, in_features}),
      grad_bias_(Shape{out_features}),
      active_(static_cast<std::size_t>(out_features), 1) {
  FC_REQUIRE(in_features > 0 && out_features > 0, "Linear dims must be positive");
  kaiming_uniform(weight_, in_features, rng);
  bias_.fill(0.0f);
}

Tensor Linear::forward(const Tensor& x) {
  Tensor y = infer(x);
  input_cache_ = x;
  return y;
}

Tensor Linear::infer(const Tensor& x) const {
  FC_REQUIRE(x.shape().rank() == 2 && x.shape()[1] == in_features_,
             "Linear forward expects [N," + std::to_string(in_features_) + "], got " +
                 x.shape().to_string());
  const int n = x.shape()[0];
  if (!any_pruned_) {
    // Bias rides in the GEMM's col_bias epilogue — the same c + b[j] float
    // add the explicit loop below performs, without re-reading the output.
    Tensor y(tensor::Shape{n, out_features_});
    tensor::gemm(false, true, n, out_features_, in_features_, x.data().data(), in_features_,
                 weight_.data().data(), in_features_, y.data().data(), out_features_,
                 /*accumulate=*/false, {}, tensor::GemmEpilogue{nullptr, bias_.data().data()});
    return y;
  }
  Tensor y = tensor::matmul_t(x, false, weight_, true);  // [N, out]
  auto yv = y.data();
  const auto bv = bias_.data();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < out_features_; ++j) {
      auto& cell = yv[static_cast<std::size_t>(i) * out_features_ + j];
      cell = active_[static_cast<std::size_t>(j)] ? cell + bv[j] : 0.0f;
    }
  }
  return y;
}

Tensor Linear::forward_softmax(const Tensor& x) {
  if (any_pruned_ || out_features_ > tensor::kGemmNC) {
    return tensor::softmax_rows(forward(x));
  }
  FC_REQUIRE(x.shape().rank() == 2 && x.shape()[1] == in_features_,
             "Linear forward expects [N," + std::to_string(in_features_) + "], got " +
                 x.shape().to_string());
  input_cache_ = x;
  const int n = x.shape()[0];
  Tensor y(tensor::Shape{n, out_features_});
  tensor::gemm(false, true, n, out_features_, in_features_, x.data().data(), in_features_,
               weight_.data().data(), in_features_, y.data().data(), out_features_,
               /*accumulate=*/false, {},
               tensor::GemmEpilogue{nullptr, bias_.data().data(), false, true});
  return y;
}

Tensor Linear::backward(Tensor grad_out) {
  FC_REQUIRE(grad_out.shape().rank() == 2 && grad_out.shape()[1] == out_features_,
             "Linear backward grad shape mismatch");
  // Pruned units contribute no gradient anywhere: instead of zeroing a copy
  // of grad_out, their rows are skipped in the GEMMs and the bias sum, which
  // leaves the same exact zeros without the copy.
  const int n = grad_out.shape()[0];
  const auto gv = grad_out.data();
  // grad_weight += gradᵀ · x, accumulated in place (no temporary tensor).
  tensor::gemm(true, false, out_features_, in_features_, n, gv.data(), out_features_,
               input_cache_.data().data(), in_features_, grad_weight_.data().data(),
               in_features_, /*accumulate=*/true,
               tensor::GemmMask{active_.data(), nullptr});
  auto gb = grad_bias_.data();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < out_features_; ++j) {
      if (active_[static_cast<std::size_t>(j)]) {
        gb[j] += gv[static_cast<std::size_t>(i) * out_features_ + j];
      }
    }
  }
  // grad_input = grad · W, with pruned units dropped from the contraction.
  Tensor gx(Shape{n, in_features_});
  tensor::gemm(false, false, n, in_features_, out_features_, gv.data(), out_features_,
               weight_.data().data(), in_features_, gx.data().data(), in_features_,
               /*accumulate=*/false, tensor::GemmMask{nullptr, active_.data()});
  return gx;
}

std::vector<ParamRef> Linear::params() {
  return {{&weight_, &grad_weight_}, {&bias_, &grad_bias_}};
}

std::unique_ptr<Layer> Linear::clone() const {
  auto copy = std::make_unique<Linear>(*this);
  return copy;
}

void Linear::set_unit_active(int unit, bool active) {
  FC_REQUIRE(unit >= 0 && unit < out_features_, "Linear unit index out of range");
  active_[static_cast<std::size_t>(unit)] = active ? 1 : 0;
  any_pruned_ = std::find(active_.begin(), active_.end(), std::uint8_t{0}) != active_.end();
  if (!active) {
    auto wv = weight_.data();
    for (int j = 0; j < in_features_; ++j) {
      wv[static_cast<std::size_t>(unit) * in_features_ + j] = 0.0f;
    }
    bias_.data()[static_cast<std::size_t>(unit)] = 0.0f;
  }
}

bool Linear::unit_active(int unit) const {
  FC_REQUIRE(unit >= 0 && unit < out_features_, "Linear unit index out of range");
  return active_[static_cast<std::size_t>(unit)] != 0;
}

}  // namespace fedcleanse::nn
