#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace fedcleanse::tensor {

void Shape::validate() const {
  for (int d : dims_) {
    FC_REQUIRE(d > 0, "shape dimensions must be positive, got " + std::to_string(d));
  }
}

std::size_t Shape::numel() const {
  std::size_t n = 1;
  for (int d : dims_) n *= static_cast<std::size_t>(d);
  return dims_.empty() ? 0 : n;
}

std::string Shape::to_string() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i) os << ", ";
    os << dims_[i];
  }
  os << "]";
  return os.str();
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)), data_(shape_.numel(), 0.0f) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  FC_REQUIRE(data_.size() == shape_.numel(),
             "data size " + std::to_string(data_.size()) + " does not match shape " +
                 shape_.to_string());
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(Shape shape, common::Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  for (auto& x : t.data_) x = static_cast<float>(rng.normal(mean, stddev));
  return t;
}

Tensor Tensor::rand_uniform(Shape shape, common::Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& x : t.data_) x = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

float& Tensor::at(int i) {
  FC_REQUIRE(shape_.rank() == 1, "at(i) on tensor of shape " + shape_.to_string());
  return data_[static_cast<std::size_t>(i)];
}
float Tensor::at(int i) const { return const_cast<Tensor*>(this)->at(i); }

float& Tensor::at(int i, int j) {
  FC_REQUIRE(shape_.rank() == 2, "at(i,j) on tensor of shape " + shape_.to_string());
  return data_[static_cast<std::size_t>(i) * shape_[1] + j];
}
float Tensor::at(int i, int j) const { return const_cast<Tensor*>(this)->at(i, j); }

float& Tensor::at(int i, int j, int k) {
  FC_REQUIRE(shape_.rank() == 3, "at(i,j,k) on tensor of shape " + shape_.to_string());
  return data_[(static_cast<std::size_t>(i) * shape_[1] + j) * shape_[2] + k];
}
float Tensor::at(int i, int j, int k) const {
  return const_cast<Tensor*>(this)->at(i, j, k);
}

float& Tensor::at(int i, int j, int k, int l) {
  FC_REQUIRE(shape_.rank() == 4, "at(i,j,k,l) on tensor of shape " + shape_.to_string());
  return data_[((static_cast<std::size_t>(i) * shape_[1] + j) * shape_[2] + k) * shape_[3] +
               l];
}
float Tensor::at(int i, int j, int k, int l) const {
  return const_cast<Tensor*>(this)->at(i, j, k, l);
}

Tensor Tensor::reshaped(Shape new_shape) const& {
  return Tensor(*this).reshaped(std::move(new_shape));
}

Tensor Tensor::reshaped(Shape new_shape) && {
  FC_REQUIRE(new_shape.numel() == shape_.numel(),
             "reshape " + shape_.to_string() + " -> " + new_shape.to_string() +
                 " changes element count");
  return Tensor(std::move(new_shape), std::move(data_));
}

void Tensor::check_same_shape(const Tensor& other, const char* op) const {
  if (shape_ != other.shape_) {
    throw ShapeError(std::string(op) + ": " + shape_.to_string() + " vs " +
                     other.shape_.to_string());
  }
}

Tensor& Tensor::operator+=(const Tensor& other) {
  check_same_shape(other, "operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  check_same_shape(other, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(const Tensor& other) {
  check_same_shape(other, "operator*=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (auto& x : data_) x *= s;
  return *this;
}

Tensor& Tensor::operator+=(float s) {
  for (auto& x : data_) x += s;
  return *this;
}

void Tensor::add_scaled(const Tensor& other, float scale) {
  check_same_shape(other, "add_scaled");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += scale * other.data_[i];
}

void Tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

float Tensor::sum() const { return std::accumulate(data_.begin(), data_.end(), 0.0f); }

float Tensor::mean() const {
  FC_REQUIRE(!data_.empty(), "mean of empty tensor");
  return sum() / static_cast<float>(data_.size());
}

float Tensor::min() const {
  FC_REQUIRE(!data_.empty(), "min of empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  FC_REQUIRE(!data_.empty(), "max of empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::norm() const {
  double s = 0.0;
  for (float x : data_) s += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(s));
}

void Tensor::serialize(common::ByteWriter& w) const {
  w.write_u32(static_cast<std::uint32_t>(shape_.rank()));
  for (int d : shape_.dims()) w.write_i32(d);
  w.write_f32_vector(data_);
}

Tensor Tensor::deserialize(common::ByteReader& r) {
  std::uint32_t rank = r.read_u32();
  FC_REQUIRE(rank <= 8, "implausible tensor rank in payload");
  std::vector<int> dims(rank);
  for (auto& d : dims) d = r.read_i32();
  std::vector<float> data = r.read_f32_vector();
  return Tensor(Shape(std::move(dims)), std::move(data));
}

Tensor operator+(Tensor a, const Tensor& b) {
  a += b;
  return a;
}

Tensor operator-(Tensor a, const Tensor& b) {
  a -= b;
  return a;
}

Tensor operator*(Tensor a, float s) {
  a *= s;
  return a;
}

}  // namespace fedcleanse::tensor
