// Dense row-major float tensor (NCHW convention for image batches).
//
// This is the numeric substrate for the whole repo: the NN layers, the
// federated averaging math, and the defense algorithms all operate on
// Tensor or on its flat float storage. Deliberately minimal: contiguous
// float32 storage, value semantics, shape-checked arithmetic, no strides,
// no broadcasting beyond scalar ops.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/serialize.h"

namespace fedcleanse::tensor {

// Tensor shape: up to a handful of dimensions, all positive.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<int> dims) : dims_(dims) { validate(); }
  explicit Shape(std::vector<int> dims) : dims_(std::move(dims)) { validate(); }

  int rank() const { return static_cast<int>(dims_.size()); }
  int operator[](int i) const { return dims_[static_cast<std::size_t>(i)]; }
  std::size_t numel() const;
  const std::vector<int>& dims() const { return dims_; }
  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }
  std::string to_string() const;

 private:
  void validate() const;
  std::vector<int> dims_;
};

class Tensor {
 public:
  Tensor() = default;
  // Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);
  Tensor(Shape shape, std::vector<float> data);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value);
  static Tensor ones(Shape shape) { return full(std::move(shape), 1.0f); }
  // I.i.d. N(mean, stddev).
  static Tensor randn(Shape shape, common::Rng& rng, float mean = 0.0f,
                      float stddev = 1.0f);
  // I.i.d. U[lo, hi).
  static Tensor rand_uniform(Shape shape, common::Rng& rng, float lo, float hi);

  const Shape& shape() const { return shape_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  std::span<float> data() { return std::span<float>(data_); }
  std::span<const float> data() const { return std::span<const float>(data_); }
  std::vector<float>& storage() { return data_; }
  const std::vector<float>& storage() const { return data_; }

  // Element access. 1-4D overloads with debug-friendly bounds behaviour:
  // index arithmetic is unchecked in release hot loops, but the flat
  // accessors validate.
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  float& at(int i);
  float at(int i) const;
  float& at(int i, int j);
  float at(int i, int j) const;
  float& at(int i, int j, int k);
  float at(int i, int j, int k) const;
  float& at(int i, int j, int k, int l);
  float at(int i, int j, int k, int l) const;

  // Reinterpret with a new shape of identical numel. The rvalue overload
  // moves the storage instead of copying it.
  Tensor reshaped(Shape new_shape) const&;
  Tensor reshaped(Shape new_shape) &&;

  // Elementwise in-place arithmetic (shape-checked).
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(const Tensor& other);
  Tensor& operator*=(float s);
  Tensor& operator+=(float s);

  // `this += scale * other` (axpy); the FedAvg workhorse.
  void add_scaled(const Tensor& other, float scale);
  void fill(float value);

  // Reductions.
  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  // L2 norm of the flat data.
  float norm() const;

  void serialize(common::ByteWriter& w) const;
  static Tensor deserialize(common::ByteReader& r);

 private:
  void check_same_shape(const Tensor& other, const char* op) const;
  Shape shape_;
  std::vector<float> data_;
};

// Free-function arithmetic returning new tensors.
Tensor operator+(Tensor a, const Tensor& b);
Tensor operator-(Tensor a, const Tensor& b);
Tensor operator*(Tensor a, float s);

}  // namespace fedcleanse::tensor
