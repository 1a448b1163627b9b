#include "tensor/quant.h"

#include <algorithm>
#include <cmath>

namespace fedcleanse::tensor {

const char* compute_kernel_name(ComputeKernel kernel) {
  switch (kernel) {
    case ComputeKernel::kF32: return "f32";
    case ComputeKernel::kInt8: return "int8";
  }
  return "unknown";
}

std::optional<ComputeKernel> parse_compute_kernel(const std::string& name) {
  if (name == "f32") return ComputeKernel::kF32;
  if (name == "int8") return ComputeKernel::kInt8;
  return std::nullopt;
}

float max_abs(const float* x, std::size_t n) {
  // Eight independent accumulator chains: GCC will not vectorize a single
  // fmax reduction without -ffast-math, but it will keep eight scalar
  // chains in registers, which is enough to saturate the load ports.
  float m0 = 0.0f, m1 = 0.0f, m2 = 0.0f, m3 = 0.0f;
  float m4 = 0.0f, m5 = 0.0f, m6 = 0.0f, m7 = 0.0f;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    m0 = std::max(m0, std::fabs(x[i + 0]));
    m1 = std::max(m1, std::fabs(x[i + 1]));
    m2 = std::max(m2, std::fabs(x[i + 2]));
    m3 = std::max(m3, std::fabs(x[i + 3]));
    m4 = std::max(m4, std::fabs(x[i + 4]));
    m5 = std::max(m5, std::fabs(x[i + 5]));
    m6 = std::max(m6, std::fabs(x[i + 6]));
    m7 = std::max(m7, std::fabs(x[i + 7]));
  }
  for (; i < n; ++i) m0 = std::max(m0, std::fabs(x[i]));
  return std::max(std::max(std::max(m0, m1), std::max(m2, m3)),
                  std::max(std::max(m4, m5), std::max(m6, m7)));
}

float int8_scale(float maxabs) {
  return maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
}

void quantize_s8(const float* x, std::size_t n, float scale, std::int8_t* q) {
  const float inv = 1.0f / scale;
  for (std::size_t i = 0; i < n; ++i) {
    // rintf honors the current rounding mode (nearest-even), matching the
    // vcvtps2dq lanes the vectorizer emits for this loop.
    float v = std::rintf(x[i] * inv);
    v = v < -127.0f ? -127.0f : v;
    v = v > 127.0f ? 127.0f : v;
    // NaN fails both clamps, and casting it to int is undefined: it
    // quantizes to 0, the value the AVX2 B pack's cvtps2dq lanes give it.
    v = v == v ? v : 0.0f;
    q[i] = static_cast<std::int8_t>(static_cast<int>(v));
  }
}

void dequantize_s8(const std::int8_t* q, std::size_t n, float scale, float* x) {
  for (std::size_t i = 0; i < n; ++i) x[i] = static_cast<float>(q[i]) * scale;
}

}  // namespace fedcleanse::tensor
