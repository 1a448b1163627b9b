// Microbenchmarks: the numeric kernels and aggregation rules that dominate
// simulation time, each timed serially and on an N-thread pool (N from
// FEDCLEANSE_THREADS, default hardware concurrency). Prints a table and
// writes BENCH_micro_ops.json for machine consumption.
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "fl/aggregation.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/quant.h"

using namespace fedcleanse;

namespace {

std::string qgemm_size(int m, int k, int n) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "m%d_k%d_n%d", m, k, n);
  return buf;
}

std::string matmul_size(int n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "n%d", n);
  return buf;
}

std::string batch_size(int batch, int channels) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "b%d_c%d", batch, channels);
  return buf;
}

std::vector<std::vector<float>> make_updates(int n, int dim) {
  common::Rng rng(7);
  std::vector<std::vector<float>> updates(static_cast<std::size_t>(n));
  for (auto& u : updates) {
    u.resize(static_cast<std::size_t>(dim));
    for (auto& v : u) v = static_cast<float>(rng.normal());
  }
  return updates;
}

// 10×10 input, 3×3 kernel, stride 1, pad 1 → 10×10 output; im2col GEMM is
// [cout, cin·k·k] × [cin·k·k, ho·wo] per sample.
double conv_gemm_flops(int batch, int channels) {
  return 2.0 * batch * channels * (16.0 * 3 * 3) * (10.0 * 10);
}

bench::MicroRecord conv_forward(common::ThreadPool& pool, int batch, int channels) {
  common::Rng rng(1);
  auto x = tensor::Tensor::randn({batch, 16, 10, 10}, rng);
  auto w = tensor::Tensor::randn({channels, 16, 3, 3}, rng, 0.0f, 0.1f);
  auto b = tensor::Tensor::zeros({channels});
  tensor::Conv2dSpec spec{1, 1};
  std::vector<float> cache;
  auto rec = bench::time_serial_vs_threaded(
      "conv2d_forward", batch_size(batch, channels), pool,
      [&] {
        auto y = tensor::conv2d_forward_cached(x, w, b, spec, cache);
        bench::do_not_optimize(y.data().data());
      });
  rec.kernel = "gemm_packed";
  rec.flops_per_iter = conv_gemm_flops(batch, channels);
  return rec;
}

bench::MicroRecord conv_backward(common::ThreadPool& pool, int batch, int channels) {
  common::Rng rng(1);
  auto x = tensor::Tensor::randn({batch, 16, 10, 10}, rng);
  auto w = tensor::Tensor::randn({channels, 16, 3, 3}, rng, 0.0f, 0.1f);
  auto b = tensor::Tensor::zeros({channels});
  tensor::Conv2dSpec spec{1, 1};
  std::vector<float> cache;
  auto y = tensor::conv2d_forward_cached(x, w, b, spec, cache);
  auto rec = bench::time_serial_vs_threaded(
      "conv2d_backward", batch_size(batch, channels), pool,
      [&] {
        auto g = tensor::conv2d_backward_cached(x, w, y, spec, cache);
        bench::do_not_optimize(g.grad_weight.data().data());
      });
  rec.kernel = "gemm_packed";
  rec.flops_per_iter = 2.0 * conv_gemm_flops(batch, channels);  // gw GEMM + gcol GEMM
  return rec;
}

bench::MicroRecord matmul(common::ThreadPool& pool, int n) {
  common::Rng rng(1);
  auto a = tensor::Tensor::randn({n, n}, rng);
  auto b = tensor::Tensor::randn({n, n}, rng);
  auto rec = bench::time_serial_vs_threaded("matmul", matmul_size(n), pool, [&] {
    auto c = tensor::matmul(a, b);
    bench::do_not_optimize(c.data().data());
  });
  rec.kernel = "gemm_packed";
  rec.flops_per_iter = 2.0 * n * n * double(n);
  return rec;
}

// Quantized GEMM rows at convolution-shaped problems (m=cout, k=cin·kh·kw,
// n=ho·wo). The f32/int8 pair shares op+size so bench_compare.py can track
// the quantized speedup row-for-row. The int8 row times the real scan
// path: the weight operand is packed+quantized once (as conv2d_infer
// does per batch), the activation operand quantizes inside the call.
bench::MicroRecord qgemm_f32(common::ThreadPool& pool, int m, int k, int n) {
  common::Rng rng(3);
  auto a = tensor::Tensor::randn({m, k}, rng, 0.0f, 0.5f);
  auto b = tensor::Tensor::randn({k, n}, rng, 0.0f, 0.5f);
  tensor::Tensor c(tensor::Shape{m, n});
  const std::string size = qgemm_size(m, k, n);
  auto rec = bench::time_serial_vs_threaded("qgemm", size, pool, [&] {
    tensor::gemm(false, false, m, n, k, a.data().data(), k, b.data().data(), n,
                 c.data().data(), n, /*accumulate=*/false);
    bench::do_not_optimize(c.data().data());
  });
  rec.kernel = "f32_packed";
  rec.flops_per_iter = 2.0 * m * n * double(k);
  return rec;
}

bench::MicroRecord qgemm_int8(common::ThreadPool& pool, int m, int k, int n) {
  common::Rng rng(3);
  auto a = tensor::Tensor::randn({m, k}, rng, 0.0f, 0.5f);
  auto b = tensor::Tensor::randn({k, n}, rng, 0.0f, 0.5f);
  tensor::Tensor c(tensor::Shape{m, n});
  const auto pa = tensor::pack_a_int8(a.data().data(), k, m, k, /*per_channel=*/true);
  const std::string size = qgemm_size(m, k, n);
  auto rec = bench::time_serial_vs_threaded("qgemm", size, pool, [&] {
    tensor::gemm_s8(pa, n, b.data().data(), n, c.data().data(), n, /*accumulate=*/false);
    bench::do_not_optimize(c.data().data());
  });
  rec.kernel = "int8_prepacked";
  rec.flops_per_iter = 2.0 * m * n * double(k);
  return rec;
}

// conv+bias+ReLU as one GEMM epilogue versus the pre-fusion layer pipeline:
// conv, then a separate ReLU pass that (like nn::ReLU::forward) writes a
// fresh output tensor. Same op+size, distinct kernel tags.
bench::MicroRecord conv_relu(common::ThreadPool& pool, int batch, int channels,
                             bool fused) {
  common::Rng rng(1);
  auto x = tensor::Tensor::randn({batch, 16, 10, 10}, rng);
  auto w = tensor::Tensor::randn({channels, 16, 3, 3}, rng, 0.0f, 0.1f);
  auto b = tensor::Tensor::zeros({channels});
  tensor::Conv2dSpec spec{1, 1};
  std::vector<float> cache;
  auto rec = bench::time_serial_vs_threaded(
      "conv2d_relu", batch_size(batch, channels), pool,
      [&] {
        auto y = tensor::conv2d_forward_cached(x, w, b, spec, cache, nullptr, fused);
        if (!fused) {
          tensor::Tensor out(y.shape());
          const auto& src = y.storage();
          auto& dst = out.storage();
          for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i] < 0.0f ? 0.0f : src[i];
          bench::do_not_optimize(dst.data());
          return;
        }
        bench::do_not_optimize(y.data().data());
      });
  rec.kernel = fused ? "fused_epilogue" : "unfused";
  rec.flops_per_iter = conv_gemm_flops(batch, channels);
  return rec;
}

}  // namespace

int main() {
  bench::init_env();
  const std::size_t threads = common::resolve_n_threads(0);
  common::ThreadPool pool(threads);

  std::vector<bench::MicroRecord> records;
  for (int channels : {16, 32, 64}) records.push_back(conv_forward(pool, 32, channels));
  records.push_back(conv_forward(pool, 8, 32));
  for (int channels : {16, 32}) records.push_back(conv_backward(pool, 32, channels));
  records.push_back(conv_backward(pool, 8, 32));
  for (int n : {64, 256, 512}) records.push_back(matmul(pool, n));

  // Quantized kernels at conv-shaped GEMMs (m=cout, k=cin·kh·kw, n=ho·wo).
  for (const auto& [m, k, n] :
       {std::tuple{32, 144, 100}, std::tuple{64, 576, 64}, std::tuple{50, 500, 16}}) {
    records.push_back(qgemm_f32(pool, m, k, n));
    records.push_back(qgemm_int8(pool, m, k, n));
  }
  for (bool fused : {false, true}) records.push_back(conv_relu(pool, 32, 32, fused));

  // Aggregation rules have no parallel path (yet); timed serially for the
  // trajectory, with both columns reporting the same configuration.
  {
    auto updates = make_updates(10, 100000);
    records.push_back(bench::time_serial_vs_threaded("fedavg", "10x100k", pool, [&] {
      auto m = fl::mean_update(updates);
      bench::do_not_optimize(m.data());
    }));
  }
  {
    auto updates = make_updates(30, 10000);
    records.push_back(bench::time_serial_vs_threaded("krum", "30x10k", pool, [&] {
      auto m = fl::krum(updates, 2);
      bench::do_not_optimize(m.data());
    }));
  }
  {
    auto updates = make_updates(10, 100000);
    records.push_back(bench::time_serial_vs_threaded("median", "10x100k", pool, [&] {
      auto m = fl::coordinate_median(updates);
      bench::do_not_optimize(m.data());
    }));
  }

  std::printf("%-16s %-10s %-13s %14s %14s %9s %9s   (%zu threads)\n", "op", "size",
              "kernel", "serial ns/it", "pooled ns/it", "speedup", "GFLOP/s", threads);
  bench::print_rule(96);
  for (const auto& r : records) {
    std::printf("%-16s %-10s %-13s %14.0f %14.0f %8.2fx ", r.op.c_str(), r.size.c_str(),
                r.kernel.empty() ? "-" : r.kernel.c_str(), r.serial_ns, r.threaded_ns,
                r.speedup());
    if (r.flops_per_iter > 0.0) {
      std::printf("%9.2f\n", r.gflops_serial());
    } else {
      std::printf("%9s\n", "-");
    }
  }

  const std::string json_path = "BENCH_micro_ops.json";
  bench::write_micro_json(json_path, records, threads);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
