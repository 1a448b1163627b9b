// Sequential::infer — the const, cache-free forward behind evaluation and the
// defense's activation scans — and the slice-parallel fl::evaluate_accuracy
// built on it. infer must reproduce the training forward bit for bit, a
// sample's logits must not depend on the batch that carries it, and any
// number of threads must be able to run infer on one shared model.
#include <gtest/gtest.h>

#include <thread>

#include "common/rng.h"
#include "common/threadpool.h"
#include "data/synth.h"
#include "fl/metrics.h"
#include "nn/conv2d.h"
#include "nn/model_zoo.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"

using namespace fedcleanse;
using namespace fedcleanse::nn;
using fedcleanse::common::Rng;
using tensor::ComputeKernel;
using tensor::Tensor;

namespace {

constexpr Architecture kArchs[] = {Architecture::kMnistCnn, Architecture::kFashionCnn,
                                   Architecture::kVggSmall, Architecture::kSmallNn,
                                   Architecture::kLargeNn};

class AmbientPoolGuard {
 public:
  explicit AmbientPoolGuard(common::ThreadPool* pool) : previous_(common::ambient_pool()) {
    common::set_ambient_pool(pool);
  }
  ~AmbientPoolGuard() { common::set_ambient_pool(previous_); }
  AmbientPoolGuard(const AmbientPoolGuard&) = delete;
  AmbientPoolGuard& operator=(const AmbientPoolGuard&) = delete;

 private:
  common::ThreadPool* previous_;
};

// A zoo model, optionally with pruned channels in layer 0 and the pruning
// layer and a pruned unit in the first Linear layer.
ModelSpec make_spec(Architecture arch, bool pruned, std::uint64_t seed = 31) {
  Rng rng(seed);
  auto spec = make_model(arch, rng);
  if (pruned) {
    spec.net.layer(0).set_unit_active(1, false);
    spec.net.layer(spec.last_conv_index).set_unit_active(0, false);
    spec.net.layer(spec.last_conv_index).set_unit_active(3, false);
    for (int i = 0; i < spec.net.size(); ++i) {
      if (spec.net.layer(i).name() == "Linear") {
        spec.net.layer(i).set_unit_active(2, false);
        break;
      }
    }
  }
  return spec;
}

Tensor random_batch(const ModelSpec& spec, int n, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::rand_uniform(
      tensor::Shape{n, spec.input_shape[0], spec.input_shape[1], spec.input_shape[2]}, rng,
      0.0f, 1.0f);
}

// Every layer's output, one layer at a time with no fusion: convolutions
// through infer_conv under `kernel` with no ReLU epilogue, every other layer
// through its training forward.
std::vector<Tensor> unfused_outputs(ModelSpec& spec, const Tensor& x, ComputeKernel kernel) {
  std::vector<Tensor> outs;
  Tensor cur = x;
  for (int i = 0; i < spec.net.size(); ++i) {
    Layer& layer = spec.net.layer(i);
    if (const auto* conv = dynamic_cast<const Conv2d*>(&layer)) {
      cur = conv->infer_conv(cur, /*fuse_relu=*/false, kernel);
    } else {
      cur = layer.forward(cur);
    }
    outs.push_back(cur);
  }
  return outs;
}

// Row r of a [N, K] tensor.
std::vector<float> row(const Tensor& t, int r) {
  const int k = t.shape()[1];
  const auto v = t.data();
  return {v.begin() + static_cast<std::ptrdiff_t>(r) * k,
          v.begin() + static_cast<std::ptrdiff_t>(r + 1) * k};
}

}  // namespace

// infer equals the training forward and the layer-by-layer pipeline bit for
// bit: every zoo architecture, with and without pruned units, f32 and int8,
// with a tap at every layer. A tap on a conv sees pre-activation values.
TEST(Infer, MatchesForwardBitwise) {
  for (auto arch : kArchs) {
    for (const bool pruned : {false, true}) {
      auto spec = make_spec(arch, pruned);
      const Tensor x = random_batch(spec, 5, 7);
      const std::string where = std::string(arch_name(arch)) + (pruned ? " pruned" : "");

      Sequential trained_path = spec.net.clone();
      EXPECT_EQ(spec.net.infer(x).storage(), trained_path.forward(x).storage()) << where;

      for (auto kernel : {ComputeKernel::kF32, ComputeKernel::kInt8}) {
        const auto ref = unfused_outputs(spec, x, kernel);
        const std::string wk = where + (kernel == ComputeKernel::kInt8 ? " int8" : " f32");
        EXPECT_EQ(spec.net.infer(x, -1, nullptr, kernel).storage(), ref.back().storage())
            << wk;
        for (int tap = 0; tap < spec.net.size(); ++tap) {
          Tensor tapped;
          const Tensor out = spec.net.infer(x, tap, &tapped, kernel);
          EXPECT_EQ(tapped.shape(), ref[static_cast<std::size_t>(tap)].shape())
              << wk << " tap " << tap;
          EXPECT_EQ(tapped.storage(), ref[static_cast<std::size_t>(tap)].storage())
              << wk << " tap " << tap;
          EXPECT_EQ(out.storage(), ref.back().storage()) << wk << " tap " << tap;
        }
      }
    }
  }
}

// The invariant slice-parallel evaluation rests on: a sample's logits do not
// depend on which batch carries it. Conv GEMMs run per sample, Linear rows
// see a fixed k-blocking whatever the row count, and the pool reduces each
// window alone.
TEST(Infer, SampleOutputDoesNotDependOnBatch) {
  for (auto arch : kArchs) {
    for (const bool pruned : {false, true}) {
      const auto spec = make_spec(arch, pruned);
      const Tensor x = random_batch(spec, 13, 8);
      const Tensor whole = spec.net.infer(x);
      const std::string where = std::string(arch_name(arch)) + (pruned ? " pruned" : "");
      const auto per_image = x.size() / 13;
      for (const auto& [begin, end] : {std::pair{0, 1}, std::pair{1, 6}, std::pair{6, 13}}) {
        tensor::Shape shape{end - begin, spec.input_shape[0], spec.input_shape[1],
                            spec.input_shape[2]};
        std::vector<float> part(x.data().begin() + static_cast<std::ptrdiff_t>(begin * per_image),
                                x.data().begin() + static_cast<std::ptrdiff_t>(end * per_image));
        const Tensor sliced = spec.net.infer(Tensor(shape, std::move(part)));
        for (int r = begin; r < end; ++r) {
          EXPECT_EQ(row(sliced, r - begin), row(whole, r)) << where << " sample " << r;
        }
      }
    }
  }
}

// evaluate_accuracy gives the single-batch answer at every pool size and
// batch size, and on a pool worker, where it runs inline.
TEST(Infer, EvaluateAccuracySameAtEveryPoolAndBatchSize) {
  auto spec = make_spec(Architecture::kMnistCnn, /*pruned=*/true);
  const auto dataset = data::make_synth_digits({8, 5, 0.1});
  const int n = static_cast<int>(dataset.size());
  std::vector<std::size_t> all(dataset.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const auto batch = dataset.make_batch(all);
  const auto preds = tensor::argmax_rows(spec.net.forward(batch.images));
  std::size_t correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) correct += preds[i] == batch.labels[i];
  const double expected = static_cast<double>(correct) / static_cast<double>(n);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    common::ThreadPool pool(threads);
    AmbientPoolGuard guard(&pool);
    for (const int batch_size : {1, 7, 64, n}) {
      EXPECT_EQ(fl::evaluate_accuracy(spec.net, dataset, batch_size), expected)
          << threads << " threads, batch " << batch_size;
    }
    const double on_worker =
        pool.submit([&] { return fl::evaluate_accuracy(spec.net, dataset, 7); }).get();
    EXPECT_EQ(on_worker, expected) << threads << " threads, on a worker";
  }
}

// infer takes its im2col and GEMM scratch from the calling thread's arena,
// so once warm a loop of infers allocates no new chunk.
TEST(Infer, SteadyStateAllocatesNoWorkspaceChunks) {
  const auto spec = make_spec(Architecture::kVggSmall, /*pruned=*/false);
  const Tensor x = random_batch(spec, 16, 9);
  auto pass = [&] {
    Tensor tapped;
    (void)spec.net.infer(x);
    (void)spec.net.infer(x, spec.tap_index, &tapped, ComputeKernel::kInt8);
  };
  pass();
  pass();
  const auto& ws = tensor::Workspace::tls();
  const std::size_t warm = ws.chunk_allocs();
  for (int i = 0; i < 5; ++i) pass();
  EXPECT_EQ(ws.chunk_allocs(), warm);
}

// Four threads run infer on one shared const model — taps and int8 included —
// and each reproduces the serial result. Under ThreadSanitizer this also
// proves infer writes no shared state.
TEST(Infer, ConcurrentCallsOnSharedModel) {
  const auto spec = make_spec(Architecture::kMnistCnn, /*pruned=*/true);
  const Sequential& net = spec.net;
  constexpr int kThreads = 4;
  std::vector<Tensor> inputs, want_out, want_tap;
  for (int t = 0; t < kThreads; ++t) {
    inputs.push_back(random_batch(spec, 6, 100 + static_cast<std::uint64_t>(t)));
    Tensor tapped;
    const auto kernel = t % 2 == 0 ? ComputeKernel::kF32 : ComputeKernel::kInt8;
    want_out.push_back(net.infer(inputs.back(), spec.tap_index, &tapped, kernel));
    want_tap.push_back(std::move(tapped));
  }
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto kernel = t % 2 == 0 ? ComputeKernel::kF32 : ComputeKernel::kInt8;
      for (int rep = 0; rep < 3; ++rep) {
        Tensor tapped;
        const Tensor out = net.infer(inputs[t], spec.tap_index, &tapped, kernel);
        if (out.storage() != want_out[t].storage() || tapped.storage() != want_tap[t].storage()) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}
