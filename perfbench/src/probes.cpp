#include "probes.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "comm/message.h"
#include "common/rng.h"
#include "data/partition.h"
#include "data/synth.h"
#include "fl/client_factory.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/registry.h"

namespace perfbench {

using namespace fedcleanse;

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Median microseconds of `reps` calls of fn.
double median_us(int reps, const std::function<void()>& fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(us_since(t0));
  }
  return median(us);
}

std::uint64_t delta(const std::map<std::string, std::uint64_t>& now,
                    const std::map<std::string, std::uint64_t>& before, const std::string& key) {
  const auto a = now.find(key);
  const auto b = before.find(key);
  return (a == now.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
}

std::string layer_key(int idx, const std::string& kind) {
  return "nn.L" + std::to_string(idx) + "." + kind;
}

bool has_flop_metrics(const nn::Layer& layer) {
  const auto kind = layer.name();
  return kind == "Conv2d" || kind == "Linear" || kind == "MaxPool2d";
}

std::size_t param_elems(nn::Layer& layer) {
  std::size_t n = 0;
  for (const auto& p : layer.params()) n += p.value->size();
  return n;
}

// True when event e (on any thread) starts inside window's interval.
bool inside(const obs::TraceEvent& e, const obs::TraceEvent& window) {
  return e.start_ns >= window.start_ns && e.start_ns < window.start_ns + window.dur_ns;
}

}  // namespace

std::vector<std::string> per_layer_metric_names() {
  std::vector<std::string> names = {
      "common.pool.tasks", "common.pool.idle_share", "common.pool.inline_share",
      "data.synth_ms", "data.partition_ms",
      "fl.materialize_us", "fl.eval_s", "fl.straggler_ratio", "fl.round_tail_ms",
      "fl.client_trains", "fl.exchange.retries", "fl.exchange.drops",
      "tensor.gemm.calls", "tensor.gemm.gflop", "tensor.workspace.chunk_allocs",
      "nn.forward_us", "nn.backward_us", "nn.infer_us", "nn.loss_us", "nn.sgd_step_us",
      "comm.msgs", "comm.uplink_mb", "comm.downlink_mb", "comm.update_encode_us",
      "comm.update_decode_us", "comm.bytes_per_update",
      "defense_s", "defense.prune_s", "defense.finetune_s", "defense.aw_s", "defense.prune_evals",
      "defense.aw_evals", "defense.finetune_rounds", "defense.neurons_pruned",
      "defense.weights_zeroed", "defense.prune_yield", "final_asr",
      "obs.trace_overhead_share"};
  // Union of (index, kind) over the workloads' architectures → whether the
  // layer also gets .mflop/.mbytes.
  std::map<std::pair<int, std::string>, bool> layers;
  for (const auto& name : workload_names()) {
    common::Rng rng(1);
    auto spec = nn::make_model(make_workload(name, 1, 1).sim.arch, rng);
    for (int i = 0; i < spec.net.size(); ++i) {
      layers[{i, spec.net.layer(i).name()}] = has_flop_metrics(spec.net.layer(i));
    }
  }
  for (const auto& [layer, with_flops] : layers) {
    const std::string key = layer_key(layer.first, layer.second);
    names.push_back(key + ".fwd_us");
    names.push_back(key + ".bwd_us");
    if (with_flops) {
      names.push_back(key + ".mflop");
      names.push_back(key + ".mbytes");
    }
  }
  return names;
}

void TraceProbes::after_setup(fl::Simulation&) {
  counters_at_setup_ = obs::Registry::global().counter_values();
}

void TraceProbes::after_train(fl::Simulation&) {
  counters_after_train_ = obs::Registry::global().counter_values();
}

void TraceProbes::after_defense(fl::Simulation& sim, const PipelineResult& r) {
  const auto now = obs::Registry::global().counter_values();
  const auto& train = counters_after_train_;
  const auto& setup = counters_at_setup_;
  auto& m = metrics_;

  // --- common: the pool over the training rounds ---------------------------
  const double threads = static_cast<double>(sim.pool().size());
  m["common.pool.tasks"] = static_cast<double>(delta(now, setup, "pool.tasks"));
  m["common.pool.idle_share"] =
      static_cast<double>(delta(train, setup, "pool.idle_ns")) / (threads * r.train_s * 1e9);
  const double pf_calls = static_cast<double>(delta(train, setup, "pool.parallel_for.calls"));
  const double pf_inline = static_cast<double>(delta(train, setup, "pool.parallel_for.inline"));
  m["common.pool.inline_share"] = pf_calls + pf_inline > 0 ? pf_inline / (pf_calls + pf_inline)
                                                           : 0.0;

  // --- tensor / comm / fl counters over the whole pipeline ------------------
  m["tensor.gemm.calls"] = static_cast<double>(delta(now, setup, "tensor.gemm.calls"));
  m["tensor.gemm.gflop"] = static_cast<double>(delta(now, setup, "tensor.gemm.flops")) / 1e9;
  m["tensor.workspace.chunk_allocs"] =
      static_cast<double>(delta(now, setup, "tensor.workspace.chunk_allocs"));
  m["comm.msgs"] = static_cast<double>(delta(now, setup, "comm.channel.msgs"));
  m["comm.uplink_mb"] = static_cast<double>(r.uplink_bytes) / (1024.0 * 1024.0);
  m["comm.downlink_mb"] = static_cast<double>(r.downlink_bytes) / (1024.0 * 1024.0);
  m["fl.exchange.retries"] = static_cast<double>(delta(now, setup, "fl.exchange.retries"));
  m["fl.exchange.drops"] = static_cast<double>(delta(now, setup, "fl.exchange.drops"));
  m["fl.eval_s"] = r.eval_s;

  // --- fl: spans the library records around client training ----------------
  const auto events = obs::trace_events_snapshot();
  std::vector<obs::TraceEvent> rounds, trains;
  for (const auto& e : events) {
    if (std::string_view(e.name) == "bench.round") rounds.push_back(e);
    if (std::string_view(e.name) == "client.train") trains.push_back(e);
  }
  m["fl.client_trains"] = static_cast<double>(trains.size());
  std::vector<double> ratios;
  for (const auto& round : rounds) {
    std::vector<double> durs;
    for (const auto& t : trains) {
      if (inside(t, round)) durs.push_back(static_cast<double>(t.dur_ns));
    }
    if (durs.size() < 2) continue;
    const double med = median(durs);
    if (med > 0) ratios.push_back(*std::max_element(durs.begin(), durs.end()) / med);
  }
  m["fl.straggler_ratio"] = median(ratios);
  // Highest percentile with at least ten rounds beyond it.
  auto sorted = r.round_ms;
  std::sort(sorted.begin(), sorted.end());
  m["fl.round_tail_ms"] = sorted.size() > 10 ? sorted[sorted.size() - 11] : sorted.back();

  // --- defense: what run_defense reported ----------------------------------
  const auto& rep = r.report;
  auto phase = [&](const char* name) {
    const auto it = rep.phase_seconds.find(name);
    return it == rep.phase_seconds.end() ? 0.0 : it->second;
  };
  m["defense_s"] = r.defense_s;
  m["defense.prune_s"] = phase("pruning");
  m["defense.finetune_s"] = phase("fine-tuning");
  m["defense.aw_s"] = phase("adjust-weights");
  m["defense.prune_evals"] = static_cast<double>(rep.prune.trace.size());
  m["defense.aw_evals"] = static_cast<double>(rep.adjust.trace.size());
  m["defense.finetune_rounds"] = rep.finetune.rounds_run;
  m["defense.neurons_pruned"] = rep.neurons_pruned;
  m["defense.weights_zeroed"] = rep.weights_zeroed;
  m["defense.prune_yield"] = rep.prune.trace.empty()
                                 ? 0.0
                                 : static_cast<double>(rep.neurons_pruned) /
                                       static_cast<double>(rep.prune.trace.size());
  m["final_asr"] = r.final_asr;

  probe_data();
  probe_materialize();
  probe_nn(sim);
  probe_comm(sim);
}

void TraceProbes::probe_data() {
  obs::Span span("bench.probe.data", "bench");
  const data::SynthConfig cfg{w_.sim.samples_per_class_train, w_.sim.seed, w_.sim.data_noise};
  data::Dataset full;
  metrics_["data.synth_ms"] =
      median_us(3, [&] { full = data::make_synth(w_.sim.dataset, cfg); }) / 1e3;
  data::PartitionConfig part;
  // A virtual population is never partitioned eagerly; the probe partitions
  // a defense-committee-sized population of the same data instead.
  part.n_clients = w_.sim.residency == fl::ClientResidency::kVirtual ? w_.sim.defense_clients
                                                                      : w_.sim.n_clients;
  part.labels_per_client = w_.sim.labels_per_client;
  part.samples_per_client = w_.sim.samples_per_client;
  part.seed = w_.sim.seed;
  metrics_["data.partition_ms"] =
      median_us(5, [&] { (void)data::partition_k_label(full, part); }) / 1e3;
}

void TraceProbes::probe_materialize() {
  obs::Span span("bench.probe.materialize", "bench");
  const data::SynthConfig cfg{w_.sim.samples_per_class_train, w_.sim.seed, w_.sim.data_noise};
  common::Rng rng(w_.sim.seed);
  fl::ClientFactory factory(w_.sim, data::make_synth(w_.sim.dataset, cfg),
                            nn::make_model(w_.sim.arch, rng), rng.next_u64(), rng.next_u64(),
                            rng.next_u64(), rng.next_u64());
  std::vector<double> us;
  const int n = w_.sim.n_clients;
  for (int k = 0; k < 64; ++k) {
    const int id = static_cast<int>((static_cast<long long>(k) * n) / 64);
    const auto t0 = Clock::now();
    auto client = factory.make_client(id);
    us.push_back(us_since(t0));
  }
  metrics_["fl.materialize_us"] = median(us);
}

void TraceProbes::probe_nn(fl::Simulation& sim) {
  obs::Span span("bench.probe.nn", "bench");
  constexpr int kReps = 15;
  auto net = sim.server().model().net.clone();
  const auto& local = sim.client(0).local_data();
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < local.size() && idx.size() < static_cast<std::size_t>(
                                                   w_.sim.train.batch_size); ++i) {
    idx.push_back(i);
  }
  const auto batch = local.make_batch(idx);
  const int n = net.size();

  // Unfused, one layer at a time.
  std::vector<std::vector<double>> fwd(n), bwd(n);
  std::vector<double> loss_us, sgd_us, flop(n, 0.0), bytes(n, 0.0);
  nn::SoftmaxCrossEntropy loss;
  nn::Sgd sgd(net, {w_.sim.train.lr, w_.sim.train.momentum});
  for (int rep = 0; rep < kReps; ++rep) {
    net.zero_grad();
    tensor::Tensor x = batch.images;
    for (int i = 0; i < n; ++i) {
      const auto flops0 = obs::metrics::gemm_flops().value();
      const auto t0 = Clock::now();
      tensor::Tensor y = net.layer(i).forward(x);
      fwd[i].push_back(us_since(t0));
      if (rep == 0) {
        auto& layer = net.layer(i);
        flop[i] = static_cast<double>(obs::metrics::gemm_flops().value() - flops0) / 1e6;
        if (layer.name() == "MaxPool2d") {
          // Comparisons: every output element scans a k×k window (stride = k).
          const double k = static_cast<double>(x.shape()[2]) / y.shape()[2];
          flop[i] = static_cast<double>(y.size()) * k * k / 1e6;
        }
        bytes[i] = 4.0 * static_cast<double>(x.size() + y.size() + param_elems(layer)) / 1e6;
      }
      x = std::move(y);
    }
    auto t0 = Clock::now();
    loss.forward(x, batch.labels);
    tensor::Tensor g = loss.backward();
    loss_us.push_back(us_since(t0));
    for (int i = n - 1; i >= 0; --i) {
      t0 = Clock::now();
      g = net.layer(i).backward(g);
      bwd[i].push_back(us_since(t0));
    }
    t0 = Clock::now();
    sgd.step();
    sgd_us.push_back(us_since(t0));
  }
  for (const auto& name : per_layer_metric_names()) {
    if (name.rfind("nn.L", 0) == 0) metrics_[name] = 0.0;  // absent layers read 0
  }
  for (int i = 0; i < n; ++i) {
    const auto key = layer_key(i, net.layer(i).name());
    metrics_[key + ".fwd_us"] = median(fwd[i]);
    metrics_[key + ".bwd_us"] = median(bwd[i]);
    if (has_flop_metrics(net.layer(i))) {
      metrics_[key + ".mflop"] = flop[i];
      metrics_[key + ".mbytes"] = bytes[i];
    }
  }
  metrics_["nn.loss_us"] = median(loss_us);
  metrics_["nn.sgd_step_us"] = median(sgd_us);

  // Fused: the calls local training makes.
  std::vector<double> fwd_fused, bwd_fused;
  for (int rep = 0; rep < kReps; ++rep) {
    net.zero_grad();
    auto t0 = Clock::now();
    auto probs = net.forward_probs(batch.images);
    fwd_fused.push_back(us_since(t0));
    loss.forward_probs(std::move(probs), batch.labels);
    auto g = loss.backward();
    t0 = Clock::now();
    net.backward(g);
    bwd_fused.push_back(us_since(t0));
  }
  metrics_["nn.forward_us"] = median(fwd_fused);
  metrics_["nn.backward_us"] = median(bwd_fused);

  // Forward-only at evaluation size (fl::evaluate_accuracy's batch of 64).
  const auto& test = sim.test_set();
  std::vector<std::size_t> eval_idx;
  for (std::size_t i = 0; i < test.size() && eval_idx.size() < 64; ++i) eval_idx.push_back(i);
  const auto eval_batch = test.make_batch(eval_idx);
  metrics_["nn.infer_us"] = median_us(kReps, [&] { (void)net.forward(eval_batch.images); });
}

void TraceProbes::probe_comm(fl::Simulation& sim) {
  obs::Span span("bench.probe.comm", "bench");
  constexpr int kReps = 31;
  const auto params = sim.server().params();
  const bool q8 = w_.sim.train.update_codec == comm::UpdateCodec::kInt8;
  std::vector<std::uint8_t> wire;
  metrics_["comm.update_encode_us"] = median_us(kReps, [&] {
    comm::Message msg;
    msg.type = q8 ? comm::MessageType::kModelUpdateQuantized : comm::MessageType::kModelUpdate;
    msg.payload = q8 ? comm::encode_flat_params_q8(params) : comm::encode_flat_params(params);
    msg.stamp();
    wire = comm::encode_message(msg);
  });
  metrics_["comm.bytes_per_update"] = static_cast<double>(wire.size());
  metrics_["comm.update_decode_us"] = median_us(kReps, [&] {
    const auto msg = comm::decode_message(wire);
    FC_REQUIRE(msg.checksum_ok(), "update checksum mismatch");
    const auto flat = q8 ? comm::decode_flat_params_q8(msg.payload)
                         : comm::decode_flat_params(msg.payload);
    FC_REQUIRE(flat.size() == params.size(), "update size mismatch");
  });
}

std::map<std::string, double> span_self_ms(const std::vector<obs::TraceEvent>& events) {
  std::map<int, std::vector<obs::TraceEvent>> by_thread;
  for (const auto& e : events) by_thread[e.tid].push_back(e);
  std::map<std::string, double> self;
  for (auto& [tid, ev] : by_thread) {
    (void)tid;
    // Parents before children: earlier start first, longer first on ties.
    std::sort(ev.begin(), ev.end(), [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
      return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.dur_ns > b.dur_ns;
    });
    std::vector<std::int64_t> covered(ev.size(), 0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < ev.size(); ++i) {
      while (!stack.empty() &&
             ev[stack.back()].start_ns + ev[stack.back()].dur_ns <= ev[i].start_ns) {
        stack.pop_back();
      }
      if (!stack.empty()) covered[stack.back()] += ev[i].dur_ns;
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < ev.size(); ++i) {
      self[ev[i].name] += static_cast<double>(ev[i].dur_ns - covered[i]) / 1e6;
    }
  }
  return self;
}

}  // namespace perfbench
