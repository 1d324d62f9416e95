// dhs_perfbench: the repository benchmark's driver. One workload per
// invocation, from one thread, with every input drawn from the seed.
//
//   dhs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--smoke] [--spans-out <path>]
//
// --trace 0 times set-up spec.setup_repeats times (median reported),
// then runs closed-loop flushes until --seconds of timed work are done
// and prints the end-to-end metrics. --trace 1 runs the same request
// stream in two lockstep passes (traced.cc) and prints the per-layer
// metrics.
// The last stdout line is one JSON object; a failed correctness gate
// exits nonzero before anything is printed.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "driver.h"
#include "probe.h"

namespace dhs::perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

volatile uint64_t g_burn_sink = 0;

uint64_t BurnWork(uint64_t seed) {
  uint64_t x = seed;
  for (uint64_t i = 0; i < 10'000'000; ++i) x = Mix64(x + i);
  return x;
}

/// Wall seconds for `threads` threads each doing the same fixed work.
double BurnSeconds(int threads) {
  std::vector<uint64_t> sink(static_cast<size_t>(threads), 0);
  const int64_t t0 = NowNs();
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&sink, t] {
        sink[static_cast<size_t>(t)] = BurnWork(static_cast<uint64_t>(t));
      });
    }
  }  // jthreads join here
  const int64_t elapsed = NowNs() - t0;
  uint64_t sum = 0;
  for (uint64_t v : sink) sum += v;
  g_burn_sink = sum;
  return static_cast<double>(elapsed) * 1e-9;
}

}  // namespace

CpuTimes ReadCpuTimes() {
  CpuTimes times;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  uint64_t value = 0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && (in >> value); ++i) {
    times.total += value;
    if (i == 7) times.steal = value;
  }
  return times;
}

Calibration Calibrate() {
  Calibration c;
  c.nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (c.nproc < 1) c.nproc = 1;
  c.burn_1t_s = BurnSeconds(1);
  const double burn_n = BurnSeconds(c.nproc);
  c.parallelism = static_cast<double>(c.nproc) * c.burn_1t_s / burn_n;
  c.start = ReadCpuTimes();
  return c;
}

void JsonOut::Metric(const std::string& name, double value,
                     const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

void JsonOut::Info(const std::string& key, const std::string& json_value) {
  info_.emplace_back(key, json_value);
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void JsonOut::Print(uint64_t attempted, uint64_t failed) const {
  // Human-readable lines first, the result object last.
  for (const Entry& e : metrics_) {
    std::printf("%-40s %22s %s\n", e.name.c_str(), Num(e.value).c_str(),
                e.unit.c_str());
  }
  std::string line = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    line += (i > 0 ? ", \"" : "\"") + e.name + "\": {\"value\": " +
            Num(e.value) + ", \"unit\": \"" + e.unit + "\"}";
  }
  line += "}, \"info\": {";
  for (size_t i = 0; i < info_.size(); ++i) {
    line += (i > 0 ? ", \"" : "\"") + info_[i].first + "\": " +
            info_[i].second;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void AddCalibration(const Calibration& c, JsonOut* out) {
  const CpuTimes end = ReadCpuTimes();
  const double total = static_cast<double>(end.total - c.start.total);
  const double steal =
      total > 0 ? static_cast<double>(end.steal - c.start.steal) / total : 0.0;
  out->Info("calibration",
            "{\"nproc\": " + std::to_string(c.nproc) +
                ", \"measured_parallelism\": " + Num(c.parallelism) +
                ", \"burn_1t_s\": " + Num(c.burn_1t_s) +
                ", \"steal_share\": " + Num(steal) + "}");
}

std::string WorldSizes(World& world) {
  uint64_t records = 0;
  for (uint64_t node : world.net->NodeIds()) {
    records += world.net->StoreAt(node)->NumRecords();
  }
  return "{\"nodes\": " + std::to_string(world.net->NumNodes()) +
         ", \"store_records\": " + std::to_string(records) +
         ", \"store_bytes\": " +
         std::to_string(world.net->TotalStorageBytes()) + "}";
}

namespace {

std::string List(const std::vector<double>& v) {
  std::string s;
  for (double x : v) s += (s.empty() ? "" : ", ") + Num(x);
  return "[" + s + "]";
}

/// Timings restated at the probe's reference speed (probe.h), and as
/// measured.
struct Timings {
  double setup_s = 0.0;
  double count_per_s = 0.0;
  double insert_items_per_s = 0.0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;

  std::string Json() const {
    return "{\"setup_s\": " + Num(setup_s) +
           ", \"count_per_s\": " + Num(count_per_s) +
           ", \"insert_items_per_s\": " + Num(insert_items_per_s) +
           ", \"latency_p50_us\": " + Num(latency_p50_us) +
           ", \"latency_p99_us\": " + Num(latency_p99_us) + "}";
  }
};

/// The p-quantile of v (nearest rank); reorders v.
double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  const size_t rank = std::min(
      v->size() - 1, static_cast<size_t>(p * static_cast<double>(v->size())));
  std::nth_element(v->begin(), v->begin() + static_cast<long>(rank), v->end());
  return (*v)[rank];
}

/// Throughput and latency percentiles over every closed chunk, each
/// chunk's times multiplied by its entry in `scales`.
Timings ChunkTimings(const std::vector<Chunk>& chunks,
                     const std::vector<double>& scales) {
  double seconds = 0.0, counts = 0.0, items = 0.0;
  std::vector<double> latency_us;
  for (size_t i = 0; i < chunks.size(); ++i) {
    const Chunk& c = chunks[i];
    seconds += static_cast<double>(c.timed_ns) * 1e-9 * scales[i];
    counts += static_cast<double>(c.counts);
    items += static_cast<double>(c.items);
    for (int64_t ns : c.latency_ns) {
      latency_us.push_back(static_cast<double>(ns) * 1e-3 * scales[i]);
    }
  }
  Timings t;
  t.count_per_s = Ratio(counts, seconds);
  t.insert_items_per_s = Ratio(items, seconds);
  t.latency_p50_us = Percentile(&latency_us, 0.50);
  t.latency_p99_us = Percentile(&latency_us, 0.99);
  return t;
}

int RunUntraced(const Spec& spec, const Args& args) {
  const Calibration calibration = Calibrate();
  HostProbe probe;
  std::vector<double> setups, setups_raw, setup_probe_ms;
  std::unique_ptr<Runner> runner;
  for (int i = 0; i < spec.setup_repeats; ++i) {
    runner.reset();  // one world resident at a time
    runner = std::make_unique<Runner>(spec, args.seed, nullptr);
    const int64_t before = probe.RunNs();
    const double seconds = runner->Setup();
    const double probe_ns = 0.5 * static_cast<double>(before + probe.RunNs());
    setups_raw.push_back(seconds);
    setups.push_back(seconds * RestateFactor(probe_ns));
    setup_probe_ms.push_back(probe_ns * 1e-6);
  }
  // The probe runs after each chunk closes, outside the timed sections.
  std::vector<double> chunk_probe_ms, scales;
  const int64_t budget = static_cast<int64_t>(args.seconds * 1e9);
  while (runner->stats().timed_ns < budget ||
         runner->stats().flushes < static_cast<uint64_t>(spec.window_flushes)) {
    runner->Flush();
    if (runner->stats().chunks.size() > scales.size()) {
      const double probe_ns = static_cast<double>(probe.RunNs());
      chunk_probe_ms.push_back(probe_ns * 1e-6);
      scales.push_back(RestateFactor(probe_ns));
    }
  }
  const PassStats& s = runner->stats();
  uint64_t fresh_total = 0;
  const uint64_t fresh_exact = runner->FreshCountCheck(&fresh_total);

  Timings adjusted = ChunkTimings(s.chunks, scales);
  adjusted.setup_s = Median(setups);
  Timings raw =
      ChunkTimings(s.chunks, std::vector<double>(s.chunks.size(), 1.0));
  raw.setup_s = Median(setups_raw);

  JsonOut out;
  out.Metric("setup_s", adjusted.setup_s, "s");
  out.Metric("count_per_s", adjusted.count_per_s, "1/s");
  out.Metric("insert_items_per_s", adjusted.insert_items_per_s, "1/s");
  out.Metric("latency_p50_us", adjusted.latency_p50_us, "us");
  out.Metric("latency_p99_us", adjusted.latency_p99_us, "us");
  out.Metric("msgs_per_request",
             Ratio(static_cast<double>(s.w_messages),
                   static_cast<double>(s.w_requests)),
             "msgs");
  const double waves = static_cast<double>(s.w_count_waves);
  out.Metric("count_nodes_per_op", Ratio(static_cast<double>(s.w_nodes), waves),
             "nodes");
  out.Metric("count_hops_per_op", Ratio(static_cast<double>(s.w_hops), waves),
             "hops");
  out.Metric("count_bytes_per_op", Ratio(static_cast<double>(s.w_bytes), waves),
             "B");
  out.Metric("insert_bytes_per_item",
             Ratio(static_cast<double>(s.w_insert_bytes),
                   static_cast<double>(s.w_insert_items)),
             "B");
  out.Metric("count_rel_error",
             Ratio(s.w_rel_error_sum, static_cast<double>(s.w_rel_error_n)),
             "ratio");
  out.Metric("count_miss_ratio",
             Ratio(static_cast<double>(s.w_missed),
                   static_cast<double>(s.w_observables)),
             "ratio");
  out.Metric("op_fail_ratio",
             Ratio(static_cast<double>(s.failed),
                   static_cast<double>(s.attempted)),
             "ratio");
  out.Metric("peak_rss_mb", s.window_peak_rss_mb, "MB");

  out.Info("workload", "\"" + spec.name + "\"");
  out.Info("seed", std::to_string(args.seed));
  size_t latency_samples = 0;
  for (const Chunk& c : s.chunks) latency_samples += c.latency_ns.size();
  out.Info("latency_samples", std::to_string(latency_samples));
  out.Info("flushes", std::to_string(s.flushes));
  out.Info("timed_s", Num(static_cast<double>(s.timed_ns) * 1e-9));
  out.Info("as_measured", raw.Json());
  out.Info("setup_runs_s", List(setups_raw));
  out.Info("setup_probe_ms", List(setup_probe_ms));
  out.Info("chunks", std::to_string(s.chunks.size()));
  out.Info("chunk_probe_ms", List(chunk_probe_ms));
  std::vector<double> count_rates;  // as measured
  for (const Chunk& c : s.chunks) {
    count_rates.push_back(Ratio(static_cast<double>(c.counts),
                                static_cast<double>(c.timed_ns) * 1e-9));
  }
  out.Info("count_chunk_rates", List(count_rates));
  out.Info("window",
           "{\"flushes\": " + std::to_string(spec.window_flushes) +
               ", \"requests\": " + std::to_string(s.w_requests) +
               ", \"count_waves\": " + std::to_string(s.w_count_waves) +
               ", \"messages\": " + std::to_string(s.w_net.messages) +
               ", \"hops\": " + std::to_string(s.w_net.hops) +
               ", \"bytes\": " + std::to_string(s.w_net.bytes) +
               ", \"answers_digest\": \"" + std::to_string(s.w_digest) + "\"}");
  out.Info("fresh_count_exact_bitmaps",
           "[" + std::to_string(fresh_exact) + ", " +
               std::to_string(fresh_total) + "]");
  out.Info("sizes", WorldSizes(runner->world()));
  out.Info("reference", runner->ReferenceSummary());
  AddCalibration(calibration, &out);
  out.Print(s.attempted, s.failed);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      args->smoke = true;
    } else if (flag == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args->seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args->trace = std::string(argv[++i]) == "1";
    } else if (flag == "--spans-out" && has_value) {
      args->spans_out = argv[++i];
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace dhs::perfbench

int main(int argc, char** argv) {
  using namespace dhs::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dhs_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--smoke] [--spans-out <path>]\n");
    return 2;
  }
  const auto spec = MakeSpec(args.workload, args.smoke);
  if (!spec) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  return args.trace ? RunTraced(*spec, args) : RunUntraced(*spec, args);
}
