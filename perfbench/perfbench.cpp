// Repository benchmark: three closed, single-process batch workloads
// over the simulator's public API, timed end to end, plus a traced mode that
// records spans around calls into each module and reports per-layer numbers.
//
//   perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]
//             [--threads T] [--size full|tiny] [--out-dir DIR]
//
// Workloads (see perfbench/README.md for why each exists and which
// end-to-end metric each layer metric should move):
//   fleet_escalation   10k nodes / 16 readers, SINR-penalty MAC, adaptive
//                      fidelity: waveform escalation does the work.
//   fleet_dense_mcs    100k nodes / 100 readers, slotted MAC + MCS ladder:
//                      event loop, grid, ARQ and MCS do the work, DSP none.
//   waveform_campaign  sharded, checkpointed waveform batch at 100..400 m:
//                      compute+write, resume every shard, merge.
//
// One run: set up several times (the median is `setup_s`), then repeat the
// workload's job untraced while another repetition still fits in --seconds
// (medians of the repetitions are `wall_s` / `cpu_s`). With --trace 1 one
// more, traced repetition follows, then the per-layer probes; the spans are
// written to DIR at exit. Every repetition's outputs are checked (fleet
// conservation invariants, digest repeatability, resumed-merge identity).
//
// Output: a context line, an outcomes line (exact simulated counts and the
// fleet digest, printed in every run), and last one result line
// {"correct","attempted","failed","metrics"} holding the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1).
// Exit codes: 0 = ran (see "correct"), 2 = bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "channel/noise.hpp"
#include "channel/waveform_channel.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"
#include "dsp/mixer.hpp"
#include "dsp/simd/simd.hpp"
#include "net/app.hpp"
#include "net/frame.hpp"
#include "net/inventory.hpp"
#include "net/mcs/adapt.hpp"
#include "net/mcs/mcs.hpp"
#include "phy/modem.hpp"
#include "sim/campaign.hpp"
#include "sim/fleet/fleet.hpp"
#include "sim/fleet/transport.hpp"
#include "sim/montecarlo.hpp"
#include "sim/scenario.hpp"
#include "trace.hpp"

#ifndef VAB_PERFBENCH_BUILD_TYPE
#define VAB_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace vab;
using perfbench::Clock;
using perfbench::Scope;
using perfbench::Tracer;

constexpr const char* kUsage =
    "usage: perfbench --workload fleet_escalation|fleet_dense_mcs|waveform_campaign\n"
    "                 [--seed N] [--seconds S] [--trace 0|1] [--threads T]\n"
    "                 [--size full|tiny] [--out-dir DIR]\n";

// ---------------------------------------------------------------- arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;
  bool tiny = false;
  std::string out_dir = ".bench_build/perfbench/run";
};

[[noreturn]] void arg_error(const std::string& arg, const std::string& why) {
  std::cerr << "perfbench: " << arg << ": " << why << "\n" << kUsage;
  std::exit(2);
}

/// Decimal digits only (no sign, no space), rejected on overflow rather than
/// wrapped.
std::optional<std::uint64_t> parse_u64(const std::string& s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (const char ch : s) {
    if (ch < '0' || ch > '9') return std::nullopt;
    const auto d = static_cast<std::uint64_t>(ch - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - d) / 10) return std::nullopt;
    v = v * 10 + d;
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  const unsigned nproc = common::hardware_thread_count();
  a.threads = std::min(nproc, 4U);
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) arg_error(key, "missing value");
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      if (val != "fleet_escalation" && val != "fleet_dense_mcs" &&
          val != "waveform_campaign")
        arg_error(key, "unknown workload '" + val + "'");
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      const auto v = parse_u64(val);
      if (!v) arg_error(key, "'" + val + "' is not an integer in [0, 2^64)");
      a.seed = *v;
    } else if (key == "--seconds") {
      char* end = nullptr;
      const double v = std::strtod(val.c_str(), &end);
      if (val.empty() || end != val.c_str() + val.size() || !std::isfinite(v) ||
          v <= 0.0 || v > 3600.0)
        arg_error(key, "'" + val + "' is not a number in (0, 3600]");
      a.seconds = v;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") arg_error(key, "'" + val + "' is not 0 or 1");
      a.trace = val == "1";
    } else if (key == "--threads") {
      const auto v = parse_u64(val);
      if (!v || *v < 1 || *v > nproc)
        arg_error(key, "'" + val + "' is not an integer in [1, " +
                           std::to_string(nproc) + "] (nproc)");
      a.threads = static_cast<unsigned>(*v);
    } else if (key == "--size") {
      if (val != "full" && val != "tiny") arg_error(key, "'" + val + "' is not full or tiny");
      a.tiny = val == "tiny";
    } else if (key == "--out-dir") {
      if (val.empty()) arg_error(key, "empty path");
      a.out_dir = val;
    } else {
      arg_error(key, "unknown argument");
    }
  }
  if (!have_workload) arg_error("--workload", "required");
  return a;
}

// ---------------------------------------------------------- results, checks

/// Counts every correctness check and every library call that threw; a run
/// is correct when none failed.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failed <= 20) std::cerr << "perfbench: check failed: " << what << "\n";
  }
};

/// Name -> value of the per-layer metrics one workload measured; the metric
/// list (and its units) is fixed below, and a layer the workload does not run
/// reads 0.
using Layer = std::map<std::string, double>;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end and per-layer metric sets, in BENCHMARK.json order.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},      {"wall_s", "s"},       {"cpu_s", "s"},
    {"work_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"wave.trial_ms.p50", "ms"},
    {"wave.trial_ms.tail", "ms"},
    {"wave.trial_ms.count", "count"},
    {"channel.noise_ms.p50", "ms"},
    {"channel.noise_ms.tail", "ms"},
    {"channel.noise_ms.count", "count"},
    {"channel.noise.samples", "count"},
    {"channel.propagate_ms.p50", "ms"},
    {"channel.propagate_ms.tail", "ms"},
    {"channel.propagate_ms.count", "count"},
    {"channel.propagate_clean_ms.p50", "ms"},
    {"channel.propagate_clean_ms.tail", "ms"},
    {"channel.propagate_clean_ms.count", "count"},
    {"phy.demod_ms.p50", "ms"},
    {"phy.demod_ms.tail", "ms"},
    {"phy.demod_ms.count", "count"},
    {"dsp.fft_ms.p50", "ms"},
    {"dsp.fft_ms.tail", "ms"},
    {"dsp.fft_ms.count", "count"},
    {"dsp.fft.n", "count"},
    {"dsp.fft.flops_computed", "flop"},
    {"fleet.waveform_polls", "count"},
    {"fleet.waveform_share", "ratio"},
    {"fleet.wave_time_share", "ratio"},
    {"fleet.escalations_marginal", "count"},
    {"fleet.escalations_contention", "count"},
    {"fleet.waveform_cap_hits", "count"},
    {"fleet.contended_polls", "count"},
    {"fleet.budget_polls", "count"},
    {"net.inventory.window_ms.p50", "ms"},
    {"net.inventory.window_ms.tail", "ms"},
    {"net.inventory.window_ms.count", "count"},
    {"net.mcs.controller_setup_us.p50", "us"},
    {"net.mcs.controller_setup_us.tail", "us"},
    {"net.mcs.controller_setup_us.count", "count"},
    {"net.mcs.controller_time_share", "ratio"},
    {"net.slot.total", "count"},
    {"net.slot.success_ratio", "ratio"},
    {"net.slot.collision", "count"},
    {"net.slot.capture", "count"},
    {"net.slotted.unresolved", "count"},
    {"net.mcs.steps_up", "count"},
    {"net.mcs.steps_down", "count"},
    {"net.mcs.reconfigures", "count"},
    {"fleet.replicate_s.p50", "s"},
    {"fleet.replicate_s.max", "s"},
    {"fleet.replicate_s.count", "count"},
    {"parallel.threads", "count"},
    {"parallel.utilization", "ratio"},
    {"fleet.layout_ms.p50", "ms"},
    {"fleet.layout_ms.count", "count"},
    {"fleet.events", "count"},
    {"fleet.windows", "count"},
    {"fleet.contended_windows", "count"},
    {"fleet.polls", "count"},
    {"fleet.retries", "count"},
    {"fleet.timeouts", "count"},
    {"fleet.assigned", "count"},
    {"fleet.delivered", "count"},
    {"fleet.delivery_ratio", "ratio"},
    {"fleet.polls_per_delivered", "ratio"},
    {"fleet.digest", "hash32"},
    {"campaign.shard_s.p50", "s"},
    {"campaign.shard_s.max", "s"},
    {"campaign.shard_s.count", "count"},
    {"campaign.ckpt_bytes", "bytes"},
    {"campaign.resume_s", "s"},
    {"campaign.merge_ms", "ms"},
    {"campaign.shards_from_checkpoint", "count"},
    {"wave.trials", "count"},
    {"wave.frames_synced", "count"},
    {"wave.frames_ok", "count"},
    {"wave.bit_errors", "count"},
    {"wave.sync_ratio", "ratio"},
    {"trace.spans", "count"},
    {"trace.overhead_frac", "ratio"},
};

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// JSON number with every digit (integers print exactly).
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void add_summary(Layer& out, const std::string& base, const std::vector<double>& v) {
  const perfbench::Summary s = perfbench::summarize(v);
  out[base + ".p50"] = s.p50;
  out[base + ".tail"] = s.tail;
  out[base + ".count"] = static_cast<double>(s.count);
}

std::vector<double> scaled(std::vector<double> v, double k) {
  for (double& x : v) x *= k;
  return v;
}

// Bitwise equality of waveform results (doubles compared by their bits).
std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

bool same(const sim::WaveformTrialOutcome& a, const sim::WaveformTrialOutcome& b) {
  return a.bit_errors == b.bit_errors && a.sync_found == b.sync_found &&
         a.frame_ok == b.frame_ok && bits(a.snr_db) == bits(b.snr_db) &&
         bits(a.corr_peak) == bits(b.corr_peak) &&
         bits(a.sic_suppression_db) == bits(b.sic_suppression_db);
}

bool same(const sim::WaveformStats& a, const sim::WaveformStats& b) {
  return a.trials == b.trials && a.frames_synced == b.frames_synced &&
         a.frames_ok == b.frames_ok && a.total_bits == b.total_bits &&
         a.bit_errors == b.bit_errors && bits(a.mean_snr_db) == bits(b.mean_snr_db) &&
         bits(a.mean_corr_peak) == bits(b.mean_corr_peak) &&
         bits(a.mean_sic_suppression_db) == bits(b.mean_sic_suppression_db);
}

template <typename T>
bool same(const std::vector<T>& a, const std::vector<T>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const T& x, const T& y) { return same(x, y); });
}

// ------------------------------------------------------------------ probes

// Rng stream tags for the benchmark's own draws (children of the run seed).
constexpr std::uint64_t kStreamWarmup = 0xB0001;
constexpr std::uint64_t kStreamWaveProbe = 0xB0002;
constexpr std::uint64_t kStreamNetProbe = 0xB0003;

/// Wire bits of one fleet report frame (header + packed reading + CRC): the
/// payload every fleet waveform poll carries.
std::size_t report_wire_bits() {
  net::Frame f;
  f.payload.resize(net::kReadingBytes);
  return f.wire_size() * 8;
}

/// Waveform-layer probe geometry: scenarios with their trial streams, and
/// optionally the outcomes the workload itself computed for the same
/// (scenario, stream, trial) so the probe doubles as a cross-check.
struct WaveProbe {
  std::vector<sim::Scenario> scenarios;
  std::vector<common::Rng> streams;
  std::size_t trials_each = 0;
  std::size_t payload_bits = 0;
  /// expected[i][t], or empty to skip the comparison.
  std::vector<std::vector<sim::WaveformTrialOutcome>> expected;
};

/// Times one sim::run_waveform_trial per (scenario, trial), then the channel,
/// phy and dsp calls a trial makes, on a capture of the same length built
/// from the same scenario. The probe capture carries the frame at a fixed
/// in-band SNR: these spans measure cost, not link quality.
void run_wave_probe(const WaveProbe& p, Tracer& tr, std::uint64_t parent, Checks& checks,
                    Layer& out) {
  double noise_samples = 0.0, fft_n = 0.0, flops = 0.0;
  for (std::size_t i = 0; i < p.scenarios.size(); ++i) {
    const sim::Scenario& s = p.scenarios[i];
    const phy::PhyConfig& phy = s.phy;
    const double fs = phy.fs_hz;
    const phy::BackscatterModulator mod(phy);
    const phy::ReaderDemodulator demod(phy);
    common::Rng rng = p.streams[i].child(kStreamWaveProbe);
    for (std::size_t t = 0; t < p.trials_each; ++t) {
      const std::uint64_t group = i * 1000 + t;
      sim::WaveformTrialOutcome o;
      {
        Scope sp(&tr, "wave.trial", group, parent);
        o = sim::run_waveform_trial(s, p.payload_bits, p.streams[i], t);
      }
      if (!p.expected.empty()) {
        checks.expect(same(o, p.expected[i][t]),
                      "probe trial equals the campaign's outcome (scenario " +
                          std::to_string(i) + ", trial " + std::to_string(t) + ")");
      }

      const bitvec payload = rng.random_bits(p.payload_bits);
      const bitvec states = mod.switch_waveform(payload);
      const bitvec mask = mod.active_mask(payload.size());
      const auto fwd_taps = sim::forward_taps(s);
      const auto ret_taps = sim::return_taps(s);
      double fwd_delay = 0.0, ret_delay = 0.0;
      for (const auto& tap : fwd_taps) fwd_delay = std::max(fwd_delay, tap.delay_s);
      for (const auto& tap : ret_taps) ret_delay = std::max(ret_delay, tap.delay_s);
      const std::size_t n_tx =
          states.size() +
          static_cast<std::size_t>(std::ceil((2.0 * fwd_delay + ret_delay) * fs)) + 64;
      const rvec tx = dsp::make_tone(phy.carrier_hz, fs, n_tx);

      channel::WaveformChannelConfig cc;
      cc.fs_hz = fs;
      cc.taps = fwd_taps;
      cc.add_noise = false;
      cc.sound_speed_mps = s.env.sound_speed();
      cc.fading_sigma_db = s.env.fading_sigma_db / 2.0;
      const channel::WaveformChannel fwd(cc, rng);
      rvec incident;
      {
        Scope sp(&tr, "channel.propagate_clean", group, parent);
        fwd.propagate_clean(tx, incident);
      }
      rvec reflected(incident.size());
      for (std::size_t n = 0; n < incident.size(); ++n) {
        const bool on = n < states.size() && mask[n];
        reflected[n] = incident[n] * (0.5 + (on ? (states[n] ? 1.0 : -1.0) : 0.0));
      }
      cc.taps = ret_taps;
      const channel::WaveformChannel ret(cc, rng);
      rvec rx;
      {
        Scope sp(&tr, "channel.propagate", group, parent);
        ret.propagate(reflected, rx);
      }
      // The reader captures from just after the blast onset to the end of
      // the carrier, as in a trial.
      const double sep = std::max(s.reader.tx_rx_separation_m, 0.1);
      const auto head =
          static_cast<std::size_t>(std::ceil(sep / s.env.sound_speed() * fs)) + 256;
      rx.resize(std::min(rx.size(), n_tx));
      rx.erase(rx.begin(), rx.begin() + static_cast<std::ptrdiff_t>(std::min(head, rx.size())));
      rvec noise;
      {
        Scope sp(&tr, "channel.noise", group, parent);
        channel::synthesize_ambient_noise(rx.size(), common::SampleRateHz{fs},
                                          s.env.noise, rng, noise);
      }
      noise_samples += static_cast<double>(noise.size());
      const double gain = ratio(dsp::rms(rx), dsp::rms(noise)) * 0.25;
      for (std::size_t n = 0; n < rx.size(); ++n) rx[n] += gain * noise[n];
      {
        Scope sp(&tr, "phy.demod", group, parent);
        (void)demod.demodulate(rx, p.payload_bits);
      }
      cvec x(dsp::next_pow2(rx.size()));
      for (std::size_t n = 0; n < rx.size(); ++n) x[n] = cplx(rx[n], 0.0);
      {
        Scope sp(&tr, "dsp.fft", group, parent);
        dsp::fft_inplace(x);
      }
      // Computed, not counted: 5 n log2 n real operations per complex
      // radix-2 transform.
      const auto n = static_cast<double>(x.size());
      fft_n = std::max(fft_n, n);
      flops += 5.0 * n * std::log2(n);
    }
  }
  add_summary(out, "wave.trial_ms", tr.durations_ms("wave.trial"));
  add_summary(out, "channel.noise_ms", tr.durations_ms("channel.noise"));
  add_summary(out, "channel.propagate_ms", tr.durations_ms("channel.propagate"));
  add_summary(out, "channel.propagate_clean_ms", tr.durations_ms("channel.propagate_clean"));
  add_summary(out, "phy.demod_ms", tr.durations_ms("phy.demod"));
  add_summary(out, "dsp.fft_ms", tr.durations_ms("dsp.fft"));
  out["channel.noise.samples"] = noise_samples;
  out["dsp.fft.n"] = fft_n;
  out["dsp.fft.flops_computed"] = flops;
}

/// Net-layer probes: RateController construction (the MCS per-node set-up)
/// and one 192-link address window through a budget-fidelity
/// FleetLinkTransport with the default MCS ladder.
void run_net_probe(const common::Rng& seed_rng, bool tiny, Tracer& tr,
                   std::uint64_t parent, Checks& checks, Layer& out) {
  const net::mcs::McsLadder ladder = net::mcs::McsLadder::default_ladder();
  const net::mcs::AdaptConfig adapt{};
  const std::size_t controllers = tiny ? 20 : 400;
  for (std::size_t i = 0; i < controllers; ++i) {
    std::size_t rung = 0;
    {
      Scope sp(&tr, "net.mcs.controller_setup", i, parent);
      const net::mcs::RateController rc(ladder, adapt);
      rung = rc.rung();
    }
    checks.expect(rung == std::min(adapt.start_rung, ladder.size() - 1),
                  "RateController starts at its configured rung");
  }
  add_summary(out, "net.mcs.controller_setup_us",
              scaled(tr.durations_ms("net.mcs.controller_setup"), 1000.0));

  sim::fleet::FidelityPolicy budget;
  budget.mode = sim::fleet::FidelityMode::kBudgetOnly;
  sim::fleet::FleetLinkTransport transport(sim::vab_river_scenario(), budget,
                                           common::Db{3.0}, report_wire_bits());
  net::InventoryConfig inv;
  inv.ladder = &ladder;
  common::Rng rng = seed_rng.child(kStreamNetProbe);
  const std::size_t windows = tiny ? 3 : 40;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<sim::fleet::FleetLinkTransport::LinkInfo> links(
        sim::fleet::kWindowAddrs);
    std::vector<std::uint8_t> population(links.size());
    for (std::size_t k = 0; k < links.size(); ++k) {
      links[k].node_id = static_cast<std::uint32_t>(w * links.size() + k);
      links[k].range_m = rng.uniform(1.0, 250.0);
      population[k] = static_cast<std::uint8_t>(k);
    }
    transport.begin_window(std::move(links), rng.child(2 * w));
    common::Rng poll_rng = rng.child(2 * w + 1);
    net::InventoryResult res;
    {
      Scope sp(&tr, "net.inventory.window", w, parent);
      res = net::run_inventory(population, inv, nullptr, poll_rng, &transport);
    }
    checks.expect(res.nodes == population.size() && res.delivered <= res.nodes,
                  "inventory window accounts for its 192 links");
  }
  add_summary(out, "net.inventory.window_ms", tr.durations_ms("net.inventory.window"));
}

/// Starts the thread pool and, for the waveform workloads, runs one trial
/// per link geometry on the calling thread so the process-wide lazy set-up
/// (FFT plans, DSP workspaces, tap tables) for every capture length the job
/// uses is done before timing. Serial on purpose: a parallel warm-up's time
/// depends on how the pool happens to be scheduled, which made set-up time
/// noisy; pool threads build their own plans in the first repetition, a few
/// milliseconds against seconds.
void warm_up(const std::vector<sim::Scenario>& scenarios, std::size_t payload_bits,
             const common::Rng& seed_rng, unsigned threads) {
  common::parallel_for(0, threads, [](std::size_t) {});
  const common::Rng rng = seed_rng.child(kStreamWarmup);
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    (void)sim::run_waveform_trial(scenarios[i], payload_bits, rng, i);
}

// --------------------------------------------------------------- workloads

/// One workload: set-up (repeatable; the last one is used), the job that is
/// timed, the check of its outputs, and the traced-only probes.
class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  virtual const char* setup_contains() const = 0;
  virtual void setup(Tracer* tr) = 0;
  /// Untimed preparation before each repetition of the job.
  virtual void prepare() {}
  /// The timed job. Spans are recorded only when `tr` is non-null.
  virtual void run(Tracer* tr, std::uint64_t parent) = 0;
  /// Untimed check of the repetition that just ran.
  virtual void verify() = 0;
  /// MAC polls (fleet) or waveform trials (campaign) per repetition.
  virtual double work() const = 0;
  virtual const char* work_name() const = 0;
  /// Exact simulated outcomes of one repetition, and the combined digest.
  virtual std::vector<std::pair<std::string, double>> outcomes() const = 0;
  virtual std::uint64_t digest() const = 0;
  /// After the traced repetition: probes and per-layer numbers.
  virtual void probes(Tracer& tr, std::uint64_t parent, Layer& out) = 0;
};

struct FleetSpec {
  std::size_t nodes;
  std::size_t readers;
  double area_m;
  bool slotted_mcs;  ///< MacMode::kSlotted + McsLadder::default_ladder()
  std::size_t replicates;
};

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(const FleetSpec& spec, const Args& args, Checks& checks)
      : spec_(spec), args_(args), checks_(checks), rng_(args.seed) {}

  const char* setup_contains() const override {
    return spec_.slotted_mcs
               ? "FleetConfig + McsLadder::default_ladder() + make_layout for every "
                 "replicate + thread-pool start"
               : "FleetConfig + make_layout for every replicate + thread-pool start + "
                 "one waveform trial per range 50..250 m (FFT plans, workspaces)";
  }

  void setup(Tracer* tr) override {
    cfg_ = sim::fleet::FleetConfig{};
    cfg_.scenario = sim::vab_river_scenario();
    cfg_.n_nodes = spec_.nodes;
    cfg_.n_readers = spec_.readers;
    cfg_.area_m = spec_.area_m;
    if (spec_.slotted_mcs) {
      ladder_ = std::make_unique<net::mcs::McsLadder>(
          net::mcs::McsLadder::default_ladder());
      cfg_.mac_mode = sim::fleet::MacMode::kSlotted;
      cfg_.inventory.ladder = ladder_.get();
    }
    for (std::size_t k = 0; k < spec_.replicates; ++k) {
      sim::fleet::FleetLayout layout;
      {
        Scope sp(tr, "fleet.layout", k);
        layout = sim::fleet::make_layout(cfg_, rng_.child(k));
      }
      checks_.expect(
          layout.nodes.size() == spec_.nodes && layout.readers.size() == spec_.readers,
          "make_layout places every node and reader");
    }
    warm_up(spec_.slotted_mcs ? std::vector<sim::Scenario>{} : probe_scenarios(),
            report_wire_bits(), rng_, args_.threads);
  }

  void run(Tracer* tr, std::uint64_t parent) override {
    if (!tr) {
      results_ = sim::fleet::run_fleet_replicates(cfg_, spec_.replicates, rng_);
      return;
    }
    // Same streams as run_fleet_replicates (replicate k seeds from
    // rng.child(k)), one span per replicate.
    results_.assign(spec_.replicates, {});
    common::parallel_for(0, spec_.replicates, [&](std::size_t k) {
      Scope sp(tr, "fleet.replicate", k, parent);
      results_[k] = sim::fleet::run_fleet(cfg_, rng_.child(k));
    });
  }

  void verify() override {
    const std::size_t cap = cfg_.fidelity.max_waveform_polls * spec_.readers;
    for (std::size_t k = 0; k < results_.size(); ++k) {
      const auto& r = results_[k];
      const std::string rep = " (replicate " + std::to_string(k) + ")";
      checks_.expect(r.assigned + r.unreachable == r.nodes && r.nodes == spec_.nodes,
                     "assigned + unreachable == nodes" + rep);
      checks_.expect(r.delivered <= r.assigned, "delivered <= assigned" + rep);
      checks_.expect(r.tally.budget_polls + r.tally.waveform_polls == r.polls,
                     "budget + waveform polls == polls" + rep);
      checks_.expect(r.tally.waveform_polls <= cap, "waveform polls within the cap" + rep);
      checks_.expect(r.slot_idle + r.slot_success + r.slot_collision + r.slot_capture ==
                         r.slot_total,
                     "every slot is idle, success, collision or capture" + rep);
      checks_.expect(r.slotted_unresolved <= r.assigned, "unresolved <= assigned" + rep);
    }
    if (first_.empty()) {
      first_ = results_;
      return;
    }
    for (std::size_t k = 0; k < results_.size(); ++k)
      checks_.expect(results_[k].digest == first_[k].digest,
                     "replicate " + std::to_string(k) + " digest repeats exactly");
  }

  double work() const override { return sum([](const auto& r) { return r.polls; }); }
  const char* work_name() const override { return "polls"; }

  std::vector<std::pair<std::string, double>> outcomes() const override {
    using R = sim::fleet::FleetResult;
    return {
        {"fleet.nodes", sum([](const R& r) { return r.nodes; })},
        {"fleet.assigned", sum([](const R& r) { return r.assigned; })},
        {"fleet.unreachable", sum([](const R& r) { return r.unreachable; })},
        {"fleet.delivered", sum([](const R& r) { return r.delivered; })},
        {"fleet.polls", sum([](const R& r) { return r.polls; })},
        {"fleet.retries", sum([](const R& r) { return r.retries; })},
        {"fleet.timeouts", sum([](const R& r) { return r.timeouts; })},
        {"fleet.events", sum([](const R& r) { return r.events; })},
        {"fleet.windows", sum([](const R& r) { return r.windows; })},
        {"fleet.contended_windows", sum([](const R& r) { return r.contended_windows; })},
        {"fleet.budget_polls", sum([](const R& r) { return r.tally.budget_polls; })},
        {"fleet.waveform_polls", sum([](const R& r) { return r.tally.waveform_polls; })},
        {"fleet.escalations_marginal",
         sum([](const R& r) { return r.tally.escalations_marginal; })},
        {"fleet.escalations_contention",
         sum([](const R& r) { return r.tally.escalations_contention; })},
        {"fleet.waveform_cap_hits", sum([](const R& r) { return r.tally.waveform_cap_hits; })},
        {"fleet.contended_polls", sum([](const R& r) { return r.tally.contended_polls; })},
        {"net.slot.total", sum([](const R& r) { return r.slot_total; })},
        {"net.slot.success", sum([](const R& r) { return r.slot_success; })},
        {"net.slot.collision", sum([](const R& r) { return r.slot_collision; })},
        {"net.slot.capture", sum([](const R& r) { return r.slot_capture; })},
        {"net.slotted.unresolved", sum([](const R& r) { return r.slotted_unresolved; })},
        {"net.mcs.steps_up", sum([](const R& r) { return r.mcs_steps_up; })},
        {"net.mcs.steps_down", sum([](const R& r) { return r.mcs_steps_down; })},
        {"net.mcs.reconfigures", sum([](const R& r) { return r.reconfigures; })},
    };
  }

  std::uint64_t digest() const override {
    std::uint64_t d = 0;
    for (const auto& r : first_) d = (d * 0x100000001b3ULL) ^ r.digest;
    return d;
  }

  void probes(Tracer& tr, std::uint64_t parent, Layer& out) override {
    for (const auto& [name, value] : outcomes()) out[name] = value;
    const double polls = out["fleet.polls"];
    out["fleet.waveform_share"] = ratio(out["fleet.waveform_polls"], polls);
    out["fleet.delivery_ratio"] = ratio(out["fleet.delivered"], out["fleet.assigned"]);
    out["fleet.polls_per_delivered"] = ratio(polls, out["fleet.delivered"]);
    out["net.slot.success_ratio"] = ratio(out["net.slot.success"], out["net.slot.total"]);
    const std::uint64_t d = digest();
    out["fleet.digest"] = static_cast<double>((d ^ (d >> 32)) & 0xFFFFFFFFULL);

    const std::vector<double> rep_s = scaled(tr.durations_ms("fleet.replicate"), 1e-3);
    const perfbench::Summary reps = perfbench::summarize(rep_s);
    out["fleet.replicate_s.p50"] = reps.p50;
    out["fleet.replicate_s.max"] = reps.max;
    out["fleet.replicate_s.count"] = static_cast<double>(reps.count);
    const perfbench::Summary layout = perfbench::summarize(tr.durations_ms("fleet.layout"));
    out["fleet.layout_ms.p50"] = layout.p50;
    out["fleet.layout_ms.count"] = static_cast<double>(layout.count);

    WaveProbe wp;
    wp.trials_each = args_.tiny ? 2 : 12;
    wp.payload_bits = report_wire_bits();
    const common::Rng probe_rng = rng_.child(kStreamWaveProbe);
    wp.scenarios = probe_scenarios();
    for (std::size_t i = 0; i < wp.scenarios.size(); ++i)
      wp.streams.push_back(probe_rng.child(i));
    run_wave_probe(wp, tr, parent, checks_, out);
    run_net_probe(rng_, args_.tiny, tr, parent, checks_, out);

    // Time attribution per replicate: waveform polls x probed trial cost, and
    // (with the ladder) one RateController per polled node, against the
    // replicate's wall time.
    const double n_rep = static_cast<double>(spec_.replicates);
    out["fleet.wave_time_share"] =
        ratio(out["fleet.waveform_polls"] / n_rep * out["wave.trial_ms.p50"] * 1e-3,
              reps.p50);
    const double polled_nodes =
        (out["fleet.assigned"] - out["net.slotted.unresolved"]) / n_rep;
    out["net.mcs.controller_time_share"] =
        spec_.slotted_mcs
            ? ratio(polled_nodes * out["net.mcs.controller_setup_us.p50"] * 1e-6, reps.p50)
            : 0.0;
  }

 private:
  /// Link geometries the waveform probe and warm-up use: ranges across the
  /// fleet's 250 m link reach.
  std::vector<sim::Scenario> probe_scenarios() const {
    std::vector<sim::Scenario> out;
    for (const double range : {50.0, 100.0, 150.0, 200.0, 250.0}) {
      out.push_back(cfg_.scenario);
      out.back().range_m = range;
    }
    return out;
  }

  template <typename F>
  double sum(F f) const {
    double s = 0.0;
    for (const auto& r : first_) s += static_cast<double>(f(r));
    return s;
  }

  FleetSpec spec_;
  const Args& args_;
  Checks& checks_;
  common::Rng rng_;
  sim::fleet::FleetConfig cfg_;
  std::unique_ptr<net::mcs::McsLadder> ladder_;
  std::vector<sim::fleet::FleetResult> results_;
  std::vector<sim::fleet::FleetResult> first_;  ///< first repetition's results
};

struct CampaignSpec {
  std::vector<double> ranges_m;
  std::size_t trials_per_range;
  std::size_t payload_bits;
  std::size_t shards;
};

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(const CampaignSpec& spec, const Args& args, Checks& checks)
      : spec_(spec), args_(args), checks_(checks), rng_(args.seed) {}

  const char* setup_contains() const override {
    return "WaveformJob list + empty checkpoint directory + thread-pool start + one "
           "waveform trial per campaign range (FFT plans, workspaces)";
  }

  void setup(Tracer*) override {
    jobs_.clear();
    for (std::size_t j = 0; j < spec_.ranges_m.size(); ++j) {
      sim::WaveformJob job;
      job.scenario = sim::vab_river_scenario();
      job.scenario.range_m = spec_.ranges_m[j];
      job.trials = spec_.trials_per_range;
      job.payload_bits = spec_.payload_bits;
      job.rng = rng_.child(j);
      jobs_.push_back(job);
    }
    std::ostringstream key;
    key << "perfbench.waveform_campaign seed=" << args_.seed
        << " trials=" << spec_.trials_per_range << " bits=" << spec_.payload_bits
        << " ranges=";
    for (const double r : spec_.ranges_m) key << r << ",";
    key_ = key.str();
    dir_ = args_.out_dir + "/ckpt-" + std::to_string(::getpid());
    clear_dir();
    std::vector<sim::Scenario> scenarios;
    for (const auto& job : jobs_) scenarios.push_back(job.scenario);
    warm_up(scenarios, spec_.payload_bits, rng_, args_.threads);
  }

  ~CampaignWorkload() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void prepare() override { clear_dir(); }

  void run(Tracer* tr, std::uint64_t parent) override {
    computed_.clear();
    resumed_.clear();
    for (std::size_t i = 0; i < spec_.shards; ++i) {
      Scope sp(tr, "campaign.shard", i, parent);
      computed_.push_back(sim::run_waveform_batch_shard(jobs_, shard_cfg(i)));
    }
    for (std::size_t i = 0; i < spec_.shards; ++i) {
      Scope sp(tr, "campaign.resume", i, parent);
      resumed_.push_back(sim::run_waveform_batch_shard(jobs_, shard_cfg(i)));
    }
    Scope sp(tr, "campaign.merge", 0, parent);
    merged_ = sim::merge_waveform_batch_campaign(resumed_, jobs_);
  }

  void verify() override {
    std::size_t from_ckpt = 0;
    for (std::size_t i = 0; i < spec_.shards; ++i) {
      const std::string sh = " (shard " + std::to_string(i) + ")";
      checks_.expect(!computed_[i].from_checkpoint, "first pass computes" + sh);
      checks_.expect(resumed_[i].from_checkpoint, "second pass resumes from checkpoint" + sh);
      checks_.expect(same(computed_[i].outcomes, resumed_[i].outcomes),
                     "resumed outcomes equal computed outcomes" + sh);
      from_ckpt += resumed_[i].from_checkpoint ? 1 : 0;
    }
    shards_from_ckpt_ = from_ckpt;
    const auto in_memory = sim::merge_waveform_batch_campaign(computed_, jobs_);
    checks_.expect(same(in_memory, merged_),
                   "merge of resumed checkpoints is bit-identical to the in-memory merge");
    for (const auto& st : merged_)
      checks_.expect(st.frames_ok <= st.frames_synced && st.frames_synced <= st.trials &&
                         st.bit_errors <= st.total_bits,
                     "waveform stats are consistent");
    ckpt_bytes_ = 0;
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(dir_, ec))
      if (e.is_regular_file()) ckpt_bytes_ += static_cast<double>(e.file_size());
    if (first_.empty()) {
      first_ = merged_;
      first_outcomes_.clear();
      for (const auto& sh : computed_)
        first_outcomes_.insert(first_outcomes_.end(), sh.outcomes.begin(),
                               sh.outcomes.end());
      return;
    }
    checks_.expect(same(first_, merged_), "campaign result repeats exactly");
  }

  double work() const override {
    return static_cast<double>(spec_.ranges_m.size() * spec_.trials_per_range);
  }
  const char* work_name() const override { return "trials"; }

  std::vector<std::pair<std::string, double>> outcomes() const override {
    double trials = 0, synced = 0, ok = 0, errors = 0;
    for (const auto& st : first_) {
      trials += static_cast<double>(st.trials);
      synced += static_cast<double>(st.frames_synced);
      ok += static_cast<double>(st.frames_ok);
      errors += static_cast<double>(st.bit_errors);
    }
    std::vector<std::pair<std::string, double>> out = {
        {"wave.trials", trials},
        {"wave.frames_synced", synced},
        {"wave.frames_ok", ok},
        {"wave.bit_errors", errors},
        {"campaign.ckpt_bytes", ckpt_bytes_}};
    for (std::size_t j = 0; j < first_.size(); ++j)
      out.emplace_back("wave.frames_ok.range_" + num(spec_.ranges_m[j]) + "m",
                       static_cast<double>(first_[j].frames_ok));
    return out;
  }

  std::uint64_t digest() const override {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& o : first_outcomes_) {
      for (const std::uint64_t v :
           {static_cast<std::uint64_t>(o.bit_errors), std::uint64_t{o.sync_found},
            std::uint64_t{o.frame_ok}}) {
        h ^= v;
        h *= 0x100000001b3ULL;
      }
    }
    return h;
  }

  void probes(Tracer& tr, std::uint64_t parent, Layer& out) override {
    for (const auto& [name, value] : outcomes()) out[name] = value;
    out["wave.sync_ratio"] = ratio(out["wave.frames_synced"], out["wave.trials"]);
    out["campaign.shards_from_checkpoint"] = static_cast<double>(shards_from_ckpt_);
    const perfbench::Summary shard =
        perfbench::summarize(scaled(tr.durations_ms("campaign.shard"), 1e-3));
    out["campaign.shard_s.p50"] = shard.p50;
    out["campaign.shard_s.max"] = shard.max;
    out["campaign.shard_s.count"] = static_cast<double>(shard.count);
    double resume_ms = 0.0;
    for (const double ms : tr.durations_ms("campaign.resume")) resume_ms += ms;
    out["campaign.resume_s"] = resume_ms * 1e-3;
    const auto merge = tr.durations_ms("campaign.merge");
    out["campaign.merge_ms"] = merge.empty() ? 0.0 : merge.back();

    // The probe re-runs the campaign's own first trials of every range with
    // sim::run_waveform_trial and checks them against the shard outcomes.
    WaveProbe wp;
    wp.trials_each = std::min<std::size_t>(args_.tiny ? 2 : 12, spec_.trials_per_range);
    wp.payload_bits = spec_.payload_bits;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      wp.scenarios.push_back(jobs_[j].scenario);
      wp.streams.push_back(jobs_[j].rng);
      const auto begin = first_outcomes_.begin() +
                         static_cast<std::ptrdiff_t>(j * spec_.trials_per_range);
      wp.expected.emplace_back(begin, begin + static_cast<std::ptrdiff_t>(wp.trials_each));
    }
    run_wave_probe(wp, tr, parent, checks_, out);
    run_net_probe(rng_, args_.tiny, tr, parent, checks_, out);
  }

 private:
  sim::CampaignConfig shard_cfg(std::size_t i) const {
    sim::CampaignConfig c;
    c.dir = dir_;
    c.key = key_;
    c.shard = sim::ShardSpec{i, spec_.shards};
    return c;
  }

  void clear_dir() const {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(dir_, ec);
  }

  CampaignSpec spec_;
  const Args& args_;
  Checks& checks_;
  common::Rng rng_;
  std::vector<sim::WaveformJob> jobs_;
  std::string key_;
  std::string dir_;
  std::vector<sim::WaveformShardResult> computed_, resumed_;
  std::vector<sim::WaveformStats> merged_;
  std::vector<sim::WaveformStats> first_;
  std::vector<sim::WaveformTrialOutcome> first_outcomes_;  ///< flat (range, trial)
  std::size_t shards_from_ckpt_ = 0;
  double ckpt_bytes_ = 0.0;
};

std::unique_ptr<Workload> make_workload(const Args& a, Checks& checks) {
  // Full sizes are the workloads BENCHMARK.json describes; tiny sizes exist
  // for the self-test only.
  if (a.workload == "fleet_escalation")
    return std::make_unique<FleetWorkload>(
        a.tiny ? FleetSpec{40, 2, 400.0, false, 2} : FleetSpec{10000, 16, 2000.0, false, 4},
        a, checks);
  if (a.workload == "fleet_dense_mcs")
    return std::make_unique<FleetWorkload>(
        a.tiny ? FleetSpec{3000, 4, 1200.0, true, 2}
               : FleetSpec{100000, 100, 6000.0, true, 4},
        a, checks);
  return std::make_unique<CampaignWorkload>(
      CampaignSpec{{100.0, 200.0, 300.0, 400.0}, a.tiny ? 4U : 256U, 64, a.tiny ? 2U : 8U},
      a, checks);
}

double median(std::vector<double> v) { return perfbench::summarize(std::move(v)).p50; }

void print_metrics(const MetricDef* defs, std::size_t n, const Layer& values,
                   const Checks& checks) {
  std::ostringstream os;
  os << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << checks.attempted << ", \"failed\": " << checks.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(defs[i].name);
    os << (i ? ", " : "") << "\"" << defs[i].name << "\": {\"value\": "
       << num(it == values.end() ? 0.0 : it->second) << ", \"unit\": \"" << defs[i].unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run(const Args& args) {
  common::set_thread_count(args.threads);
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  Checks checks;
  Tracer tracer;
  Tracer* tr = args.trace ? &tracer : nullptr;
  const std::unique_ptr<Workload> w = make_workload(args, checks);

  // Set-up, several times; the median is setup_s.
  const std::size_t n_setups = args.tiny ? 2 : 5;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < n_setups; ++i) {
    const auto t0 = Clock::now();
    w->setup(tr);
    setup_s.push_back(perfbench::seconds_since(t0));
  }

  // Untraced repetitions while another one still fits in --seconds.
  std::vector<double> wall, cpu;
  const auto t_start = Clock::now();
  bool threw = false;
  do {
    w->prepare();
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    try {
      w->run(nullptr, 0);
    } catch (const std::exception& e) {
      checks.expect(false, std::string("library call threw: ") + e.what());
      threw = true;
      break;
    }
    wall.push_back(perfbench::seconds_since(t0));
    cpu.push_back(cpu_seconds() - c0);
    w->verify();
  } while (perfbench::seconds_since(t_start) + median(wall) <= args.seconds);

  Layer layer;
  if (args.trace && !threw) {
    w->prepare();
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    double traced_wall = 0.0;
    try {
      {
        Scope job(&tracer, "job");
        w->run(&tracer, job.seq());
      }
      traced_wall = perfbench::seconds_since(t0);
      const double traced_cpu = cpu_seconds() - c0;
      w->verify();
      layer["parallel.threads"] = args.threads;
      layer["parallel.utilization"] =
          ratio(traced_cpu, static_cast<double>(args.threads) * traced_wall);
      layer["trace.overhead_frac"] = ratio(traced_wall - median(wall), median(wall));
      Scope probe(&tracer, "probes");
      w->probes(tracer, probe.seq(), layer);
    } catch (const std::exception& e) {
      checks.expect(false, std::string("library call threw: ") + e.what());
    }
    layer["trace.spans"] = static_cast<double>(tracer.size());
    const std::string path = args.out_dir + "/trace-" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (!tracer.write_json(path, args.workload, args.seed))
      std::cerr << "perfbench: cannot write " << path << "\n";
  }

  const double wall_s = median(wall);
  const double work_per_s = ratio(w->work(), wall_s);
  std::cout << "{\"perfbench\": \"context\", \"workload\": \"" << args.workload
            << "\", \"seed\": " << args.seed << ", \"size\": \""
            << (args.tiny ? "tiny" : "full") << "\", \"threads\": " << args.threads
            << ", \"nproc\": " << common::hardware_thread_count()
            << ", \"simd_isa\": \"" << dsp::simd::isa_name(dsp::simd::active_isa())
            << "\", \"build_type\": \"" << VAB_PERFBENCH_BUILD_TYPE
            << "\", \"repetitions\": " << wall.size() << ", \"setups\": " << n_setups
            << ", \"setup_contains\": \"" << w->setup_contains() << "\"}\n";
  std::cout << "{\"perfbench\": \"outcomes\", \"workload\": \"" << args.workload
            << "\", \"seed\": " << args.seed << ", \"digest\": \"" << hex64(w->digest())
            << "\", \"" << w->work_name() << "_per_s\": " << num(work_per_s)
            << ", \"failed_frac\": "
            << num(ratio(static_cast<double>(checks.failed),
                         static_cast<double>(checks.attempted)))
            << ", \"counts\": {";
  const auto counts = w->outcomes();
  for (std::size_t i = 0; i < counts.size(); ++i)
    std::cout << (i ? ", " : "") << "\"" << counts[i].first << "\": " << num(counts[i].second);
  std::cout << "}}\n";

  if (args.trace) {
    print_metrics(kPerLayer, std::size(kPerLayer), layer, checks);
  } else {
    const Layer e2e = {{"setup_s", median(setup_s)},
                       {"wall_s", wall_s},
                       {"cpu_s", median(cpu)},
                       {"work_per_s", work_per_s},
                       {"peak_rss_mb", peak_rss_mb()}};
    print_metrics(kEndToEnd, std::size(kEndToEnd), e2e, checks);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
