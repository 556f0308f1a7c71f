// perfbench — one workload, one process, one thread.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Sets the workload up kSetupReps times (setup_s is their calibrated
// median), warms up, then repeats rounds of the workload for --seconds,
// checking every round's output against the set-up's reference.  Times
// are calibrated against a kernel run beside the work (calibrate.h).
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced rounds, probes each layer's unit cost,
// and reports the per-layer metrics.  The last stdout line is the JSON result; the exit
// code is 0 only if every check passed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "calibrate.h"
#include "probes.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
      } else if (key == "--trace-out") {
        a.trace_out = val;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds out of range");
  return a;
}

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// A field of /proc/self/status ("VmHWM", "Threads"), as its leading
/// number; -1 if absent.
long proc_status(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtol(line.c_str() + field.size() + 1, nullptr, 10);
    }
  }
  return -1;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Round times: the work's wall time without the calibration kernel's,
/// and that time rescaled to the nominal host speed (calibrate.h).
struct RoundTimes {
  std::vector<double> work;
  std::vector<double> calibrated;
  std::vector<double> kernel;  ///< kernel seconds per call
};

/// Runs rounds until `seconds` have passed (at least one round).  Given
/// `traced`, every second round runs with the tracer on and its times go
/// there instead, so traced and untraced rounds see the same host
/// conditions.  Stops at the first round that fails its check.
struct Runner {
  Workload& wl;
  Tracer& tracer;
  RoundCounts counts;
  std::uint64_t attempted = 0;
  bool ok = true;

  RoundTimes rounds(double seconds, RoundTimes* traced = nullptr) {
    RoundTimes times;
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i == 0 || seconds_since(start) < seconds; ++i) {
      const bool trace_round = traced != nullptr && i % 2 == 1;
      tracer.enable(trace_round);
      RoundCounts c;
      const std::uint64_t t0 = now_ns();
      const bool round_ok = [&] {
        Tracer::Scope span(tracer, "round");
        return wl.run_round(c, tracer);
      }();
      const double work = seconds_since(t0) - c.kernel_s;
      RoundTimes& into = trace_round ? *traced : times;
      into.work.push_back(work);
      into.calibrated.push_back(calibrated_s(work, c.kernel_s, c.kernel_calls));
      into.kernel.push_back(c.kernel_s / static_cast<double>(c.kernel_calls));
      attempted += c.submitted;
      counts = c;
      if (!round_ok) {
        ok = false;
        break;
      }
    }
    tracer.enable(false);
    return times;
  }
};

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> layer_metrics(const Workload& wl, const RoundCounts& c,
                                  const UnitCosts& u,
                                  double wall_ns_per_op,
                                  double overhead_share) {
  const double ops = static_cast<double>(c.committed);
  const double slots = static_cast<double>(c.slots);
  const double replicas = static_cast<double>(c.replicas);
  // Only the leaderless pipeline records per-op latency (NOTES.md).
  const bool leaderless =
      wl.is_cluster() && wl.config().workload ==
                             tokensync::Workload::kErc20MultiproposerStorm;
  const double instances = static_cast<double>(kInstances);

  const double simnet = u.simnet_ns_per_msg * per(c.msgs_sent, ops);
  const double consensus = u.consensus_ns_per_slot * per(slots, ops);
  const double erb = u.erb_ns_per_bcast * per(c.fast_lane_ops, ops);
  const double plan = u.plan_ns_per_op * replicas;
  const double execute = (u.execute_ns_per_op - u.plan_ns_per_op) * replicas;
  const double render = (u.apply_ns_per_op - u.execute_ns_per_op) * replicas;
  const double digest =
      u.digest_ns_per_byte * per(c.history_bytes, ops);
  const double attributed =
      simnet + consensus + erb + plan + execute + render + digest;

  return {
      {"net.simnet.msgs_per_op", per(c.msgs_sent, ops), "msgs/op"},
      {"net.simnet.wire_bytes_per_op", per(c.bytes_sent, ops), "B/op"},
      {"net.simnet.ops_per_ktick", per(1000.0 * ops, c.sim_span_ticks),
       "ops/ktick"},
      {"consensus.ops_per_slot", per(ops, slots), "ops/slot"},
      {"consensus.proposal_bytes_per_slot", per(c.proposal_bytes, slots),
       "B/slot"},
      {"net.relay.miss_recoveries_per_kop",
       per(1000.0 * c.miss_recoveries, ops), "recoveries/kop"},
      {"net.multi_proposer.subblocks_per_slot",
       per(c.subblocks_applied, slots), "subblocks/slot"},
      {"net.multi_proposer.dup_ref_share",
       per(c.dup_refs_dropped, c.subblocks_applied + c.dup_refs_dropped),
       "share"},
      {"net.multi_proposer.commit_p50_ticks",
       leaderless ? c.latency_p50_sum / instances : 0.0, "ticks"},
      {"net.multi_proposer.commit_p99_ticks",
       leaderless ? c.latency_p99_sum / instances : 0.0, "ticks"},
      {"net.multi_proposer.commit_samples",
       leaderless ? static_cast<double>(c.latency_samples) : 0.0, "count"},
      {"net.hybrid.fast_lane_share", per(c.fast_lane_ops, ops), "share"},
      {"exec.waves_per_block", u.waves_per_block, "waves/block"},
      {"exec.escalated_share", u.escalated_share, "share"},
      {"sched.history_bytes_per_op", per(c.history_bytes, ops), "B/op"},
      {"wall.ns_per_op", wall_ns_per_op, "ns/op"},
      {"net.simnet.ns_per_op", simnet, "ns/op"},
      {"consensus.ns_per_op", consensus, "ns/op"},
      {"bcast.erb.ns_per_op", erb, "ns/op"},
      {"exec.plan.ns_per_op", plan, "ns/op"},
      {"exec.execute.ns_per_op", execute, "ns/op"},
      {"exec.render.ns_per_op", render, "ns/op"},
      {"sched.digest.ns_per_op", digest, "ns/op"},
      {"unattributed.ns_per_op", wall_ns_per_op - attributed, "ns/op"},
      {"trace.overhead_share", overhead_share, "share"},
  };
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run(const Args& a) {
  Workload wl(a.workload, a.seed);
  Tracer tracer;

  Runner runner{wl, tracer, {}, 0, true};
  std::vector<double> setup;
  for (int r = 0; r < kSetupReps && runner.ok; ++r) {
    RoundCounts k;
    const std::uint64_t t0 = now_ns();
    runner.ok = wl.set_up(k);
    setup.push_back(
        calibrated_s(seconds_since(t0) - k.kernel_s, k.kernel_s,
                     k.kernel_calls));
  }

  if (runner.ok) runner.rounds(std::min(1.0, 0.1 * a.seconds));  // warm-up
  runner.attempted = 0;

  std::vector<Metric> metrics;
  if (runner.ok && !a.trace) {
    const RoundTimes times = runner.rounds(a.seconds);
    const RoundCounts& c = runner.counts;
    const double ops = static_cast<double>(c.committed);
    metrics = {
        {"calibrated_ops_per_s", ops / median(times.calibrated), "ops/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", static_cast<double>(proc_status("VmHWM")) / 1024.0,
         "MB"},
        {"committed_op_share", per(c.committed, c.submitted), "share"},
    };
    std::printf("rounds: %zu\n", times.work.size());
    std::printf("uncalibrated committed_ops_per_s: %.6g\n",
                ops / median(times.work));
    std::printf("calibration kernel: median %.4g ms per call, nominal %.4g ms\n",
                median(times.kernel) * 1e3, kKernelNominalS * 1e3);
  } else if (runner.ok) {
    RoundTimes traced;
    const RoundTimes untraced = runner.rounds(a.seconds, &traced);
    if (runner.ok && traced.work.empty()) traced = untraced;  // one round
    if (runner.ok) {
      const RoundCounts& c = runner.counts;
      tracer.enable(true);
      const UnitCosts u = measure_unit_costs(wl, c, tracer);
      tracer.enable(false);
      metrics = layer_metrics(
          wl, c, u,
          median(traced.work) * 1e9 / static_cast<double>(c.committed),
          median(traced.calibrated) / median(untraced.calibrated) - 1.0);
    }
    if (!a.trace_out.empty() && !tracer.write(a.trace_out, a.workload)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   a.trace_out.c_str());
      runner.ok = false;
    }
  }

  // Single-thread guard: nothing the workloads call may start a thread.
  const long threads = proc_status("Threads");
  if (threads != 1) {
    std::fprintf(stderr, "perfbench: %ld threads running, want 1\n", threads);
    runner.ok = false;
  }
  if (!runner.ok && !wl.failure().empty()) {
    std::fprintf(stderr, "perfbench: output check failed: %s\n",
                 wl.failure().c_str());
  }
  std::printf("digest: %016llx\n",
              static_cast<unsigned long long>(runner.counts.digest));
  const std::uint64_t attempted = std::max<std::uint64_t>(runner.attempted, 1);
  print_result(runner.ok, attempted, runner.ok ? 0 : attempted, metrics);
  return runner.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args a = perfbench::parse(argc, argv);
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
