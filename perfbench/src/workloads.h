// The benchmark's workloads: their inputs, one timed round of work, and
// the output check every round must pass.
//
// A workload is a pure function of its seed.  One round runs kInstances
// instances, each with its own seed derived from the workload seed, so
// one run averages over kInstances inputs instead of riding one seed's
// luck.  Three workloads are run_scenario clusters over lossy links; the
// fourth, replay_blocks, replays blocks through a ReplayEngine with no
// network.  Every instance is preceded by one call of the calibration
// kernel (calibrate.h), timed apart from the work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "atomic/ledger_specs.h"
#include "exec/block.h"
#include "sched/scenario.h"
#include "trace.h"

namespace perfbench {

using tokensync::Erc20LedgerSpec;
using Blk = tokensync::Block<Erc20LedgerSpec>;

/// Instances per round.
inline constexpr std::size_t kInstances = 8;

/// What one round did: the exact counts the per-layer metrics derive
/// from, summed over the round's instances, and the time the calibration
/// kernel took beside it.
struct RoundCounts {
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t replicas = 0;  ///< replicas that apply every op
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t slots = 0;
  std::uint64_t proposal_bytes = 0;
  std::uint64_t miss_recoveries = 0;
  std::uint64_t fast_lane_ops = 0;
  std::uint64_t history_bytes = 0;
  double subblocks_applied = 0;
  std::uint64_t dup_refs_dropped = 0;
  double sim_span_ticks = 0;   ///< ticks to each instance's last commit
  double latency_p50_sum = 0;  ///< per-instance p50, summed
  double latency_p99_sum = 0;
  std::uint64_t latency_samples = 0;
  std::uint64_t digest = 0;    ///< combined history digest
  double kernel_s = 0;         ///< calibration kernel time, not work
  std::size_t kernel_calls = 0;
};

/// A ledger state plus blocks to replay from it.
struct ExecInput {
  tokensync::Erc20State initial;
  std::vector<Blk> blocks;
};

/// One workload bound to a seed.
class Workload {
 public:
  /// Throws std::invalid_argument for an unknown workload name.
  Workload(const std::string& name, std::uint64_t seed);

  /// True for the run_scenario workloads; false for replay_blocks.
  bool is_cluster() const noexcept { return !configs_.empty(); }

  /// The scenario every instance runs, seed aside; cluster workloads only.
  const tokensync::ScenarioConfig& config() const noexcept {
    return configs_.front();
  }

  /// Makes the reference outputs the timed rounds must reproduce.
  /// Cluster workloads run every instance once and keep its history
  /// digest.  replay_blocks folds every instance's ops through
  /// Erc20LedgerSpec::SeqSpec for the reference responses and final
  /// state, then replays it once, checks the replay against the fold and
  /// keeps the rendered history's digest.  Returns false, with failure()
  /// set, if that check fails.  `kernel` gets the calibration kernel's
  /// time and calls.
  bool set_up(RoundCounts& kernel);

  /// One round of timed work, with a span per instance on `tracer`.
  /// Returns false, with failure() set, if any instance fails its check:
  /// for clusters, its audit, committed == submitted and its set-up
  /// digest; for replay_blocks, its set-up digest and final state.
  bool run_round(RoundCounts& out, Tracer& tracer);

  /// Blocks the exec probes replay to price this workload's replay work.
  /// Clusters: block-storm blocks of the round's mean ops per slot over
  /// the workload's account count.  replay_blocks: its own first instance.
  ExecInput exec_input(const RoundCounts& c) const;

  const std::string& failure() const noexcept { return failure_; }

 private:
  void run_cluster(std::size_t i, RoundCounts& out, Tracer& tracer);
  void run_replay(std::size_t i, RoundCounts& out, Tracer& tracer);
  void set_up_replay(std::size_t i);
  bool check(std::size_t i, const tokensync::ScenarioReport& rep);

  std::string name_;
  std::vector<tokensync::ScenarioConfig> configs_;  ///< clusters
  std::vector<std::vector<Blk>> replay_inputs_;     ///< replay_blocks
  tokensync::Erc20State replay_initial_;
  std::vector<tokensync::Erc20State> replay_final_;
  std::vector<std::uint64_t> reference_;
  std::size_t accounts_ = 0;
  bool ok_ = true;
  std::string failure_;
};

/// `count` blocks of `ops_per_block` ops in the block storm's op mix
/// (mostly transfers, some allowance traffic, a rare totalSupply
/// barrier) over `accounts` accounts.
std::vector<Blk> storm_blocks(std::uint64_t seed, std::size_t accounts,
                              std::size_t ops_per_block, std::size_t count);

/// The storm's initial state: 100 tokens and an allowance of 2 from
/// every account to every process.
tokensync::Erc20State storm_initial(std::size_t accounts);

}  // namespace perfbench
