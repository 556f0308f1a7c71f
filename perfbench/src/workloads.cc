#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "calibrate.h"
#include "common/rng.h"
#include "exec/replay_engine.h"
#include "objects/erc20.h"

namespace perfbench {

using namespace tokensync;

namespace {

// replay_blocks: each instance replays kReplayBlocks blocks of
// kReplayBlockOps ops over kReplayAccounts accounts, log catch-up style.
constexpr std::size_t kReplayAccounts = 256;
constexpr std::size_t kReplayBlockOps = 64;
constexpr std::size_t kReplayBlocks = 64;

// Derives instance i's seed from the workload seed (splitmix64), so the
// instances of one run are distinct and a new workload seed moves all of
// them.
std::uint64_t instance_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + i + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return (z ^ (z >> 31)) | 1;  // never 0: the seed seeds SimNet's Rng
}

std::uint64_t mix_digest(std::uint64_t acc, std::uint64_t d) {
  return (acc ^ d) * 1099511628211ull + 0x9e3779b97f4a7c15ull;
}

// Every workload pins replay_threads = 1: the executor's per-wave worker
// handshakes make threaded replay slower and noisier than one thread on
// a shared host (NOTES.md).
ScenarioConfig scenario_of(const std::string& name) {
  ScenarioConfig c;
  c.fault = FaultProfile::kLossyDup;
  c.replay_threads = 1;
  if (name == "block_lossy") {
    c.workload = tokensync::Workload::kErc20BlockStorm;
    c.num_replicas = 4;
    c.relay_mode = RelayMode::kCompact;
    c.intensity = 100;
  } else if (name == "leaderless_lossy") {
    c.workload = tokensync::Workload::kErc20MultiproposerStorm;
    c.num_replicas = 4;
    c.num_proposers = 4;
    c.subblock_max_ops = 4;
    c.intensity = 100;
  } else if (name == "tiers_n7") {
    c.workload = tokensync::Workload::kMixedSyncTiers;
    c.num_replicas = 7;
    c.intensity = 50;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return c;
}

}  // namespace

Workload::Workload(const std::string& name, std::uint64_t seed)
    : name_(name) {
  if (name == "replay_blocks") {
    accounts_ = kReplayAccounts;
    replay_initial_ = storm_initial(kReplayAccounts);
    for (std::size_t i = 0; i < kInstances; ++i) {
      replay_inputs_.push_back(storm_blocks(instance_seed(seed, i),
                                            kReplayAccounts, kReplayBlockOps,
                                            kReplayBlocks));
    }
    return;
  }
  const ScenarioConfig base = scenario_of(name);
  // The block storms run over 16 accounts; the tiers script gives each
  // replica one account.
  accounts_ = base.workload == tokensync::Workload::kMixedSyncTiers
                  ? base.num_replicas
                  : 16;
  for (std::size_t i = 0; i < kInstances; ++i) {
    ScenarioConfig c = base;
    c.seed = instance_seed(seed, i);
    configs_.push_back(c);
  }
}

bool Workload::set_up(RoundCounts& kernel) {
  kernel = RoundCounts{};
  reference_.clear();
  replay_final_.clear();
  ok_ = true;
  for (std::size_t i = 0; i < kInstances; ++i) {
    kernel.kernel_s += calibration_kernel_s();
    ++kernel.kernel_calls;
    if (is_cluster()) {
      reference_.push_back(run_scenario(configs_[i]).history_digest);
    } else {
      set_up_replay(i);
    }
  }
  return ok_;
}

// The sequential fold is the reference: SeqSpec responses and final
// state.  The set-up replay must render exactly those responses, op by
// op, and end in that state; its history digest then pins the schedule
// shape the line also renders.
void Workload::set_up_replay(std::size_t i) {
  Erc20State q = replay_initial_;
  ReplayEngine<Erc20LedgerSpec> engine(replay_initial_,
                                       ExecOptions{.threads = 1});
  std::string history;
  for (const Blk& b : replay_inputs_[i]) {
    std::string want = "block[" + std::to_string(b.size()) + "]";
    for (std::size_t k = 0; k < b.ops.size(); ++k) {
      Applied<Erc20State> applied = Erc20LedgerSpec::SeqSpec::apply(
          q, b.ops[k].caller, b.ops[k].op);
      q = std::move(applied.state);
      want += k == 0 ? " p" : " | p";
      want += std::to_string(b.ops[k].caller);
      want += ' ';
      want += b.ops[k].op.to_string();
      want += " -> ";
      want += response_to_string(applied.response);
    }
    want += " {waves=";
    const std::string line = engine.apply(b);
    if (line.compare(0, want.size(), want) != 0 && ok_) {
      failure_ = name_ + " instance " + std::to_string(i) +
                 ": replay responses differ from the sequential fold";
      ok_ = false;
    }
    history += line;
    history += '\n';
  }
  if (!(engine.ledger().snapshot() == q) && ok_) {
    failure_ = name_ + " instance " + std::to_string(i) +
               ": replay final state differs from the sequential fold";
    ok_ = false;
  }
  reference_.push_back(digest_history(history));
  replay_final_.push_back(std::move(q));
}

bool Workload::run_round(RoundCounts& out, Tracer& tracer) {
  out = RoundCounts{};
  ok_ = true;
  for (std::size_t i = 0; i < kInstances; ++i) {
    {
      Tracer::Scope span(tracer, "calibrate");
      out.kernel_s += calibration_kernel_s();
      ++out.kernel_calls;
    }
    if (is_cluster()) {
      run_cluster(i, out, tracer);
    } else {
      run_replay(i, out, tracer);
    }
  }
  return ok_;
}

void Workload::run_cluster(std::size_t i, RoundCounts& out, Tracer& tracer) {
  const ScenarioReport rep = [&] {
    Tracer::Scope span(tracer, "scenario.run");
    return run_scenario(configs_[i]);
  }();
  ok_ = check(i, rep) && ok_;
  out.submitted += rep.submitted;
  out.committed += rep.committed;
  out.replicas = rep.replicas;
  out.msgs_sent += rep.net.sent;
  out.bytes_sent += rep.net.bytes_sent;
  out.slots += rep.slots;
  out.proposal_bytes += rep.proposal_bytes;
  out.miss_recoveries += rep.miss_recoveries;
  out.fast_lane_ops += rep.fast_lane_ops;
  out.history_bytes += rep.history.size();
  out.subblocks_applied +=
      rep.subblocks_per_slot * static_cast<double>(rep.slots);
  out.dup_refs_dropped += rep.dup_refs_dropped;
  if (rep.commits_per_ktime > 0) {
    out.sim_span_ticks +=
        1000.0 * static_cast<double>(rep.committed) / rep.commits_per_ktime;
  }
  out.latency_p50_sum += static_cast<double>(rep.latency.p50);
  out.latency_p99_sum += static_cast<double>(rep.latency.p99);
  out.latency_samples += rep.latency.count;
  out.digest = mix_digest(out.digest, rep.history_digest);
}

void Workload::run_replay(std::size_t i, RoundCounts& out, Tracer& tracer) {
  Tracer::Scope span(tracer, "replay.instance");
  ReplayEngine<Erc20LedgerSpec> engine(replay_initial_,
                                       ExecOptions{.threads = 1});
  std::string history;
  for (const Blk& b : replay_inputs_[i]) {
    history += engine.apply(b);
    history += '\n';
  }
  const std::uint64_t digest = digest_history(history);
  const std::string who = name_ + " instance " + std::to_string(i);
  if (ok_ && digest != reference_.at(i)) {
    failure_ = who + ": history digest differs from the set-up run";
    ok_ = false;
  }
  if (ok_ && !(engine.ledger().snapshot() == replay_final_.at(i))) {
    failure_ = who + ": final state differs from the sequential fold";
    ok_ = false;
  }
  out.submitted += engine.ops_applied();
  out.committed += engine.ops_applied();
  out.replicas = 1;
  out.history_bytes += history.size();
  out.digest = mix_digest(out.digest, digest);
}

bool Workload::check(std::size_t i, const ScenarioReport& rep) {
  const std::string who = name_ + " instance " + std::to_string(i);
  if (!rep.ok()) {
    failure_ = who + ": " + rep.summary();
    return false;
  }
  if (rep.history_digest != reference_.at(i)) {
    failure_ = who + ": history digest differs from the set-up run";
    return false;
  }
  if (rep.committed != rep.submitted) {
    failure_ = who + ": committed " + std::to_string(rep.committed) +
               " of " + std::to_string(rep.submitted) + " submitted ops";
    return false;
  }
  return true;
}

ExecInput Workload::exec_input(const RoundCounts& c) const {
  if (!is_cluster()) {
    return ExecInput{replay_initial_, replay_inputs_.front()};
  }
  const double per_slot =
      static_cast<double>(c.committed) /
      static_cast<double>(std::max<std::uint64_t>(c.slots, 1));
  const auto ops = static_cast<std::size_t>(
      std::clamp(std::lround(per_slot), 1l, 256l));
  return ExecInput{storm_initial(accounts_),
                   storm_blocks(configs_.front().seed, accounts_, ops,
                                std::max<std::size_t>(16384 / ops, 64))};
}

std::vector<Blk> storm_blocks(std::uint64_t seed, std::size_t accounts,
                              std::size_t ops_per_block, std::size_t count) {
  Rng rng(seed * 977 + 13);
  std::vector<Blk> blocks(count);
  for (Blk& b : blocks) {
    b.ops.reserve(ops_per_block);
    for (std::size_t k = 0; k < ops_per_block; ++k) {
      const auto caller = static_cast<ProcessId>(rng.below(accounts));
      const auto dst = static_cast<AccountId>(rng.below(accounts));
      const auto roll = rng.below(40);
      Erc20Op op;
      if (roll == 0) {
        op = Erc20Op::total_supply();
      } else if (roll < 4) {
        op = Erc20Op::approve(static_cast<ProcessId>(dst), 2);
      } else if (roll < 8) {
        op = Erc20Op::transfer_from(
            static_cast<AccountId>(rng.below(accounts)), dst, 1);
      } else {
        op = Erc20Op::transfer(dst, 1 + rng.below(3));
      }
      b.ops.push_back({caller, op});
    }
  }
  return blocks;
}

Erc20State storm_initial(std::size_t accounts) {
  return Erc20State(std::vector<Amount>(accounts, 100),
                    std::vector<std::vector<Amount>>(
                        accounts, std::vector<Amount>(accounts, 2)));
}

}  // namespace perfbench
