#include "probes.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "atbcast/total_order.h"
#include "bcast/erb.h"
#include "exec/conflict_planner.h"
#include "exec/parallel_executor.h"
#include "exec/replay_engine.h"
#include "net/block_replica.h"
#include "net/hybrid_replica.h"
#include "net/multi_proposer.h"

namespace perfbench {

using namespace tokensync;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

namespace {

constexpr int kTrials = 5;

template <typename Fn>
double median_of_trials(int trials, Fn&& trial) {
  std::vector<double> v;
  for (int t = 0; t < trials; ++t) v.push_back(trial());
  return median(v);
}

// SimNet<Msg>::send plus run with no-op handlers, in bursts of 64 sends
// so the event heap stays about as shallow as in a protocol run.
template <typename Msg>
double simnet_ns_per_msg(std::size_t n, const NetConfig& cfg, Tracer& tracer) {
  Tracer::Scope span(tracer, "probe.simnet");
  constexpr std::size_t kMsgs = 1u << 17;
  constexpr std::size_t kBurst = 64;
  return median_of_trials(kTrials, [&] {
    SimNet<Msg> net(n, cfg);
    for (ProcessId p = 0; p < n; ++p) {
      net.set_handler(p, [](ProcessId, const Msg&) {});
    }
    const Msg sample{};
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < kMsgs; i += kBurst) {
      for (std::size_t k = i; k < i + kBurst; ++k) {
        net.send(static_cast<ProcessId>(k % n),
                 static_cast<ProcessId>((k / n) % n), sample);
      }
      net.run();
    }
    const double ns = static_cast<double>(now_ns() - t0);
    return ns / static_cast<double>(net.stats().sent);
  });
}

double runtime_simnet_ns_per_msg(tokensync::Workload w, std::size_t n,
                                 const NetConfig& cfg, Tracer& tracer) {
  using S = Erc20LedgerSpec;
  switch (w) {
    case tokensync::Workload::kErc20BlockStorm:
      return simnet_ns_per_msg<BlockReplicaNode<S>::Net::MsgType>(n, cfg,
                                                                  tracer);
    case tokensync::Workload::kErc20MultiproposerStorm:
      return simnet_ns_per_msg<MultiProposerNode<S>::Net::MsgType>(n, cfg,
                                                                   tracer);
    case tokensync::Workload::kMixedSyncTiers:
      return simnet_ns_per_msg<HybridReplicaNode<S>::Net::MsgType>(n, cfg,
                                                                   tracer);
    default:
      throw std::invalid_argument(std::string("no runtime net for ") +
                                  to_string(w));
  }
}

// A standalone TotalOrderBcast cluster: every node broadcasts kPerNode
// 4-op blocks on a fixed cadence, then the cluster drains to convergence.
// Returns ns per decided slot with the cluster's SimNet share removed.
// How often proposers duel for a slot depends on the loss pattern, so
// each trial runs on its own net seed.
double consensus_ns_per_slot(std::size_t n, const NetConfig& cfg,
                             Tracer& tracer) {
  using Tob = TotalOrderBcast<Blk>;
  using Msg = Tob::Net::MsgType;
  constexpr std::size_t kPerNode = 128;
  const double net_ns = simnet_ns_per_msg<Msg>(n, cfg, tracer);
  const std::vector<Blk> payloads = storm_blocks(cfg.seed, 16, 4, kPerNode);
  Tracer::Scope span(tracer, "probe.consensus");
  std::uint64_t trial = 0;
  return median_of_trials(kTrials, [&] {
    NetConfig trial_cfg = cfg;
    trial_cfg.seed += trial++;
    const std::uint64_t t0 = now_ns();
    Tob::Net net(n, trial_cfg);
    std::vector<std::unique_ptr<Tob>> nodes;
    for (ProcessId p = 0; p < n; ++p) {
      nodes.push_back(std::make_unique<Tob>(
          net, p, [](std::uint64_t, ProcessId, std::uint64_t, const Blk&) {}));
    }
    for (ProcessId p = 0; p < n; ++p) {
      for (std::size_t k = 0; k < kPerNode; ++k) {
        Tob* node = nodes[p].get();
        net.call_at(p, 10 + 20 * k + 5 * p,
                    [node, &b = payloads[k]] { node->broadcast(b); });
      }
    }
    drain_to_convergence(net, [&nodes] {
      for (auto& node : nodes) node->sync();
    });
    const double ns = static_cast<double>(now_ns() - t0) -
                      net_ns * static_cast<double>(net.stats().sent);
    for (const auto& node : nodes) {
      if (!node->all_settled() ||
          node->delivered_count() != nodes.front()->delivered_count()) {
        throw std::runtime_error("consensus probe did not converge");
      }
    }
    return ns / static_cast<double>(nodes.front()->delivered_count());
  });
}

// A standalone ErbNode cluster carrying the hybrid runtime's fast-lane
// payload: every node broadcasts kPerNode one-op batches on a fixed
// cadence.  Returns ns per broadcast with the SimNet share removed; each
// trial runs on its own net seed.
double erb_ns_per_bcast(std::size_t n, const NetConfig& cfg,
                        Tracer& tracer) {
  using Batch = HybridReplicaNode<Erc20LedgerSpec>::FastBatch;
  using Erb = ErbNode<Batch>;
  constexpr std::size_t kPerNode = 128;
  const double net_ns = simnet_ns_per_msg<ErbMsg<Batch>>(n, cfg, tracer);
  Tracer::Scope span(tracer, "probe.erb");
  std::uint64_t trial = 0;
  return median_of_trials(kTrials, [&] {
    NetConfig trial_cfg = cfg;
    trial_cfg.seed += trial++;
    const std::uint64_t t0 = now_ns();
    Erb::Net net(n, trial_cfg);
    std::vector<std::unique_ptr<Erb>> nodes;
    for (ProcessId p = 0; p < n; ++p) {
      nodes.push_back(std::make_unique<Erb>(
          net, p, [](ProcessId, std::uint64_t, const Batch&) {}));
    }
    for (ProcessId p = 0; p < n; ++p) {
      for (std::size_t k = 0; k < kPerNode; ++k) {
        Erb* node = nodes[p].get();
        Batch b{p, {Erc20Op::transfer(static_cast<AccountId>((p + k) % n), 1)}};
        net.call_at(p, 4 + 2 * k + p,
                    [node, b = std::move(b)] { node->broadcast(b); });
      }
    }
    net.run();
    const double ns = static_cast<double>(now_ns() - t0) -
                      net_ns * static_cast<double>(net.stats().sent);
    const std::uint64_t want = n * kPerNode;
    for (const auto& node : nodes) {
      if (node->delivered_count() != want) {
        throw std::runtime_error("erb probe did not deliver every broadcast");
      }
    }
    return ns / static_cast<double>(want);
  });
}

std::size_t total_ops(const std::vector<Blk>& blocks) {
  std::size_t ops = 0;
  for (const Blk& b : blocks) ops += b.size();
  return ops;
}

}  // namespace

UnitCosts measure_unit_costs(const Workload& wl, const RoundCounts& round,
                             Tracer& tracer) {
  UnitCosts u;
  Tracer::Scope span(tracer, "probes");
  if (wl.is_cluster()) {
    const ScenarioConfig& c = wl.config();
    const NetConfig net = make_net_config(c.fault, c.seed);
    u.simnet_ns_per_msg =
        runtime_simnet_ns_per_msg(c.workload, c.num_replicas, net, tracer);
    u.consensus_ns_per_slot =
        consensus_ns_per_slot(c.num_replicas, net, tracer);
    if (round.fast_lane_ops > 0) {
      u.erb_ns_per_bcast = erb_ns_per_bcast(c.num_replicas, net, tracer);
    }
  }

  const ExecInput exec = wl.exec_input(round);
  const double ops = static_cast<double>(total_ops(exec.blocks));
  {
    Tracer::Scope s(tracer, "probe.exec.plan");
    const ConcurrentLedger<Erc20LedgerSpec> ledger(exec.initial);
    u.plan_ns_per_op = median_of_trials(kTrials, [&] {
      std::size_t waves = 0;
      const std::uint64_t t0 = now_ns();
      for (const Blk& b : exec.blocks) {
        waves +=
            ConflictPlanner<Erc20LedgerSpec>::plan(ledger, b.ops).num_waves;
      }
      const double ns = static_cast<double>(now_ns() - t0);
      if (waves == 0) throw std::runtime_error("plan probe planned nothing");
      return ns / ops;
    });
  }
  {
    Tracer::Scope s(tracer, "probe.exec.execute");
    u.execute_ns_per_op = median_of_trials(kTrials, [&] {
      ConcurrentLedger<Erc20LedgerSpec> ledger(exec.initial);
      ParallelExecutor<Erc20LedgerSpec> ex(ledger, ExecOptions{.threads = 1});
      const std::uint64_t t0 = now_ns();
      for (const Blk& b : exec.blocks) ex.execute(b.ops);
      return static_cast<double>(now_ns() - t0) / ops;
    });
  }
  std::string history;
  {
    Tracer::Scope s(tracer, "probe.exec.apply");
    u.apply_ns_per_op = median_of_trials(kTrials, [&] {
      ReplayEngine<Erc20LedgerSpec> engine(exec.initial,
                                           ExecOptions{.threads = 1});
      std::string h;
      const std::uint64_t t0 = now_ns();
      for (const Blk& b : exec.blocks) {
        h += engine.apply(b);
        h += '\n';
      }
      const double ns = static_cast<double>(now_ns() - t0);
      u.waves_per_block = static_cast<double>(engine.waves_total()) /
                          static_cast<double>(engine.blocks_applied());
      u.escalated_share = static_cast<double>(engine.escalated_total()) /
                          static_cast<double>(engine.ops_applied());
      history = std::move(h);
      return ns / ops;
    });
  }
  {
    Tracer::Scope s(tracer, "probe.sched.digest");
    const std::uint64_t want = digest_history(history);
    u.digest_ns_per_byte = median_of_trials(kTrials, [&] {
      const std::uint64_t t0 = now_ns();
      const std::uint64_t d = digest_history(history);
      const double ns = static_cast<double>(now_ns() - t0);
      if (d != want) throw std::runtime_error("digest probe is not stable");
      return ns / static_cast<double>(history.size());
    });
  }
  return u;
}

}  // namespace perfbench
