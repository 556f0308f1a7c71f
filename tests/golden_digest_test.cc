// Golden behaviour corpus, first slice: recorded history digests and
// wire counts for the benchmark's cluster configs plus six feature
// paths (Bracha with an equivocator, compact and full relay through a
// crash and rejoin, the two tiers across a partition, sharded groups).
// The partition, rejoin and four-group rows put fault schedules and
// client callbacks far beyond SimNet's timing-wheel horizon and across
// stretches where the wheel runs empty.
//
// Every other determinism test compares a run against another run of the
// same code (twice, across thread counts, across relay modes), so a
// change that moves every schedule the same way passes them all.  These
// rows are recorded values, so they pin the schedule itself: the
// committed history, the number of sends and the bytes on the wire.  A
// change to the simulator or the broadcast layers that means to keep
// the schedule must leave every row as it is.
//
// A row may be re-recorded only by a change that means to alter the
// schedule, with a CHANGES.md entry naming the rows that moved and why.
// On a mismatch the failure prints the row as it should now read.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <iterator>

#include "sched/scenario.h"

namespace tokensync {
namespace {

struct GoldenRow {
  const char* name;
  std::uint64_t seed;
  std::uint64_t digest;
  std::uint64_t sent;
  std::uint64_t bytes_sent;
};

// The benchmark's three cluster workloads (perfbench/src/workloads.cc),
// with the scenario seed set directly.
ScenarioConfig block_lossy() {
  ScenarioConfig c;
  c.workload = Workload::kErc20BlockStorm;
  c.fault = FaultProfile::kLossyDup;
  c.num_replicas = 4;
  c.relay_mode = RelayMode::kCompact;
  c.intensity = 100;
  return c;
}

ScenarioConfig leaderless_lossy() {
  ScenarioConfig c;
  c.workload = Workload::kErc20MultiproposerStorm;
  c.fault = FaultProfile::kLossyDup;
  c.num_replicas = 4;
  c.num_proposers = 4;
  c.subblock_max_ops = 4;
  c.intensity = 100;
  return c;
}

ScenarioConfig tiers_n7() {
  ScenarioConfig c;
  c.workload = Workload::kMixedSyncTiers;
  c.fault = FaultProfile::kLossyDup;
  c.num_replicas = 7;
  c.intensity = 50;
  return c;
}

// The hybrid runtime on the Bracha lane with one forking origin.
ScenarioConfig bracha_equivocator() {
  ScenarioConfig c;
  c.workload = Workload::kErc20RespendStorm;
  c.fault = FaultProfile::kLossyDup;
  c.num_replicas = 4;
  c.intensity = 5;
  c.fast_lane = FastLane::kBracha;
  c.num_equivocators = 1;
  return c;
}

// Compact relay with snapshots while one replica crashes and rejoins.
ScenarioConfig compact_crash_rejoin() {
  ScenarioConfig c;
  c.workload = Workload::kErc20BlockStorm;
  c.fault = FaultProfile::kCrashRejoin;
  c.num_replicas = 4;
  c.intensity = 4;
  c.relay_mode = RelayMode::kCompact;
  c.snapshot_interval = 2;
  return c;
}

// Full relay with snapshots and log pruning while one replica crashes
// and rejoins from a fetched snapshot.
ScenarioConfig full_crash_rejoin_pruned() {
  ScenarioConfig c;
  c.workload = Workload::kErc20BlockStorm;
  c.fault = FaultProfile::kCrashRejoin;
  c.num_replicas = 4;
  c.intensity = 4;
  c.snapshot_interval = 2;
  c.prune = true;
  return c;
}

// The paper's two tiers through a majority/minority split healed at
// t=700.
ScenarioConfig tiers_partition_heal() {
  ScenarioConfig c;
  c.workload = Workload::kMixedSyncTiers;
  c.fault = FaultProfile::kPartitionHeal;
  c.num_replicas = 4;
  c.intensity = 6;
  return c;
}

// Two replica groups on one SimNet, with cross-shard 2PC.
ScenarioConfig zipfian_two_groups() {
  ScenarioConfig c;
  c.workload = Workload::kErc20ZipfianShards;
  c.fault = FaultProfile::kLossyDup;
  c.num_replicas = 4;
  c.intensity = 5;
  c.num_groups = 2;
  return c;
}

// Four replica groups on one SimNet over lossy, duplicating links.
ScenarioConfig zipfian_four_groups() {
  ScenarioConfig c;
  c.workload = Workload::kErc20ZipfianShards;
  c.fault = FaultProfile::kLossyDup;
  c.num_replicas = 4;
  c.intensity = 5;
  c.num_groups = 4;
  return c;
}

void check_rows(ScenarioConfig (*make)(), const GoldenRow* rows,
                std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const GoldenRow& row = rows[i];
    ScenarioConfig cfg = make();
    cfg.seed = row.seed;
    const ScenarioReport rep = run_scenario(cfg);
    EXPECT_TRUE(rep.ok()) << row.name << " seed " << row.seed << ": "
                          << rep.summary();
    char now[200];
    std::snprintf(now, sizeof now,
                  "{\"%s\", %" PRIu64 ", 0x%016" PRIx64 "ull, %" PRIu64
                  ", %" PRIu64 "},",
                  row.name, row.seed, rep.history_digest, rep.net.sent,
                  rep.net.bytes_sent);
    EXPECT_EQ(rep.history_digest, row.digest) << "now reads: " << now;
    EXPECT_EQ(rep.net.sent, row.sent) << "now reads: " << now;
    EXPECT_EQ(rep.net.bytes_sent, row.bytes_sent) << "now reads: " << now;
  }
}

TEST(GoldenDigest, BlockLossy) {
  static constexpr GoldenRow kRows[] = {
      {"block_lossy", 1, 0xce8d092d56b4e911ull, 15326, 1791852},
      {"block_lossy", 2, 0x6a7cce511a4da363ull, 14882, 1750720},
      {"block_lossy", 3, 0x645b0b34392699a3ull, 14901, 1775748},
  };
  check_rows(block_lossy, kRows, std::size(kRows));
}

TEST(GoldenDigest, LeaderlessLossy) {
  static constexpr GoldenRow kRows[] = {
      {"leaderless_lossy", 1, 0x2d8fc05b36a9eb07ull, 4983, 1507972},
      {"leaderless_lossy", 2, 0xf762a46a1d4f4102ull, 4815, 1483344},
      {"leaderless_lossy", 3, 0xc997322b6dfcc6bfull, 5060, 1681640},
  };
  check_rows(leaderless_lossy, kRows, std::size(kRows));
}

TEST(GoldenDigest, TiersN7) {
  static constexpr GoldenRow kRows[] = {
      {"tiers_n7", 1, 0xa98fca633ac70ce2ull, 110121, 13835556},
      {"tiers_n7", 2, 0xc09550723190e931ull, 110212, 13850880},
      {"tiers_n7", 3, 0x1d3618311a5a3a7cull, 109743, 13769856},
  };
  check_rows(tiers_n7, kRows, std::size(kRows));
}

TEST(GoldenDigest, BrachaOneEquivocator) {
  static constexpr GoldenRow kRows[] = {
      {"bracha_equivocator", 7, 0x19a883fefd4e7b6dull, 4890, 843704},
  };
  check_rows(bracha_equivocator, kRows, std::size(kRows));
}

TEST(GoldenDigest, CompactRelayCrashRejoin) {
  static constexpr GoldenRow kRows[] = {
      {"compact_crash_rejoin", 7, 0x5b7be905668f6c69ull, 1062, 108476},
  };
  check_rows(compact_crash_rejoin, kRows, std::size(kRows));
}

TEST(GoldenDigest, ZipfianTwoGroups) {
  static constexpr GoldenRow kRows[] = {
      {"zipfian_two_groups", 7, 0xfec756d5e16ca35dull, 3235, 571960},
  };
  check_rows(zipfian_two_groups, kRows, std::size(kRows));
}

TEST(GoldenDigest, FullRelayCrashRejoinPruned) {
  static constexpr GoldenRow kRows[] = {
      {"full_crash_rejoin_pruned", 7, 0x3c69b65c93304c69ull, 1054, 163732},
  };
  check_rows(full_crash_rejoin_pruned, kRows, std::size(kRows));
}

TEST(GoldenDigest, TiersPartitionHeal) {
  static constexpr GoldenRow kRows[] = {
      {"tiers_partition_heal", 7, 0x04d3a4187435cc84ull, 4275, 660536},
  };
  check_rows(tiers_partition_heal, kRows, std::size(kRows));
}

TEST(GoldenDigest, ZipfianFourGroups) {
  static constexpr GoldenRow kRows[] = {
      {"zipfian_four_groups", 7, 0x3c8b2cc739007a73ull, 5399, 740136},
  };
  check_rows(zipfian_four_groups, kRows, std::size(kRows));
}

}  // namespace
}  // namespace tokensync
