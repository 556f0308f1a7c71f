// Dedicated Bracha BRB edge-case suite (ISSUE 9 satellite) — the
// Byzantine fast lane's dissemination layer probed at its exact
// thresholds (n = 4, f = 1: echo quorum ⌈(n+f+1)/2⌉ = 3, READY
// amplification at f+1 = 2, completion at 2f+1 = 3):
//
//   * echo-quorum threshold: two echoes move nothing, the third turns
//     every node READY and the slot delivers everywhere — without the
//     origin's SEND ever existing;
//   * READY amplification: f+1 READYs pull a node into the wave (it
//     echoes AND readies), and its own READY completes its quorum — the
//     ready-without-send delivery path;
//   * no delivery below the quorums: f READYs alone are inert;
//   * per-origin FIFO under loss + duplication, duplicate-delivery
//     suppression, retransmission quiescence (incl. crashed-peer
//     write-off) and the frontier accessor — the ErbNode contract the
//     hybrid runtime's lane swap relies on (tests/erb_test.cc);
//   * equivocation: conflicting origin-signed payloads yield the SAME
//     canonical ConflictProof at every correct node.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "bcast/bracha.h"

namespace tokensync {
namespace {

struct Note {
  std::uint64_t v = 0;
  friend bool operator==(const Note&, const Note&) = default;
  friend auto operator<=>(const Note&, const Note&) = default;
};

struct Cluster {
  using Net = SimNet<BrachaMsg<Note>>;
  using M = BrachaMsg<Note>;
  Net net;
  std::vector<std::unique_ptr<BrachaNode<Note>>> nodes;
  // delivered[p] = (origin, seq, value) in delivery order at node p.
  std::vector<std::vector<std::tuple<ProcessId, std::uint64_t,
                                     std::uint64_t>>> delivered;
  std::vector<std::vector<ConflictProof<Note>>> conflicts;

  Cluster(std::size_t n, std::size_t f, NetConfig cfg)
      : net(n, cfg), delivered(n), conflicts(n) {
    for (ProcessId p = 0; p < n; ++p) {
      nodes.push_back(std::make_unique<BrachaNode<Note>>(
          net, p, f,
          [this, p](ProcessId origin, std::uint64_t seq, const Note& m) {
            delivered[p].emplace_back(origin, seq, m.v);
          },
          [this, p](const ConflictProof<Note>& proof) {
            conflicts[p].push_back(proof);
          }));
    }
  }
};

TEST(BrachaEdge, EchoQuorumIsThreeAtNFourFOne) {
  // Hand-inject ECHOs for a slot whose SEND never existed.  Two echoes
  // (below ⌈(n+f+1)/2⌉ = 3) must move nothing; the third flips every
  // node to READY, the READY wave completes, and the slot delivers
  // everywhere — the echo-quorum threshold, pinned exactly.
  Cluster c(4, 1, NetConfig{.seed = 3});
  using M = Cluster::M;
  for (ProcessId to = 0; to < 4; ++to) {
    c.net.send(1, to, M{.type = M::Type::kEcho, .origin = 0, .seq = 0,
                        .payload = Note{5}});
    c.net.send(2, to, M{.type = M::Type::kEcho, .origin = 0, .seq = 0,
                        .payload = Note{5}});
  }
  c.net.run(500'000);
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_TRUE(c.delivered[p].empty()) << "node " << p;
  }
  for (ProcessId to = 0; to < 4; ++to) {
    c.net.send(3, to, M{.type = M::Type::kEcho, .origin = 0, .seq = 0,
                        .payload = Note{5}});
  }
  c.net.run(500'000);
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_EQ(c.delivered[p].size(), 1u) << "node " << p;
    EXPECT_EQ(c.delivered[p][0],
              (std::tuple<ProcessId, std::uint64_t, std::uint64_t>{0, 0, 5}));
  }
}

TEST(BrachaEdge, ReadyAmplificationAtFPlusOne) {
  // One READY (= f) is inert; the second (f+1) pulls node 1 into the
  // wave — it echoes AND readies, and with its own READY arriving back
  // through the network its quorum reaches 2f+1: node 1 delivers a slot
  // it never saw a SEND or an echo quorum for.  Peers hold only node
  // 1's single READY, below every threshold — no delivery there.
  Cluster c(4, 1, NetConfig{.seed = 7});
  using M = Cluster::M;
  c.net.send(2, 1, M{.type = M::Type::kReady, .origin = 0, .seq = 0,
                     .payload = Note{9}});
  c.net.run(500'000);
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_TRUE(c.delivered[p].empty()) << "node " << p;
  }
  c.net.send(3, 1, M{.type = M::Type::kReady, .origin = 0, .seq = 0,
                     .payload = Note{9}});
  c.net.run(500'000);
  ASSERT_EQ(c.delivered[1].size(), 1u);
  EXPECT_EQ(std::get<2>(c.delivered[1][0]), 9u);
  for (ProcessId p : {0u, 2u, 3u}) {
    EXPECT_TRUE(c.delivered[p].empty()) << "node " << p;
  }
}

TEST(BrachaEdge, FifoPerSenderUnderLossAndDuplication) {
  // The lossy_dup stress: 10% loss + 20% duplication, three concurrent
  // senders interleaving 8 broadcasts each — contiguous per-origin
  // sequences, no reorder, no double-delivery, at every node.
  Cluster c(4, 1, NetConfig{.seed = 21, .min_delay = 1, .max_delay = 14,
                            .drop_num = 10, .drop_den = 100,
                            .dup_num = 20, .dup_den = 100});
  for (std::uint64_t i = 0; i < 8; ++i) {
    for (ProcessId o = 0; o < 3; ++o) {
      c.nodes[o]->broadcast(Note{100 * o + i});
    }
  }
  c.net.run(8'000'000);
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_EQ(c.delivered[p].size(), 24u) << "node " << p;
    std::map<ProcessId, std::uint64_t> next;
    for (const auto& [origin, seq, v] : c.delivered[p]) {
      EXPECT_EQ(seq, next[origin]++) << "node " << p << " origin " << origin;
      EXPECT_EQ(v, 100 * origin + seq);
    }
  }
}

TEST(BrachaEdge, DuplicateDeliverySuppression) {
  // 50% duplication doubles most phase messages on the wire; every
  // (origin, seq) must still deliver exactly once everywhere.
  Cluster c(4, 1, NetConfig{.seed = 9, .min_delay = 1, .max_delay = 6,
                            .dup_num = 50, .dup_den = 100});
  c.nodes[1]->broadcast(Note{41});
  c.nodes[1]->broadcast(Note{42});
  c.nodes[2]->broadcast(Note{43});
  c.net.run(4'000'000);
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(c.delivered[p].size(), 3u) << "node " << p;
    EXPECT_EQ(c.nodes[p]->delivered_count(), 3u);
  }
  EXPECT_GT(c.net.stats().duplicated, 0u);
}

TEST(BrachaEdge, RetransmissionQuiescesAfterDelivery) {
  // After every phase message is acked by every peer the timers disarm
  // and the network drains — a finite run, well under the event budget.
  Cluster c(4, 1, NetConfig{.seed = 5, .min_delay = 1, .max_delay = 8});
  for (std::uint64_t i = 0; i < 5; ++i) c.nodes[i % 4]->broadcast(Note{i});
  const std::size_t budget = 2'000'000;
  const std::size_t processed = c.net.run(budget);
  EXPECT_LT(processed, budget);
  EXPECT_TRUE(c.net.idle());
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(c.delivered[p].size(), 5u) << "node " << p;
    EXPECT_EQ(c.nodes[p]->unacked(), 0u) << "node " << p;
    EXPECT_EQ(c.nodes[p]->pending_ack_entries(), 0u) << "node " << p;
  }
  // A quiescent cluster accepts new broadcasts (timers re-arm cleanly).
  c.nodes[0]->broadcast(Note{99});
  c.net.run(budget);
  EXPECT_TRUE(c.net.idle());
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(c.delivered[p].size(), 6u) << "node " << p;
  }
}

TEST(BrachaEdge, QuiescesUnderHeavyLossToo) {
  Cluster c(4, 1, NetConfig{.seed = 17, .min_delay = 1, .max_delay = 10,
                            .drop_num = 30, .drop_den = 100});
  for (std::uint64_t i = 0; i < 4; ++i) c.nodes[i % 4]->broadcast(Note{i});
  const std::size_t budget = 8'000'000;
  const std::size_t processed = c.net.run(budget);
  EXPECT_LT(processed, budget);
  EXPECT_TRUE(c.net.idle());
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(c.delivered[p].size(), 4u) << "node " << p;
    EXPECT_EQ(c.nodes[p]->unacked(), 0u);
    EXPECT_EQ(c.nodes[p]->pending_ack_entries(), 0u);
  }
}

TEST(BrachaEdge, CrashedReceiverIsWrittenOff) {
  // A dead peer never acks; the crash oracle must still let every
  // sender's timer disarm, and the three live nodes (= 2f+1) complete
  // the quorum among themselves.
  Cluster c(4, 1, NetConfig{.seed = 13, .min_delay = 1, .max_delay = 5});
  c.net.crash(3);
  c.nodes[0]->broadcast(Note{7});
  const std::size_t budget = 2'000'000;
  const std::size_t processed = c.net.run(budget);
  EXPECT_LT(processed, budget);
  EXPECT_TRUE(c.net.idle());
  for (ProcessId p = 0; p < 3; ++p) {
    ASSERT_EQ(c.delivered[p].size(), 1u) << "node " << p;
    EXPECT_EQ(c.nodes[p]->unacked(), 0u);
    EXPECT_EQ(c.nodes[p]->pending_ack_entries(), 0u);
  }
  EXPECT_TRUE(c.delivered[3].empty());
}

TEST(BrachaEdge, FrontierTracksPerOriginDelivery) {
  Cluster c(4, 1, NetConfig{.seed = 2});
  c.nodes[0]->broadcast(Note{1});
  c.nodes[0]->broadcast(Note{2});
  c.nodes[2]->broadcast(Note{3});
  c.net.run(2'000'000);
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(c.nodes[p]->frontier(0), 2u);
    EXPECT_EQ(c.nodes[p]->frontier(1), 0u);
    EXPECT_EQ(c.nodes[p]->frontier(2), 1u);
    EXPECT_EQ(c.nodes[p]->delivered_count(), 3u);
  }
}

TEST(BrachaEdge, EquivocationYieldsIdenticalCanonicalProof) {
  // A Byzantine origin hands node 2 a different payload.  The echoes
  // cross-pollinate the evidence, every correct node assembles a proof,
  // and canonicalization (payload_a < payload_b) makes all the records
  // byte-identical — the property the respend defense's cross-replica
  // proof-agreement audit leans on.
  Cluster c(4, 1, NetConfig{.seed = 11});
  using M = Cluster::M;
  c.net.send(0, 1, M{.type = M::Type::kSend, .origin = 0, .seq = 0,
                     .payload = Note{2}});
  c.net.send(0, 2, M{.type = M::Type::kSend, .origin = 0, .seq = 0,
                     .payload = Note{1}});
  c.net.send(0, 3, M{.type = M::Type::kSend, .origin = 0, .seq = 0,
                     .payload = Note{2}});
  c.net.run(1'000'000);
  for (ProcessId p = 1; p < 4; ++p) {
    ASSERT_EQ(c.conflicts[p].size(), 1u) << "node " << p;
    EXPECT_EQ(c.conflicts[p][0], c.conflicts[1][0]) << "node " << p;
    EXPECT_EQ(c.conflicts[p][0].payload_a, Note{1});
    EXPECT_EQ(c.conflicts[p][0].payload_b, Note{2});
    EXPECT_EQ(c.conflicts[p][0].origin, 0u);
  }
}

}  // namespace
}  // namespace tokensync
