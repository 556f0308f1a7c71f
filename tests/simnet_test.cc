// Tests for the discrete-event network simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <queue>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "net/simnet.h"

namespace tokensync {

// An auxiliary-class wire type (like relay recovery traffic): its events
// take the odd tie-break sequence and the second Rng stream.
struct AuxPing {
  int id = 0;
};
template <>
struct is_aux_wire<AuxPing> : std::true_type {};

namespace {

struct Ping {
  int id = 0;
};

TEST(SimNet, DeliversInTimeOrder) {
  NetConfig cfg;
  cfg.seed = 1;
  cfg.min_delay = 1;
  cfg.max_delay = 5;
  SimNet<Ping> net(2, cfg);
  std::vector<int> got;
  net.set_handler(1, [&](ProcessId, const Ping& p) { got.push_back(p.id); });
  for (int i = 0; i < 50; ++i) net.send(0, 1, Ping{i});
  net.run();
  EXPECT_EQ(got.size(), 50u);
  // Delivery respects simulated time monotonically (checked implicitly by
  // run()); with random delays order may be permuted.
  std::vector<int> sorted = got;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(SimNet, DropsApproximatelyAtConfiguredRate) {
  NetConfig cfg;
  cfg.seed = 7;
  cfg.drop_num = 30;  // 30%
  SimNet<Ping> net(2, cfg);
  int delivered = 0;
  net.set_handler(1, [&](ProcessId, const Ping&) { ++delivered; });
  for (int i = 0; i < 2000; ++i) net.send(0, 1, Ping{i});
  net.run();
  EXPECT_GT(delivered, 1200);
  EXPECT_LT(delivered, 1600);
  EXPECT_EQ(net.stats().dropped + static_cast<std::uint64_t>(delivered),
            2000u);
}

TEST(SimNet, CrashedNodesNeitherSendNorReceive) {
  SimNet<Ping> net(3, NetConfig{});
  int got1 = 0, got2 = 0;
  net.set_handler(1, [&](ProcessId, const Ping&) { ++got1; });
  net.set_handler(2, [&](ProcessId, const Ping&) { ++got2; });
  net.crash(1);
  net.send(0, 1, Ping{1});  // to crashed: dropped at delivery
  net.send(1, 2, Ping{2});  // from crashed: never sent
  net.run();
  EXPECT_EQ(got1, 0);
  EXPECT_EQ(got2, 0);
}

TEST(SimNet, PartitionFilterBlocksLinks) {
  SimNet<Ping> net(2, NetConfig{});
  int got = 0;
  net.set_handler(1, [&](ProcessId, const Ping&) { ++got; });
  net.set_link_filter([](ProcessId from, ProcessId to, std::uint64_t) {
    return !(from == 0 && to == 1);  // one-way partition
  });
  net.send(0, 1, Ping{1});
  net.run();
  EXPECT_EQ(got, 0);
}

TEST(SimNet, TimersFireAtRequestedDelay) {
  SimNet<Ping> net(1, NetConfig{});
  std::vector<std::uint64_t> fired;
  net.set_timer_handler(0, [&](std::uint64_t id) {
    fired.push_back(id);
    EXPECT_EQ(net.now(), 10 * (id + 1));
  });
  net.set_timer(0, 10, 0);
  net.set_timer(0, 20, 1);
  net.run();
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{0, 1}));
}

TEST(SimNet, DeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    NetConfig cfg;
    cfg.seed = seed;
    cfg.min_delay = 1;
    cfg.max_delay = 20;
    SimNet<Ping> net(2, cfg);
    std::vector<int> got;
    net.set_handler(1,
                    [&](ProcessId, const Ping& p) { got.push_back(p.id); });
    for (int i = 0; i < 100; ++i) net.send(0, 1, Ping{i});
    net.run();
    return got;
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));  // delays actually vary
}

// --- Event order: the (time, tie) key ------------------------------------

// A fixed delay puts every event at the same time, so only the tie-break
// orders them.  Primary events take ties 0, 2, 4, ... and aux events
// 1, 3, 5, ... in their own push order: the k-th aux event lands between
// the k-th and (k+1)-th primary ones wherever it was pushed.
NetConfig fixed_delay(std::uint64_t d) {
  NetConfig cfg;
  cfg.min_delay = d;
  cfg.max_delay = d;
  return cfg;
}

using MixedMsg = std::variant<Ping, AuxPing>;

// What a test saw, in dispatch order: an event label and one number
// (an id, a simulated time or a payload size, per test).
using Trace = std::vector<std::pair<std::string, std::uint64_t>>;

TEST(SimNetOrder, EqualTimePrimaryAndAuxInterleaveByTieSequence) {
  SimNet<MixedMsg> net(2, fixed_delay(5));
  Trace got;
  net.set_handler(1, [&](ProcessId, const MixedMsg& m) {
    if (const auto* p = std::get_if<Ping>(&m)) {
      got.emplace_back("P", p->id);
    } else {
      got.emplace_back("A", std::get<AuxPing>(m).id);
    }
  });
  // Push order: A0 A1 A2 P0 P1 A3 P2 (ties 1 3 5 0 2 7 4).
  net.send(0, 1, AuxPing{0});
  net.send(0, 1, AuxPing{1});
  net.send(0, 1, AuxPing{2});
  net.send(0, 1, Ping{0});
  net.send(0, 1, Ping{1});
  net.send(0, 1, AuxPing{3});
  net.send(0, 1, Ping{2});
  net.run();
  EXPECT_EQ(got, (Trace{{"P", 0}, {"A", 0}, {"P", 1}, {"A", 1}, {"P", 2},
                        {"A", 2}, {"A", 3}}));
}

TEST(SimNetOrder, EveryEventKindSharesTheTieRule) {
  // Timers, callbacks and control events draw primary ties like
  // messages; set_timer_aux draws an aux tie.
  SimNet<MixedMsg> net(2, fixed_delay(5));
  Trace got;
  net.set_handler(1, [&](ProcessId, const MixedMsg& m) {
    got.emplace_back(std::holds_alternative<Ping>(m) ? "msg" : "aux-msg",
                     0);
  });
  net.set_timer_handler(1, [&](std::uint64_t id) {
    got.emplace_back("timer", id);
  });
  net.set_timer_aux(1, 5, 9);                               // tie 1
  net.send(0, 1, AuxPing{0});                               // tie 3
  net.schedule(5, [&] { got.emplace_back("control", 0); }); // tie 0
  net.call_at(1, 5, [&] { got.emplace_back("call", 0); });  // tie 2
  net.set_timer(1, 5, 4);                                   // tie 4
  net.send(0, 1, Ping{0});                                  // tie 6
  net.run();
  EXPECT_EQ(got, (Trace{{"control", 0}, {"timer", 9}, {"call", 0},
                        {"aux-msg", 0}, {"timer", 4}, {"msg", 0}}));
  EXPECT_EQ(net.now(), 5u);
}

TEST(SimNetOrder, HandlersPushDuringTheirOwnDispatch) {
  // Each handler, callback and control action schedules more work while
  // it runs; the payload it was handed must stay intact meanwhile, and
  // the new events order after everything already queued at their time.
  using Wire = std::variant<int, std::vector<int>>;
  SimNet<Wire> net(2, fixed_delay(1));
  Trace got;  // (event, simulated time or payload size)
  net.set_handler(1, [&](ProcessId, const Wire& m) {
    const auto& v = std::get<std::vector<int>>(m);
    const std::vector<int> before = v;
    // Enough pushes to grow the slab several times over.
    for (int k = 0; k < 200; ++k) net.send(1, 0, Wire{k});
    EXPECT_EQ(v, before);
    got.emplace_back("msg", v.size());
    if (v.size() < 3) {
      std::vector<int> next = v;
      next.push_back(static_cast<int>(v.size()));
      net.send(0, 1, Wire{std::move(next)});
    }
  });
  int replies = 0;
  net.set_handler(0, [&](ProcessId, const Wire&) { ++replies; });
  net.call_at(0, 1, [&] {
    got.emplace_back("call", net.now());
    net.call_at(0, 1, [&] { got.emplace_back("call", net.now()); });
    net.send(0, 1, Wire{std::vector<int>{0}});
  });
  net.schedule(1, [&] {
    got.emplace_back("control", net.now());
    net.schedule(0, [&] { got.emplace_back("control", net.now()); });
  });
  net.run();
  EXPECT_EQ(got, (Trace{{"call", 1}, {"control", 1}, {"control", 1},
                        {"call", 2}, {"msg", 1}, {"msg", 2}, {"msg", 3}}));
  EXPECT_EQ(replies, 3 * 200);
}

TEST(SimNetOrder, CallsAndTimersOfACrashedNodeAreDiscarded) {
  SimNet<Ping> net(2, NetConfig{});
  Trace got;  // (event, simulated time)
  std::vector<std::uint64_t> timer_ids;
  net.set_timer_handler(1, [&](std::uint64_t id) {
    timer_ids.push_back(id);
    got.emplace_back("timer", net.now());
  });
  net.call_at(1, 10, [&] { got.emplace_back("call", net.now()); });
  net.set_timer(1, 10, 1);
  net.call_at(1, 20, [&] { got.emplace_back("call", net.now()); });
  net.set_timer_aux(1, 20, 2);
  net.call_at(0, 10, [&] { got.emplace_back("peer", net.now()); });
  net.schedule(5, [&] { net.crash(1); });
  net.schedule(10, [&] { got.emplace_back("control", net.now()); });
  net.schedule(15, [&] { net.restart(1); });
  net.run();
  // The node was down at 10 (its events are dropped at fire time) and up
  // again by 20; its peer and the control events never noticed.  At 20
  // the aux timer (tie 1) precedes the call pushed third (tie 4).
  EXPECT_EQ(got, (Trace{{"peer", 10}, {"control", 10}, {"timer", 20},
                        {"call", 20}}));
  EXPECT_EQ(timer_ids, (std::vector<std::uint64_t>{2}));
}

TEST(SimNetOrder, SlabSlotsAreReusedAcrossAlternatives) {
  // 10k messages over both alternatives of a variant wire, sent in waves
  // so freed slots are refilled by the other alternative; every payload
  // must arrive exactly once and intact.
  using Wire = std::variant<int, std::vector<int>>;
  NetConfig cfg;
  cfg.seed = 3;
  cfg.min_delay = 1;
  cfg.max_delay = 40;
  SimNet<Wire> net(2, cfg);
  constexpr int kTotal = 10'000;
  constexpr int kWave = 250;
  std::vector<int> seen(kTotal, 0);
  int bad = 0;
  net.set_handler(1, [&](ProcessId, const Wire& m) {
    if (const int* i = std::get_if<int>(&m)) {
      if (*i % 2 != 0) ++bad;
      ++seen.at(static_cast<std::size_t>(*i));
      return;
    }
    const auto& v = std::get<std::vector<int>>(m);
    const int i = v.at(0);
    if (i % 2 != 1 || v.size() != static_cast<std::size_t>(1 + i % 7)) ++bad;
    for (std::size_t k = 0; k < v.size(); ++k) {
      if (v[k] != i + static_cast<int>(k)) ++bad;
    }
    ++seen.at(static_cast<std::size_t>(i));
  });
  for (int w = 0; w < kTotal / kWave; ++w) {
    net.call_at(0, 1 + 20 * static_cast<std::uint64_t>(w), [&net, w] {
      for (int i = w * kWave; i < (w + 1) * kWave; ++i) {
        if (i % 2 == 0) {
          net.send(0, 1, Wire{i});
        } else {
          std::vector<int> v(static_cast<std::size_t>(1 + i % 7));
          for (std::size_t k = 0; k < v.size(); ++k) {
            v[k] = i + static_cast<int>(k);
          }
          net.send(0, 1, Wire{std::move(v)});
        }
      }
    });
  }
  net.run();
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(net.stats().delivered, static_cast<std::uint64_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) ASSERT_EQ(seen[i], 1) << "payload " << i;
}

// --- The timing wheel against a reference heap --------------------------

// Drives a SimNet with a seeded random mix of every push API and checks
// each dispatched event against a plain (time, tie) heap fed the same
// pushes in the same order.  Message delays are pinned per send with
// set_link_delay(lo = hi), so the model knows every event's time; ties
// follow the documented rule (primary 0, 2, 4, ...; aux 1, 3, 5, ...).
// Delays span 0, 1-12, 40-80, 120-136 and 500-5000 ticks: the current
// bucket, the wheel, both sides of its 128-tick horizon and the far
// heap, with stretches where only far events remain and the wheel runs
// empty.
class WheelModel {
 public:
  static constexpr std::size_t kNodes = 4;
  static constexpr ProcessId kNet = kNoProcess;  // a control event's "node"

  explicit WheelModel(std::uint64_t seed)
      : net_(kNodes, NetConfig{}), rng_(seed) {
    for (ProcessId p = 0; p < kNodes; ++p) {
      net_.set_handler(p, [this, p](ProcessId, const MixedMsg& m) {
        const int id = std::holds_alternative<Ping>(m)
                           ? std::get<Ping>(m).id
                           : std::get<AuxPing>(m).id;
        observe(id, p);
      });
      net_.set_timer_handler(p, [this, p](std::uint64_t id) {
        observe(static_cast<int>(id), p);
      });
    }
  }

  /// Pushes one random event (or one fan-out of message events).
  void push_random() {
    if (budget_ == 0) return;
    --budget_;
    const int id = next_id_++;
    const ProcessId node = static_cast<ProcessId>(rng_.below(kNodes));
    switch (rng_.below(7)) {
      case 0: {  // send
        const ProcessId to = static_cast<ProcessId>(rng_.below(kNodes));
        const bool aux = rng_.chance(1, 3);
        expect_message(node, to, aux, id);
        net_.send(node, to, wire(aux, id));
        break;
      }
      case 1: {  // send_all
        const bool aux = rng_.chance(1, 3);
        for (ProcessId to = 0; to < kNodes; ++to) {
          expect_message(node, to, aux, id);
        }
        net_.send_all(node, wire(aux, id));
        break;
      }
      case 2: {  // send_to: a random subset in a random order
        std::vector<ProcessId> peers;
        for (ProcessId to = 0; to < kNodes; ++to) {
          if (rng_.chance(2, 3)) peers.push_back(to);
        }
        rng_.shuffle(peers);
        const bool aux = rng_.chance(1, 3);
        for (ProcessId to : peers) expect_message(node, to, aux, id);
        net_.send_to(node, peers, wire(aux, id));
        break;
      }
      case 3: {
        const std::uint64_t d = draw_delay();
        expect(d, false, id, node);
        net_.set_timer(node, d, static_cast<std::uint64_t>(id));
        break;
      }
      case 4: {
        const std::uint64_t d = draw_delay();
        expect(d, true, id, node);
        net_.set_timer_aux(node, d, static_cast<std::uint64_t>(id));
        break;
      }
      case 5: {
        const std::uint64_t d = draw_delay();
        expect(d, false, id, node);
        net_.call_at(node, d, [this, id, node] { observe(id, node); });
        break;
      }
      default: {
        const std::uint64_t d = draw_delay();
        expect(d, false, id, kNet);
        net_.schedule(d, [this, id] { observe(id, kNet); });
        break;
      }
    }
  }

  /// Rounds of 30 pushes, each run to idle in chunks of 1-8 events (so
  /// runs stop mid-bucket) with pushes from outside between some chunks.
  /// Dispatch pushes 0.5 new events on average, so a round's near-term
  /// activity dies out and its far events remain alone.
  void drive() {
    for (int round = 0; round < 12; ++round) {
      for (int i = 0; i < 30; ++i) push_random();
      while (!net_.idle()) {
        net_.run(1 + rng_.below(8));
        if (rng_.chance(1, 4)) push_random();
      }
    }
  }

  SimNet<MixedMsg>& net() { return net_; }
  std::size_t dispatched() const { return dispatched_; }
  std::size_t pending() const { return ref_.size(); }
  std::size_t mismatches() const { return mismatches_; }
  const std::string& first_mismatch() const { return first_mismatch_; }
  std::size_t long_jumps() const { return long_jumps_; }

 private:
  struct Expected {
    std::uint64_t time;
    std::uint64_t tie;
    int id;
    ProcessId node;
  };
  struct Later {
    bool operator()(const Expected& a, const Expected& b) const {
      return std::tie(a.time, a.tie) > std::tie(b.time, b.tie);
    }
  };

  static MixedMsg wire(bool aux, int id) {
    return aux ? MixedMsg{AuxPing{id}} : MixedMsg{Ping{id}};
  }

  std::uint64_t draw_delay() {
    switch (rng_.below(5)) {
      case 0:
        return 0;
      case 1:
        return rng_.range(1, 12);
      case 2:
        return rng_.range(40, 80);
      case 3:  // around the wheel's 128-tick horizon
        return rng_.range(120, 136);
      default:
        return rng_.range(500, 5000);
    }
  }

  void expect_message(ProcessId from, ProcessId to, bool aux, int id) {
    const std::uint64_t d = draw_delay();
    net_.set_link_delay(from, to, d, d);
    expect(d, aux, id, to);
  }

  void expect(std::uint64_t delay, bool aux, int id, ProcessId node) {
    const std::uint64_t tie = aux ? aux_tie_++ * 2 + 1 : pri_tie_++ * 2;
    ref_.push(Expected{net_.now() + delay, tie, id, node});
  }

  void observe(int id, ProcessId node) {
    ++dispatched_;
    if (net_.now() >= last_time_ + 128) ++long_jumps_;
    last_time_ = net_.now();
    if (ref_.empty()) {
      note_mismatch("event " + std::to_string(id) + " not expected");
      return;
    }
    const Expected want = ref_.top();
    ref_.pop();
    if (want.id != id || want.node != node || want.time != net_.now()) {
      note_mismatch("event #" + std::to_string(dispatched_) + ": want id " +
                    std::to_string(want.id) + " at " +
                    std::to_string(want.time) + ", got id " +
                    std::to_string(id) + " at " +
                    std::to_string(net_.now()));
    }
    // Keep the mix going from inside dispatch.
    if (rng_.chance(1, 2)) push_random();
  }

  void note_mismatch(std::string what) {
    if (mismatches_++ == 0) first_mismatch_ = std::move(what);
  }

  SimNet<MixedMsg> net_;
  Rng rng_;
  std::priority_queue<Expected, std::vector<Expected>, Later> ref_;
  std::uint64_t pri_tie_ = 0;
  std::uint64_t aux_tie_ = 0;
  int next_id_ = 0;
  std::size_t budget_ = 3000;
  std::size_t dispatched_ = 0;
  std::size_t mismatches_ = 0;
  std::string first_mismatch_;
  std::uint64_t last_time_ = 0;
  std::size_t long_jumps_ = 0;
};

TEST(SimNetWheel, PopOrderMatchesAReferenceHeap) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    WheelModel model(seed);
    model.drive();
    EXPECT_EQ(model.mismatches(), 0u)
        << "seed " << seed << ": " << model.first_mismatch();
    EXPECT_EQ(model.pending(), 0u) << "seed " << seed;
    EXPECT_GT(model.dispatched(), 2000u) << "seed " << seed;
    // The far heap and the empty-wheel jump were both exercised.
    EXPECT_GT(model.long_jumps(), 0u) << "seed " << seed;
    EXPECT_EQ(model.net().live_payloads(), 0u) << "seed " << seed;
  }
}

// --- One shared payload per send ----------------------------------------

// A variable-size wire message: wire_size() depends on the body, so a
// wrong per-copy byte count or a mixed-up payload shows.
struct Blob {
  int tag = 0;
  std::vector<int> body;
  std::uint64_t wire_size() const { return 10 + 4 * body.size(); }
  friend bool operator==(const Blob&, const Blob&) = default;
};

Blob blob(int tag) {
  Blob b;
  b.tag = tag;
  for (int k = 0; k <= tag % 5; ++k) b.body.push_back(tag * 10 + k);
  return b;
}

NetConfig lossy_dup(std::uint64_t seed) {
  return NetConfig{.seed = seed, .min_delay = 1, .max_delay = 12,
                   .drop_num = 20, .drop_den = 100,
                   .dup_num = 30, .dup_den = 100};
}

// (receiver, sender, time, message), in dispatch order.
using Deliveries = std::vector<std::tuple<ProcessId, ProcessId,
                                          std::uint64_t, Blob>>;

/// Runs `sends` on a fresh 5-node lossy, duplicating net and records
/// every delivery.
template <typename Sends>
std::pair<Deliveries, NetStats> record(std::uint64_t seed, Sends sends) {
  SimNet<Blob> net(5, lossy_dup(seed));
  Deliveries got;
  for (ProcessId p = 0; p < 5; ++p) {
    net.set_handler(p, [&net, &got, p](ProcessId from, const Blob& b) {
      got.emplace_back(p, from, net.now(), b);
    });
  }
  sends(net);
  net.run();
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.live_payloads(), 0u);
  return {got, net.stats()};
}

void expect_same_stats(const NetStats& a, const NetStats& b) {
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
}

TEST(SimNetPayload, SendAllAndSendToMatchPerDestinationSends) {
  // The multicasts must draw, order and deliver exactly like the send
  // loops they replace, and every copy, duplicates included, must equal
  // the message sent.
  const std::vector<ProcessId> peers{4, 1, 3};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto shared = record(seed, [&](SimNet<Blob>& net) {
      for (int i = 0; i < 40; ++i) {
        const ProcessId from = static_cast<ProcessId>(i % 5);
        if (i % 2 == 0) {
          net.send_all(from, blob(i));
        } else {
          net.send_to(from, peers, blob(i));
        }
      }
    });
    const auto looped = record(seed, [&](SimNet<Blob>& net) {
      for (int i = 0; i < 40; ++i) {
        const ProcessId from = static_cast<ProcessId>(i % 5);
        if (i % 2 == 0) {
          for (ProcessId to = 0; to < 5; ++to) net.send(from, to, blob(i));
        } else {
          for (ProcessId to : peers) net.send(from, to, blob(i));
        }
      }
    });
    EXPECT_EQ(shared.first, looped.first) << "seed " << seed;
    expect_same_stats(shared.second, looped.second);
    EXPECT_GT(shared.second.dropped, 0u);
    EXPECT_GT(shared.second.duplicated, 0u);
    for (const auto& [to, from, time, b] : shared.first) {
      EXPECT_EQ(b, blob(b.tag)) << "copy of " << b.tag << " at " << to;
    }
  }
}

TEST(SimNetPayload, ByteCountersSumOverDestinations) {
  // bytes_sent pays each destination's copy, dropped or not; bytes
  // delivered pays each delivery, duplicates included.
  std::uint64_t want_sent = 0;
  const std::vector<ProcessId> peers{0, 2};
  const auto [got, stats] = record(11, [&](SimNet<Blob>& net) {
    for (int i = 0; i < 30; ++i) {
      const Blob b = blob(i);
      if (i % 3 == 0) {
        net.send_all(1, b);
        want_sent += 5 * b.wire_size();
      } else {
        net.send_to(3, peers, b);
        want_sent += peers.size() * b.wire_size();
      }
    }
  });
  std::uint64_t want_delivered = 0;
  for (const auto& d : got) want_delivered += std::get<3>(d).wire_size();
  EXPECT_EQ(stats.bytes_sent, want_sent);
  EXPECT_EQ(stats.bytes_delivered, want_delivered);
  EXPECT_EQ(stats.delivered, got.size());
}

TEST(SimNetPayload, AForkReachesOnlyItsVictim) {
  // Node 0 forks its copies to node 2; every other destination, and
  // every duplicate of them, gets the original payload.
  SimNet<Blob> net(4, lossy_dup(5));
  std::vector<std::vector<int>> tags(4);
  for (ProcessId p = 0; p < 4; ++p) {
    net.set_handler(p, [&tags, p](ProcessId, const Blob& b) {
      tags[p].push_back(b.tag);
    });
  }
  net.set_equivocator(0, [](ProcessId to, const Blob& b) {
    return to == 2 ? std::optional<Blob>(blob(b.tag + 1000))
                   : std::nullopt;
  });
  for (int i = 0; i < 50; ++i) net.send_all(0, blob(i));
  net.send_to(0, std::vector<ProcessId>{2, 3}, blob(7));
  net.run();
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_FALSE(tags[p].empty()) << "node " << p;
    for (int tag : tags[p]) {
      EXPECT_EQ(tag >= 1000, p == 2) << "node " << p << " got " << tag;
    }
  }
  EXPECT_EQ(net.live_payloads(), 0u);
}

TEST(SimNetPayload, NoPayloadOutlivesItsDeliveries) {
  // Every way a copy can end — dropped at send, delivered, dropped at
  // a crashed receiver, a fork dropped on the wire, a run stopped and
  // resumed — leaves the slab empty once the net is idle.
  SimNet<Blob> net(4, lossy_dup(9));
  net.set_equivocator(1, [](ProcessId to, const Blob& b) {
    return to == 0 ? std::optional<Blob>(blob(b.tag + 1)) : std::nullopt;
  });
  net.crash(3);
  for (int i = 0; i < 200; ++i) {
    net.send_all(static_cast<ProcessId>(i % 3), blob(i));
  }
  EXPECT_GT(net.live_payloads(), 0u);
  while (!net.idle()) net.run(7);
  EXPECT_EQ(net.live_payloads(), 0u);
  // Everything dropped at send time: the payload is released at once.
  net.partition({{0}, {1}, {2}, {3}});
  net.send_to(0, std::vector<ProcessId>{1, 2}, blob(1));
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.live_payloads(), 0u);
}

}  // namespace
}  // namespace tokensync
