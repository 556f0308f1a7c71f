// Tests for the discrete-event network simulator.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <variant>
#include <vector>

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

}  // namespace
}  // namespace tokensync
