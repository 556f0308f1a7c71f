// Deterministic discrete-event message-passing network simulator.
//
// The paper's Sec. 7 calls for broadcast-based token protocols; this
// substrate provides the asynchronous network they run on: point-to-point
// messages with randomized per-message delays, probabilistic drops and
// duplication, programmable partitions, crash-stop faults, per-node timers
// and callbacks, and a net-level fault schedule.  Everything is driven by
// seeded Rngs plus a per-event tie-break sequence on equal timestamps (see
// next_tie), so a run is a pure function of (seed, the sequence of API
// calls): two runs with the same seed and the same deterministic protocol
// code produce the same delivery order, the same drops, the same fault
// timing — byte-identical traces (the property tests/scenario_test.cc
// asserts end-to-end).
//
// Fault model (what the seed covers and what it does not):
//   * delays       — uniform in [min_delay, max_delay] per message, drawn
//                    from the seeded Rng; per-link overrides via
//                    set_link_delay() (e.g. one slow WAN link);
//   * drops        — each send independently dropped with probability
//                    drop_num/drop_den (link-level loss, fair-lossy: a
//                    retransmitting sender eventually gets through);
//   * duplication  — each surviving send duplicated with probability
//                    dup_num/dup_den; the copy gets an independent delay
//                    (protocols must be idempotent at the receiver);
//   * partitions   — partition(groups) keeps only intra-group links up;
//                    heal() restores full connectivity.  Partitions apply
//                    at SEND time: messages already in flight when the
//                    partition starts are still delivered (they had left
//                    the sender's NIC);
//   * crash-stop   — crash(node): the node neither sends nor receives from
//                    that point on; in-flight messages TO it are dropped
//                    at delivery time, its timers and callbacks never fire.
//
// Fault schedules are ordinary events: schedule(delay, fn) runs fn at a
// simulated time regardless of node state (the "adversary's hand" —
// scenario drivers use it to flip partitions and crash replicas), while
// call_at(node, delay, fn) is a node-local callback that dies with the
// node (client drivers use it to submit operations over time).
//
// SimNet is templated on the wire-message type; each protocol defines its
// own message struct and registers a delivery handler per node.
//
// Storage.  Events wait in a timing wheel: one bucket per tick, kWheelTicks
// ticks ahead of now.  A bucket holds only events of one time, in two
// FIFOs of (tie, slot) keys, primary and aux; ties grow monotonically
// per class, so each FIFO is in tie order and a pop takes the head with
// the smaller tie.  Events further ahead (fault schedules, client
// scripts, long backoffs) wait in a small (time, tie) heap and move into
// their bucket when now comes within the horizon of their time, before
// anything can be pushed there directly; with the wheel empty, now jumps
// to the heap's head.  So the pop order is exactly the (time, tie) order.
// Each event's body (kind, endpoints, timer id, payload index, callback)
// sits in a free-listed slab and is dispatched where it lies.
//
// A message is stored once, in a free-listed payload slab with a
// refcount, its wire size and its aux flag: send_all and send_to share
// one payload across every destination and duplicate, and only an
// equivocator's forked copy gets its own.  Both slabs are std::deques:
// handlers push new events and payloads during dispatch, and growing a
// deque at the back leaves references to the body and message being
// dispatched valid.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/wire.h"

namespace tokensync {

/// Simulation parameters.  Aggregate by design: scenario code uses
/// designated initializers and only names the knobs it cares about.
struct NetConfig {
  std::uint64_t seed = 1;
  std::uint64_t min_delay = 1;    ///< inclusive, simulated time units
  std::uint64_t max_delay = 10;   ///< inclusive
  std::uint64_t drop_num = 0;     ///< drop probability drop_num/drop_den
  std::uint64_t drop_den = 100;
  std::uint64_t dup_num = 0;      ///< duplication probability dup_num/dup_den
  std::uint64_t dup_den = 100;
};

/// Network statistics (benchmarks and scenario reports include these).
/// Byte counters follow the wire-size model of common/wire.h: bytes_sent
/// mirrors `sent` (every send pays its bytes, dropped or not — the bytes
/// left the sender's NIC), bytes_delivered mirrors `delivered` (a
/// duplicated message is paid for on each delivery).
struct NetStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;     ///< loss + partition + crashed receiver
  std::uint64_t duplicated = 0;  ///< extra copies injected
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
};

template <typename Msg>
class SimNet {
 public:
  using MsgType = Msg;
  using Handler = std::function<void(ProcessId from, const Msg&)>;
  using TimerHandler = std::function<void(std::uint64_t timer_id)>;
  using Callback = std::function<void()>;
  /// Returns true iff the link from->to is currently up (checked at send
  /// time, after the partition check).
  using LinkFilter = std::function<bool(ProcessId from, ProcessId to,
                                        std::uint64_t now)>;

  SimNet(std::size_t n, NetConfig cfg)
      : cfg_(cfg), rng_(cfg.seed),
        aux_rng_(cfg.seed ^ 0x9e3779b97f4a7c15ull), handlers_(n),
        timer_handlers_(n), crashed_(n, false), everyone_(n) {
    std::iota(everyone_.begin(), everyone_.end(), ProcessId{0});
  }

  std::size_t num_nodes() const noexcept { return handlers_.size(); }
  std::uint64_t now() const noexcept { return now_; }
  const NetStats& stats() const noexcept { return stats_; }

  void set_handler(ProcessId node, Handler h) {
    handlers_.at(node) = std::move(h);
  }
  void set_timer_handler(ProcessId node, TimerHandler h) {
    timer_handlers_.at(node) = std::move(h);
  }
  void set_link_filter(LinkFilter f) { link_filter_ = std::move(f); }

  /// Byzantine node hook (ISSUE 9): returns the message `node` actually
  /// puts on the wire toward `to`, or nullopt to send the original
  /// unmodified.  Checked per destination at send time, BEFORE the
  /// loss/duplication rolls, so retransmissions re-fork consistently —
  /// a deterministic forker makes the equivocation itself deterministic.
  using Forker = std::function<std::optional<Msg>(ProcessId to, const Msg&)>;

  /// Arms `forker` on every send originating at `node` — the simulation
  /// stand-in for a node whose protocol stack lies on the wire (e.g. an
  /// equivocating Bracha origin signing two payloads for one slot).  The
  /// node's own in-process state is untouched: only its outgoing copies
  /// fork.
  void set_equivocator(ProcessId node, Forker forker) {
    equivocators_[node] = std::move(forker);
  }

  /// Overrides the delay distribution of the directed link from->to.
  void set_link_delay(ProcessId from, ProcessId to, std::uint64_t min_delay,
                      std::uint64_t max_delay) {
    TS_EXPECTS(min_delay <= max_delay);
    link_delay_[{from, to}] = {min_delay, max_delay};
  }

  /// Crash-stop: the node neither sends nor receives from now on.
  void crash(ProcessId node) { crashed_.at(node) = true; }
  bool is_crashed(ProcessId node) const { return crashed_.at(node); }

  /// Crash-RECOVER extension of the crash-stop model: the node may send
  /// and receive again from now on.  Everything scheduled while it was
  /// down is already gone (messages TO it were dropped at delivery time,
  /// its kCall/kTimer events were discarded at fire time), so a restarted
  /// node comes back with an empty inbox — the recovery subsystem
  /// (net/recovery.h) is responsible for rebuilding its state from a
  /// snapshot plus the retained log suffix.
  void restart(ProcessId node) { crashed_.at(node) = false; }

  /// Partitions the network into the given groups: a link is up iff both
  /// endpoints are in the same group.  Nodes not listed in any group end
  /// up isolated (their own singleton component).  Applies to sends from
  /// now on; in-flight messages are unaffected.
  void partition(const std::vector<std::vector<ProcessId>>& groups) {
    group_of_.assign(num_nodes(), kIsolated);
    std::uint32_t g = 0;
    for (const auto& members : groups) {
      for (ProcessId p : members) group_of_.at(p) = g;
      ++g;
    }
  }

  /// Removes any partition; all links are up again.
  void heal() { group_of_.clear(); }

  bool partitioned() const noexcept { return !group_of_.empty(); }

  /// True iff the directed link from->to is currently up (partition only;
  /// the user link filter is consulted separately at send time).
  /// Self-sends are always up — an isolated node is its own singleton
  /// component, not cut off from itself.
  bool link_up(ProcessId from, ProcessId to) const {
    if (group_of_.empty() || from == to) return true;
    return group_of_[from] != kIsolated && group_of_[from] == group_of_[to];
  }

  /// Sends m from `from` to `to` (self-sends allowed: delivered like any
  /// other message).  Drops, duplication and partitions apply.
  void send(ProcessId from, ProcessId to, Msg m) {
    send_to(from, std::span<const ProcessId>(&to, 1), std::move(m));
  }

  /// Sends m to every node (including the sender).
  void send_all(ProcessId from, const Msg& m) { send_to(from, everyone_, m); }

  /// Sends m to each of `peers` in order, exactly as that many send()
  /// calls would (the same per-destination fork, loss, duplication and
  /// delay draws, the same ties), but every copy shares one payload.
  void send_to(ProcessId from, std::span<const ProcessId> peers, Msg m) {
    TS_EXPECTS(from < num_nodes());
    if (crashed_[from]) return;
    const std::uint32_t shared = new_payload(std::move(m));
    for (ProcessId to : peers) route(from, to, shared);
    release_if_unused(shared);
  }

  /// Schedules a timer callback at now + delay, dispatched through the
  /// node's timer handler with `timer_id` (legacy protocol-engine path).
  void set_timer(ProcessId node, std::uint64_t delay,
                 std::uint64_t timer_id) {
    push_timer(node, delay, timer_id, false);
  }

  /// set_timer for auxiliary-class protocol engines (relay recovery):
  /// identical semantics, but the event draws its tie-break from the aux
  /// sequence so arming/cancelling it cannot reorder primary events.
  void set_timer_aux(ProcessId node, std::uint64_t delay,
                     std::uint64_t timer_id) {
    push_timer(node, delay, timer_id, true);
  }

  /// Schedules fn at now + delay on `node`; silently dropped if the node
  /// has crashed by then.  Unlike set_timer, each call carries its own
  /// callback, so protocol engines and client drivers can coexist on one
  /// node without sharing the timer handler.
  void call_at(ProcessId node, std::uint64_t delay, Callback fn) {
    TS_EXPECTS(node < num_nodes());
    push_callback(Kind::kCall, node, delay, std::move(fn));
  }

  /// Schedules a net-level control action at now + delay — runs
  /// unconditionally (fault schedules: partitions, crashes, heals).
  void schedule(std::uint64_t delay, Callback fn) {
    push_callback(Kind::kControl, 0, delay, std::move(fn));
  }

  /// Delivers the next event; false when the queue is empty.
  bool step() {
    if (wheel_events_ == 0) {
      if (far_.empty()) return false;
      advance_to(far_.top().time);
    } else if (const std::uint64_t ahead = ticks_to_next_bucket(); ahead) {
      advance_to(now_ + ahead);
    }
    const std::uint32_t slot = pop_current();
    // The body stays in its slot while its handler runs (events the
    // handler pushes take other slots) and is released afterwards.
    Body& e = slab_[slot];
    switch (e.kind) {
      case Kind::kControl:
        e.fn();
        e.fn = nullptr;
        break;
      case Kind::kCall:
        if (!crashed_[e.to]) e.fn();
        e.fn = nullptr;
        break;
      case Kind::kTimer:
        if (!crashed_[e.to] && timer_handlers_[e.to]) {
          timer_handlers_[e.to](e.timer_id);
        }
        break;
      case Kind::kMsg: {
        const Payload& pl = payloads_[e.payload];
        if (crashed_[e.to]) {
          ++stats_.dropped;
        } else {
          ++stats_.delivered;
          stats_.bytes_delivered += pl.bytes;
          if (handlers_[e.to]) handlers_[e.to](e.from, pl.msg);
        }
        unref(e.payload);
        break;
      }
    }
    free_.push_back(slot);
    return true;
  }

  /// Runs until quiescence or `max_events`; returns events processed.
  std::size_t run(std::size_t max_events = 1u << 22) {
    std::size_t processed = 0;
    while (processed < max_events && step()) ++processed;
    return processed;
  }

  bool idle() const noexcept { return wheel_events_ == 0 && far_.empty(); }

  /// Messages held in the payload slab: each is referenced by at least
  /// one queued delivery.  0 whenever the net is idle.
  std::size_t live_payloads() const noexcept {
    return payloads_.size() - free_payloads_.size();
  }

 private:
  static constexpr std::uint32_t kIsolated = 0xffffffffu;

  enum class Kind : std::uint8_t { kMsg, kTimer, kCall, kControl };

  /// Ticks the wheel covers: an event less than this far ahead goes
  /// straight into its bucket.  Every protocol delay in the repo fits.
  static constexpr std::uint64_t kWheelTicks = 128;
  static_assert(kWheelTicks == 2 * 64, "occupied_ is a two-word mask");

  /// A queued event in its bucket; the bucket gives its time.
  struct Entry {
    std::uint64_t tie;
    std::uint32_t slot;
  };

  /// Entries of one class for one time, in push (= tie) order.  Popped
  /// entries stay below `head` until the FIFO drains and is cleared.
  struct Fifo {
    std::vector<Entry> items;
    std::size_t head = 0;
    bool empty() const noexcept { return head == items.size(); }
  };

  struct Bucket {
    Fifo pri;  ///< even ties
    Fifo aux;  ///< odd ties
  };

  /// An event's place in the order: (time, tie) is unique per event, so
  /// the order never depends on the slot numbers.  far_ keeps the keys
  /// of events beyond the wheel's horizon.
  struct Key {
    std::uint64_t time;
    std::uint64_t tie;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.time != b.time ? a.time > b.time : a.tie > b.tie;
    }
  };

  /// An event's header.  A released slot holds an empty `fn`.
  struct Body {
    Kind kind = Kind::kMsg;
    ProcessId from = 0;
    ProcessId to = 0;
    std::uint32_t payload = 0;  ///< kMsg: index into payloads_
    std::uint64_t timer_id = 0;
    Callback fn;
  };

  /// One message, shared by every queued delivery of it.  A released
  /// slot holds a default `msg`.
  struct Payload {
    Msg msg{};
    std::uint64_t bytes = 0;  ///< wire_size_of(msg)
    std::uint32_t refs = 0;   ///< queued deliveries
    bool aux = false;         ///< is_aux_msg(msg)
  };

  std::uint32_t new_payload(Msg m) {
    std::uint32_t p;
    if (free_payloads_.empty()) {
      p = static_cast<std::uint32_t>(payloads_.size());
      payloads_.emplace_back();
    } else {
      p = free_payloads_.back();
      free_payloads_.pop_back();
    }
    Payload& pl = payloads_[p];
    pl.bytes = wire_size_of(m);
    pl.aux = is_aux_msg(m);
    pl.msg = std::move(m);
    return p;
  }

  void release_if_unused(std::uint32_t p) {
    Payload& pl = payloads_[p];
    if (pl.refs != 0) return;
    pl.msg = Msg{};
    free_payloads_.push_back(p);
  }

  void unref(std::uint32_t p) {
    --payloads_[p].refs;
    release_if_unused(p);
  }

  /// One destination of a send: the fork, the partition and link
  /// checks, then the loss, duplication and delay draws.
  void route(ProcessId from, ProcessId to, std::uint32_t shared) {
    TS_EXPECTS(to < num_nodes());
    std::uint32_t p = shared;
    if (!equivocators_.empty()) {
      if (auto it = equivocators_.find(from); it != equivocators_.end()) {
        if (auto forked = it->second(to, payloads_[shared].msg)) {
          p = new_payload(*std::move(forked));
        }
      }
    }
    transmit(from, to, p);
    if (p != shared) release_if_unused(p);
  }

  /// Puts payload p on the link from->to: counts it as sent, then
  /// queues zero, one or two deliveries of it.
  void transmit(ProcessId from, ProcessId to, std::uint32_t p) {
    const Payload& pl = payloads_[p];
    ++stats_.sent;
    stats_.bytes_sent += pl.bytes;
    if (!link_up(from, to)) {
      ++stats_.dropped;
      return;
    }
    if (link_filter_ && !link_filter_(from, to, now_)) {
      ++stats_.dropped;
      return;
    }
    // Auxiliary-class traffic (relay recovery, see common/wire.h) draws
    // its loss/duplication/delay randomness from the second Rng stream:
    // primary-lane messages see the exact same draw sequence whether or
    // not aux traffic exists, which is what keeps committed histories
    // byte-identical between full and compact relay modes.
    const bool aux = pl.aux;
    Rng& rng = aux ? aux_rng_ : rng_;
    if (cfg_.drop_num > 0 && rng.chance(cfg_.drop_num, cfg_.drop_den)) {
      ++stats_.dropped;
      return;
    }
    const bool duplicate =
        cfg_.dup_num > 0 && rng.chance(cfg_.dup_num, cfg_.dup_den);
    if (duplicate) {
      ++stats_.duplicated;
      push_message(from, to, p, aux);
    }
    push_message(from, to, p, aux);
  }

  /// Takes a free slot (the most recently released first) or grows the
  /// slab, fills its header and queues it at now + delay.
  Body& push(Kind kind, ProcessId from, ProcessId to, std::uint64_t delay,
             bool aux) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    Body& b = slab_[slot];
    b.kind = kind;
    b.from = from;
    b.to = to;
    const Key k{now_ + delay, next_tie(aux), slot};
    if (delay < kWheelTicks) {
      enqueue(k);
    } else {
      far_.push(k);
    }
    return b;
  }

  void push_timer(ProcessId node, std::uint64_t delay,
                  std::uint64_t timer_id, bool aux) {
    push(Kind::kTimer, node, node, delay, aux).timer_id = timer_id;
  }

  void push_callback(Kind kind, ProcessId node, std::uint64_t delay,
                     Callback fn) {
    push(kind, node, node, delay, false).fn = std::move(fn);
  }

  void push_message(ProcessId from, ProcessId to, std::uint32_t p,
                    bool aux) {
    std::uint64_t lo = cfg_.min_delay, hi = cfg_.max_delay;
    if (!link_delay_.empty()) {
      if (const auto it = link_delay_.find({from, to});
          it != link_delay_.end()) {
        lo = it->second.first;
        hi = it->second.second;
      }
    }
    const std::uint64_t delay = (aux ? aux_rng_ : rng_).range(lo, hi);
    push(Kind::kMsg, from, to, delay, aux).payload = p;
    ++payloads_[p].refs;
  }

  /// Two disjoint tie-break sequences (primary even, aux odd): the
  /// relative order of equal-time PRIMARY events is a pure function of
  /// primary activity alone, so aux traffic cannot reorder them.
  std::uint64_t next_tie(bool aux) {
    return aux ? (aux_tie_++ * 2 + 1) : (pri_tie_++ * 2);
  }

  // --- the timing wheel ---------------------------------------------------

  /// Appends k to its bucket; its time lies in [now, now + kWheelTicks).
  void enqueue(const Key& k) {
    const std::uint64_t b = k.time % kWheelTicks;
    Bucket& bucket = wheel_[b];
    (k.tie & 1 ? bucket.aux : bucket.pri).items.push_back({k.tie, k.slot});
    occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
    ++wheel_events_;
  }

  /// Ticks from now to the first non-empty bucket (0 if now's bucket
  /// still holds events); the wheel must not be empty.
  std::uint64_t ticks_to_next_bucket() const {
    // Rotate the 128-bit occupancy mask right by s so bit 0 is now.
    std::uint64_t lo = occupied_[0], hi = occupied_[1];
    unsigned s = static_cast<unsigned>(now_ % kWheelTicks);
    if (s >= 64) {
      std::swap(lo, hi);
      s -= 64;
    }
    if (s != 0) {
      const std::uint64_t lo2 = (lo >> s) | (hi << (64 - s));
      hi = (hi >> s) | (lo << (64 - s));
      lo = lo2;
    }
    return lo != 0 ? std::countr_zero(lo) : 64 + std::countr_zero(hi);
  }

  /// Moves now forward to t, then moves every far event now within the
  /// horizon into its bucket.  The heap pops in (time, tie) order, and
  /// nothing has been pushed directly to those times yet, so each FIFO
  /// stays in tie order.
  void advance_to(std::uint64_t t) {
    now_ = t;
    while (!far_.empty() && far_.top().time < now_ + kWheelTicks) {
      enqueue(far_.top());
      far_.pop();
    }
  }

  /// Removes the next event of now's bucket and returns its slot.
  std::uint32_t pop_current() {
    const std::uint64_t b = now_ % kWheelTicks;
    Bucket& bucket = wheel_[b];
    const bool take_aux =
        bucket.pri.empty() ||
        (!bucket.aux.empty() &&
         bucket.aux.items[bucket.aux.head].tie <
             bucket.pri.items[bucket.pri.head].tie);
    Fifo& f = take_aux ? bucket.aux : bucket.pri;
    const std::uint32_t slot = f.items[f.head++].slot;
    if (f.empty()) {
      f.items.clear();
      f.head = 0;
      if (bucket.pri.empty() && bucket.aux.empty()) {
        occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
      }
    }
    --wheel_events_;
    return slot;
  }

  NetConfig cfg_;
  Rng rng_;
  Rng aux_rng_;
  std::uint64_t now_ = 0;
  std::uint64_t pri_tie_ = 0;
  std::uint64_t aux_tie_ = 0;
  std::vector<Handler> handlers_;
  std::vector<TimerHandler> timer_handlers_;
  std::vector<bool> crashed_;
  LinkFilter link_filter_;
  std::map<ProcessId, Forker> equivocators_;
  std::vector<std::uint32_t> group_of_;  // empty = no partition
  std::map<std::pair<ProcessId, ProcessId>,
           std::pair<std::uint64_t, std::uint64_t>>
      link_delay_;
  std::vector<ProcessId> everyone_;  ///< 0..n-1, send_all's peer list
  std::array<Bucket, kWheelTicks> wheel_{};
  std::uint64_t occupied_[2] = {0, 0};  ///< bit b: wheel_[b] is non-empty
  std::size_t wheel_events_ = 0;
  std::priority_queue<Key, std::vector<Key>, Later> far_;
  std::deque<Body> slab_;
  std::vector<std::uint32_t> free_;  ///< released slab slots, reused LIFO
  std::deque<Payload> payloads_;
  std::vector<std::uint32_t> free_payloads_;  ///< reused LIFO
  NetStats stats_;
};

}  // namespace tokensync
