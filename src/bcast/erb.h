// Eager reliable broadcast (crash-stop model) with per-sender FIFO
// delivery — the dissemination layer for the consensus-free asset
// transfer (Sec. 7 / Collins et al., DSN'20 style).
//
// Reliable broadcast properties (crash model):
//   validity      — a correct broadcaster's message is eventually
//                   delivered by every correct node;
//   no duplication, no creation;
//   agreement     — if any correct node delivers m, all correct nodes do
//                   (achieved by eager re-broadcast on first delivery).
// FIFO: messages from the same origin are delivered in sequence order.
//
// The implementation retransmits periodically until every peer has acked,
// making delivery survive probabilistic message drops (the network may
// drop any single send; retransmission gives eventual delivery on fair
// links).
//
// Bookkeeping: the ack table (bcast/ack_table.h) holds only messages some
// peer has not acked yet.  Messages are stored per origin, indexed by
// sequence number (an origin's seqs are dense from 0), and only while
// they still matter: until delivered here and settled in the ack table.
// A message below the origin's delivery frontier is known without being
// stored, so dedup needs just the frontier plus the out-of-order
// entries, and memory follows the unsettled window, not the run length.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "bcast/ack_table.h"
#include "net/simnet.h"

namespace tokensync {

/// Wire message for ErbNode.
template <typename Payload>
struct ErbMsg {
  enum class Type : std::uint8_t { kData, kAck } type = Type::kData;
  ProcessId origin = 0;
  std::uint64_t seq = 0;
  Payload payload{};

  /// Acks are header-only; only kData carries the payload's bytes (the
  /// type/origin/seq fields ride inside the framing constant).
  std::uint64_t wire_size() const {
    return kWireHeaderBytes +
           (type == Type::kData ? wire_size_of(payload) : 0);
  }
};

/// One node of the FIFO eager reliable broadcast.
///
/// `NetT` defaults to the plain SimNet carrying ErbMsg<Payload> — the
/// standalone configuration (at_bcast, the dedicated tests).  Any type
/// with the same send/send_all/set_handler/set_timer surface works; the
/// hybrid replica runtime passes a LaneNet (net/lane_mux.h) so the ERB
/// fast lane and the Paxos consensus lane share ONE simulated network.
template <typename Payload, typename NetT = SimNet<ErbMsg<Payload>>>
class ErbNode {
 public:
  using Net = NetT;
  using Deliver = std::function<void(ProcessId origin, std::uint64_t seq,
                                     const Payload&)>;

  ErbNode(Net& net, ProcessId self, Deliver deliver,
          std::uint64_t retransmit_every = 50)
      : net_(net), self_(self), peers_(peers_of(net.num_nodes(), self)),
        deliver_(std::move(deliver)),
        retransmit_every_(retransmit_every),
        known_(net.num_nodes()),
        next_deliver_(net.num_nodes(), 0) {
    net_.set_handler(self_, [this](ProcessId from, const ErbMsg<Payload>& m) {
      on_message(from, m);
    });
    net_.set_timer_handler(self_, [this](std::uint64_t) { on_timer(); });
  }

  /// FIFO-broadcasts payload from this node; returns its sequence number.
  std::uint64_t broadcast(Payload p) {
    const std::uint64_t seq = next_seq_++;
    ErbMsg<Payload> m{ErbMsg<Payload>::Type::kData, self_, seq,
                      std::move(p)};
    store_and_forward(m);
    return seq;
  }

  /// Messages delivered so far (origin, seq) — for test assertions.
  std::uint64_t delivered_count() const noexcept { return delivered_n_; }

  /// Per-origin FIFO frontier: the next sequence number this node will
  /// deliver from `origin` (== how many of its messages are delivered).
  /// Test/observability accessor.  Note the hybrid replica
  /// (net/hybrid_replica.h) deliberately does NOT read this for its
  /// merge-barrier cut: it mirrors delivered counts in its own deliver
  /// callback, because next_deliver_ is incremented only AFTER the
  /// callback returns — reading it from inside delivery would be
  /// off by one.
  std::uint64_t frontier(ProcessId origin) const {
    return next_deliver_.at(origin);
  }

  /// Messages still awaiting at least one peer ack (retransmission is
  /// live while this is non-zero; quiescence tests pin it to 0).
  std::size_t unacked() const noexcept { return acks_.unacked(); }

  /// Entries held in the ack table.  A settled message's entry is
  /// dropped, so this returns to 0 at quiescence; tests pin that the
  /// table does not grow with every message ever broadcast.
  std::size_t pending_ack_entries() const noexcept { return acks_.entries(); }

  /// Messages held in the store: not yet delivered here, or delivered
  /// but not yet acked by every live peer (or queued behind one that
  /// is not).  Returns to 0 at quiescence; tests pin that the store does
  /// not keep every message for the node's whole life.
  std::size_t stored_messages() const noexcept { return stored_; }

 private:
  using Key = std::pair<ProcessId, std::uint64_t>;

  /// One origin's stored messages, from seq `base` on.  Every seq in
  /// [base, frontier) is present; above the frontier only the ones
  /// received out of order are.
  struct Row {
    std::uint64_t base = 0;
    std::deque<std::optional<ErbMsg<Payload>>> msgs;
  };

  /// The stored copy of (origin, seq), or nullptr.
  const ErbMsg<Payload>* find_stored(ProcessId origin,
                                     std::uint64_t seq) const {
    const Row& row = known_[origin];
    if (seq < row.base || seq - row.base >= row.msgs.size()) return nullptr;
    const auto& slot = row.msgs[seq - row.base];
    return slot ? &*slot : nullptr;
  }

  void store_and_forward(const ErbMsg<Payload>& m) {
    // Below the frontier means delivered, stored or not.
    if (m.seq < next_deliver_[m.origin] || find_stored(m.origin, m.seq)) {
      return;
    }
    Row& row = known_[m.origin];
    const std::uint64_t i = m.seq - row.base;
    if (i >= row.msgs.size()) row.msgs.resize(i + 1);
    row.msgs[i] = m;
    ++stored_;
    acks_.expect(Key{m.origin, m.seq}, peers_);
    net_.send_all(self_, m);
    arm_timer();
    try_deliver(m.origin);
  }

  void arm_timer() {
    if (timer_armed_) return;
    timer_armed_ = true;
    net_.set_timer(self_, retransmit_every_, 0);
  }

  void on_message(ProcessId from, const ErbMsg<Payload>& m) {
    if (m.type == ErbMsg<Payload>::Type::kAck) {
      if (acks_.ack(Key{m.origin, m.seq}, from)) prune(m.origin);
      return;
    }
    // Ack back to the forwarder so it can stop retransmitting to us.
    ErbMsg<Payload> ack{ErbMsg<Payload>::Type::kAck, m.origin, m.seq, {}};
    net_.send(self_, from, ack);
    store_and_forward(m);
  }

  void on_timer() {
    // Retransmit unacked messages; keeps delivery live across drops.  The
    // timer stays armed only while acks are outstanding, so a quiescent
    // cluster's event queue drains.  Crashed peers are written off
    // instead of retransmitted to forever — the simulator's crash oracle
    // stands in for the crash-stop model's perfect failure detector
    // (without it, one crashed peer keeps every correct node's timer
    // armed and the network never quiesces).
    timer_armed_ = false;
    const bool outstanding = acks_.retransmit(
        [this](ProcessId p) { return net_.is_crashed(p); },
        [this](const Key& key, const auto& missing) {
          net_.send_to(self_, missing, *find_stored(key.first, key.second));
        });
    // Writing off a crashed peer may have settled any origin's entries.
    for (ProcessId origin = 0; origin < known_.size(); ++origin) {
      prune(origin);
    }
    if (outstanding) arm_timer();
  }

  void try_deliver(ProcessId origin) {
    // FIFO: deliver contiguous sequence numbers only.
    ++delivering_;
    while (const auto* m = find_stored(origin, next_deliver_[origin])) {
      deliver_(origin, m->seq, m->payload);
      ++delivered_n_;
      ++next_deliver_[origin];
    }
    --delivering_;
    if (delivering_ > 0) return;
    prune(origin);
    if (prune_deferred_) {
      prune_deferred_ = false;
      for (ProcessId o = 0; o < known_.size(); ++o) prune(o);
    }
  }

  /// Drops `origin`'s stored messages from the front of its row while
  /// each is delivered and settled.  Skipped while a delivery callback
  /// runs (a callback may broadcast, delivering our own next message
  /// inside it), so the payload the callback was handed stays put; the
  /// outermost delivery catches up afterwards.
  void prune(ProcessId origin) {
    if (delivering_ > 0) {
      prune_deferred_ = true;
      return;
    }
    Row& row = known_[origin];
    while (row.base < next_deliver_[origin] &&
           !acks_.pending(Key{origin, row.base})) {
      row.msgs.pop_front();
      ++row.base;
      --stored_;
    }
  }

  Net& net_;
  ProcessId self_;
  std::vector<ProcessId> peers_;  ///< every node but self
  Deliver deliver_;
  std::uint64_t retransmit_every_;
  bool timer_armed_ = false;
  std::uint64_t next_seq_ = 0;
  /// known_[origin]: the messages still stored.  A row is a deque, so a
  /// delivery callback that broadcasts (growing its own origin's row)
  /// leaves the payload it was handed in place.
  std::vector<Row> known_;
  std::size_t stored_ = 0;
  AckTable<Key> acks_;
  std::vector<std::uint64_t> next_deliver_;
  std::uint64_t delivered_n_ = 0;
  int delivering_ = 0;  ///< delivery callbacks on the stack
  bool prune_deferred_ = false;
};

}  // namespace tokensync
