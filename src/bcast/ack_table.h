// Retransmission bookkeeping shared by the reliable broadcasts (ErbNode,
// BrachaNode): which peers have not acked each reliably-sent message yet.
//
// One entry per message with peers still missing, holding them as an
// ascending list.  An entry is dropped once its last peer acks or is
// written off as crashed, so a retransmit round walks only unsettled
// messages, in key order, and the table is empty at quiescence.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "common/ids.h"

namespace tokensync {

template <typename Key>
class AckTable {
 public:
  using Peers = std::vector<ProcessId>;

  /// Starts waiting for acks of `key` from `peers` (ascending).  An empty
  /// list makes no entry.
  void expect(const Key& key, Peers peers) {
    if (!peers.empty()) pending_.emplace(key, std::move(peers));
  }

  /// Records `from`'s ack of `key`; unknown keys and repeated acks are
  /// ignored.  Returns true iff this ack settled the entry.
  bool ack(const Key& key, ProcessId from) {
    const auto it = pending_.find(key);
    if (it == pending_.end()) return false;
    Peers& missing = it->second;
    const auto pos = std::lower_bound(missing.begin(), missing.end(), from);
    if (pos != missing.end() && *pos == from) missing.erase(pos);
    if (!missing.empty()) return false;
    pending_.erase(it);
    return true;
  }

  /// True iff `key` still misses some peer's ack.
  bool pending(const Key& key) const { return pending_.contains(key); }

  /// One retransmit round in key order: drops every peer for which
  /// `gone(p)` holds, then calls `resend(key, missing)` for each entry
  /// that still misses a peer.  Returns true iff any entry remains.
  template <typename Gone, typename Resend>
  bool retransmit(Gone gone, Resend resend) {
    for (auto it = pending_.begin(); it != pending_.end();) {
      std::erase_if(it->second, gone);
      if (it->second.empty()) {
        it = pending_.erase(it);
        continue;
      }
      resend(it->first, std::as_const(it->second));
      ++it;
    }
    return !pending_.empty();
  }

  /// Messages still missing at least one peer's ack.
  std::size_t unacked() const noexcept {
    std::size_t n = 0;
    for (const auto& [key, missing] : pending_) n += !missing.empty();
    return n;
  }

  /// Entries held; equals unacked() while settled entries are dropped.
  std::size_t entries() const noexcept { return pending_.size(); }

 private:
  std::map<Key, Peers> pending_;
};

}  // namespace tokensync
