// Fundamental identifier and amount types shared by every subsystem.
//
// The paper (Sec. 3/4) works with a finite process set Π and account set A
// with |Π| = |A| = n and the owner bijection ω(a_i) = p_i.  We follow that
// convention throughout: ProcessId and AccountId are dense 0-based indices,
// and the owner of account `a` is the process with the same index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace tokensync {

/// Dense 0-based index of a process p ∈ Π.
using ProcessId = std::uint32_t;

/// Dense 0-based index of an account a ∈ A.
using AccountId = std::uint32_t;

/// Token amount (the paper's ℕ).  64-bit; all arithmetic in the sequential
/// specifications is overflow-checked (see common/checked.h).
using Amount = std::uint64_t;

/// Sentinel for "no process".
inline constexpr ProcessId kNoProcess = std::numeric_limits<ProcessId>::max();

/// Sentinel for "no account".
inline constexpr AccountId kNoAccount = std::numeric_limits<AccountId>::max();

/// Owner map ω: A → Π of Definition 3 — the identity on indices.
constexpr ProcessId owner_of(AccountId a) noexcept { return ProcessId{a}; }

/// Inverse of the owner map: the account a_p owned by process p.
constexpr AccountId account_of(ProcessId p) noexcept { return AccountId{p}; }

/// Every process of 0..n-1 except `self`, ascending: the peer list of a
/// send to everyone else.
inline std::vector<ProcessId> peers_of(std::size_t n, ProcessId self) {
  std::vector<ProcessId> peers;
  for (ProcessId p = 0; p < n; ++p) {
    if (p != self) peers.push_back(p);
  }
  return peers;
}

}  // namespace tokensync
