// Cost accounting for the overlay simulation. The paper's efficiency
// metrics are protocol-level counts — routing hops, bytes carried across
// hops, nodes visited, per-node access/storage load — so the simulator
// tracks exactly these.

#ifndef DHS_DHT_STATS_H_
#define DHS_DHT_STATS_H_

#include <cstddef>
#include <cstdint>

#include "common/check.h"

namespace dhs {

/// Aggregate message-level costs. Byte accounting convention (matching the
/// paper): a payload of b bytes routed over h hops costs h * b bytes; DHT
/// protocol and TCP/IP headers are excluded, as in §5.2.
struct MessageStats {
  uint64_t messages = 0;  // logical operations (lookups, direct hops)
  uint64_t hops = 0;      // total inter-node hops
  uint64_t bytes = 0;     // total payload bytes carried over all hops

  void Clear() { *this = MessageStats{}; }

  MessageStats& operator+=(const MessageStats& o) {
    messages += o.messages;
    hops += o.hops;
    bytes += o.bytes;
    return *this;
  }

  /// Counter subtraction is only meaningful between two snapshots of
  /// the same monotonically growing counters (later minus earlier), so
  /// component-wise underflow is always a caller bug — catch it before
  /// it wraps to ~2^64 and poisons downstream deltas.
  MessageStats& operator-=(const MessageStats& o) {
    DCHECK_LE(o.messages, messages) << "MessageStats message underflow";
    DCHECK_LE(o.hops, hops) << "MessageStats hop underflow";
    DCHECK_LE(o.bytes, bytes) << "MessageStats byte underflow";
    messages -= o.messages;
    hops -= o.hops;
    bytes -= o.bytes;
    return *this;
  }
};

inline MessageStats operator-(MessageStats a, const MessageStats& b) {
  a -= b;
  return a;
}

/// Per-node load counters (constraint 3 of the paper: access and storage
/// load balancing).
struct NodeLoad {
  uint64_t routed = 0;   // messages forwarded through this node
  uint64_t served = 0;   // messages terminating at this node
  uint64_t stores = 0;   // store operations served
  uint64_t probes = 0;   // DHS probe requests served
};

}  // namespace dhs

#endif  // DHS_DHT_STATS_H_
