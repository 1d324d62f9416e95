// Fuzz target: NodeStore against its std::map reference model.
//
// The input decodes into an operation sequence, 8 bytes per operation,
// run through the differential harness of store_test
// (tests/dht/node_store_model.h): puts (fresh keys and refreshes to any
// deadline, including already-due ones), gets, erases, clock advances
// with ExpireUntil, cell and metric scans, and MigrateIf/MigrateAll
// between two stores. After every operation the harness compares record
// counts, byte totals, the MinExpiry bound and the scanned cell; small
// stores (every fuzz input) also get a full scan and AuditFull. Any
// divergence aborts.
//
// Keys come from a small space — four metrics (including 0 and
// 2^64-1), all 24 bits, 16 vector ids — so inputs collide, refresh and
// empty cells often.

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "../dht/node_store_model.h"

namespace {

using dhs::store_model::Op;

constexpr uint64_t kMetrics[] = {0, 1, 0x8000000000000000ull,
                                 ~uint64_t{0}};

// Byte layout of one operation:
//   [0] kind (low 3 bits), side (bit 3), deadline shape (bits 4-5)
//   [1] metric (low 2 bits), vector (bits 2-5)
//   [2] bit (mod 24)
//   [3] deadline offset / clock advance
//   [4..7] routing key (the MigrateIf pivot), little endian
Op DecodeOp(const uint8_t* b, uint64_t now) {
  Op op;
  op.kind = static_cast<Op::Kind>(b[0] & 7);
  op.side = (b[0] >> 3) & 1;
  op.metric = kMetrics[b[1] & 3];
  op.vector = (b[1] >> 2) & 15;
  op.bit = b[2] % 24;
  const uint64_t word = uint64_t{b[4]} | uint64_t{b[5]} << 8 |
                        uint64_t{b[6]} << 16 | uint64_t{b[7]} << 24;
  op.dht_key = word * 0x9E3779B97F4A7C15ull;  // spread over 64 bits
  switch ((b[0] >> 4) & 3) {
    case 0:
      op.deadline = dhs::kNoExpiry;
      break;
    case 1:
      op.deadline = now + b[3];  // b[3] == 0: due on arrival
      break;
    default:
      op.deadline = now + 1 + uint64_t{b[3]} * 16;
      break;
  }
  op.ticks = b[3];
  return op;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  dhs::store_model::Model model;
  for (size_t at = 0; at + 8 <= size; at += 8) {
    CHECK_OK(model.Apply(DecodeOp(data + at, model.now())));
  }
  return 0;
}

std::vector<std::string> FuzzSeedCorpus() {
  // Put, refresh earlier, scan, advance past the deadline, migrate all.
  const std::vector<std::string> ops = {
      std::string("\x10\x04\x05\x20\x01\x00\x00\x00", 8),
      std::string("\x10\x04\x05\x02\x01\x00\x00\x00", 8),
      std::string("\x00\x08\x05\x00\x02\x00\x00\x00", 8),
      std::string("\x04\x04\x05\x00\x00\x00\x00\x00", 8),
      std::string("\x03\x00\x00\x40\x00\x00\x00\x00", 8),
      std::string("\x16\x05\x07\x30\x00\x00\x00\x80", 8),
      std::string("\x0f\x00\x00\x00\x00\x00\x00\x00", 8),
      std::string("\x07\x00\x00\x00\x00\x00\x00\x00", 8),
  };
  std::string all;
  for (const std::string& op : ops) all += op;
  return {all, ops[0] + ops[4] + ops[2], ops[5] + ops[6] + ops[7]};
}

#include "fuzz_driver.h"
