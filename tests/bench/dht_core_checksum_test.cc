// P1's determinism witness: the simulator-core op loops
// (dht_core_ops.h) must reproduce the checksums the retired P1 bench
// recorded. lookup and range_count depend on the overlay, so they are
// pinned at 1,024 nodes; the other three do not depend on the node
// count. A change that alters routing, range counting, expiry or what
// the store holds moves one of them.

#include "dht_core_ops.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

namespace dhs {
namespace bench {
namespace {

TEST(DhtCoreChecksumTest, MatchesCommittedChecksums) {
  std::map<std::string, uint64_t> checksums;
  for (const CoreResult& r : RunCoreOps(1024)) {
    checksums[r.op] = r.checksum;
  }
  EXPECT_EQ(checksums.at("lookup"), 1189866711330182394ull);
  EXPECT_EQ(checksums.at("range_count"), 2561079ull);
  EXPECT_EQ(checksums.at("advance_clock"), 1200200ull);
  EXPECT_EQ(checksums.at("store_put"), 200000ull);
  EXPECT_EQ(checksums.at("store_get"), 6438338793705451430ull);
}

}  // namespace
}  // namespace bench
}  // namespace dhs
