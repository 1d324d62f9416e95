#include "dhs/metrics.h"

#include "common/random.h"
#include "hashing/md4.h"

namespace dhs {

uint64_t MetricFromName(std::string_view name) {
  return Md4::DigestToU64(Md4::Hash(name));
}

uint64_t SubMetric(uint64_t base_metric, uint64_t index) {
  return SplitMix64(base_metric * 0x9e3779b97f4a7c15ULL + index);
}

}  // namespace dhs
