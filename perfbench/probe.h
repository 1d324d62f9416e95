// A fixed reference workload that owes nothing to the program, timed
// between chunks of the measured work so the end-to-end timings can be
// restated at one host speed.
//
// The 4-vCPU virtual machine the benchmark was built on alternates
// between two speed states, for seconds to minutes at a time: in the
// slow one, mixed_loopback_1k runs about 1.7x and mixed_sim_1k about
// 1.4x slower in CPU time. A latency-bound ALU loop barely notices;
// AF_UNIX round trips and small-allocation churn slow with the program
// (window correlation 0.9 and above), so the probe is made of those.

#ifndef DHS_PERFBENCH_PROBE_H_
#define DHS_PERFBENCH_PROBE_H_

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>

#include "common/check.h"
#include "spans.h"
#include "workload.h"

namespace dhs::perfbench {

/// The probe's CPU time on that host in its fast state.
inline constexpr double kReferenceProbeNs = 3.4e6;

/// The program slows less than the probe between the two states: over
/// two sets of ten runs of every workload, restating by the probe's
/// slowdown to this power left the least spread between runs.
inline constexpr double kProbeExponent = 0.85;

/// The factor that restates CPU time measured while the probe took
/// `probe_ns` at the reference speed.
inline double RestateFactor(double probe_ns) {
  return std::pow(kReferenceProbeNs / probe_ns, kProbeExponent);
}

class HostProbe {
 public:
  HostProbe() {
    CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) == 0)
        << "perfbench: socketpair failed";
  }
  ~HostProbe() {
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// CPU ns of one fixed round: 1,000 64-byte round trips over the
  /// socket pair, then 20,000 insertions into a map of 48-byte strings
  /// kept at 512 entries.
  int64_t RunNs() {
    const int64_t t0 = CpuNowNs();
    char buf[64] = {};
    uint64_t sum = 0;
    for (int i = 0; i < 1000; ++i) {
      buf[0] = static_cast<char>(i);
      CHECK(Move(fds_[0], fds_[1], buf) && Move(fds_[1], fds_[0], buf))
          << "perfbench: probe socket round trip failed";
      sum += static_cast<uint8_t>(buf[0]);
    }
    std::map<uint64_t, std::string> churn;
    for (uint64_t i = 0; i < 20000; ++i) {
      churn.emplace(Mix64(i), std::string(48, static_cast<char>(i)));
      if (churn.size() > 512) churn.erase(churn.begin());
    }
    sink_ = sum + churn.size();
    return CpuNowNs() - t0;
  }

 private:
  /// Writes buf to one end and reads it back from the other.
  static bool Move(int to, int from, char (&buf)[64]) {
    return ::write(to, buf, sizeof(buf)) == sizeof(buf) &&
           ::read(from, buf, sizeof(buf)) == sizeof(buf);
  }

  int fds_[2] = {-1, -1};
  volatile uint64_t sink_ = 0;
};

}  // namespace dhs::perfbench

#endif  // DHS_PERFBENCH_PROBE_H_
