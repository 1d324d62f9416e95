// Shared pieces of the benchmark driver: arguments, host calibration and
// the result printer. driver.cc runs the untraced workload; traced.cc
// runs the traced passes.

#ifndef DHS_PERFBENCH_DRIVER_H_
#define DHS_PERFBENCH_DRIVER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runner.h"
#include "workload.h"

namespace dhs::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string spans_out;
};

/// Aggregate CPU time from /proc/stat (jiffies).
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();

/// Measured parallelism from a fixed-work burn at 1 and at nproc
/// threads, so a run slowed by the host can be told from one slowed by
/// the code; steal is read again when the result is printed.
struct Calibration {
  int nproc = 1;
  double burn_1t_s = 0.0;
  double parallelism = 1.0;
  CpuTimes start;
};
Calibration Calibrate();

/// Collects named metrics and info fields; prints one line per metric,
/// then the result object as the last line.
class JsonOut {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, const std::string& json_value);
  void Print(uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
};

std::string Num(double v);
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
double Median(std::vector<double> v);
std::string WorldSizes(World& world);
void AddCalibration(const Calibration& c, JsonOut* out);

int RunTraced(const Spec& spec, const Args& args);

}  // namespace dhs::perfbench

#endif  // DHS_PERFBENCH_DRIVER_H_
