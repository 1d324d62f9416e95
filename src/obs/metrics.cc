#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"

namespace dhs {
namespace {

std::string RenderDouble(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void WriteEscaped(std::ostream& os, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      bucket_counts_(upper_bounds_.size() + 1, 0) {
  for (size_t i = 1; i < upper_bounds_.size(); ++i) {
    CHECK_LT(upper_bounds_[i - 1], upper_bounds_[i])
        << "histogram bounds must be strictly increasing";
  }
}

void Histogram::Observe(double value) {
  const auto it =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value);
  bucket_counts_[static_cast<size_t>(it - upper_bounds_.begin())] += 1;
  count_ += 1;
  sum_ += value;
}

std::string MetricsRegistry::MakeKey(std::string_view name,
                                     const MetricLabels& labels) {
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key(name);
  if (!sorted.empty()) {
    key += '{';
    for (size_t i = 0; i < sorted.size(); ++i) {
      if (i > 0) key += ',';
      key += sorted[i].first;
      key += '=';
      key += sorted[i].second;
    }
    key += '}';
  }
  return key;
}

MetricsRegistry::Series* MetricsRegistry::Intern(
    std::string_view name, const MetricLabels& labels, Kind kind,
    std::vector<double> upper_bounds) {
  std::string key = MakeKey(name, labels);
  auto it = series_.find(key);
  if (it == series_.end()) {
    Series series;
    series.kind = kind;
    if (kind == Kind::kHistogram) {
      series.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
    }
    it = series_.emplace(std::move(key), std::move(series)).first;
  } else {
    CHECK(it->second.kind == kind)
        << "metric series " << it->first
        << " already interned as a different instrument type";
  }
  return &it->second;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     const MetricLabels& labels) {
  return &Intern(name, labels, Kind::kCounter, {})->counter;
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> upper_bounds,
                                         const MetricLabels& labels) {
  return Intern(name, labels, Kind::kHistogram, std::move(upper_bounds))
      ->histogram.get();
}

void MetricsRegistry::WriteJson(std::ostream& os) const {
  os << "{";
  bool first = true;
  for (const auto& [key, series] : series_) {
    if (!first) os << ",";
    first = false;
    os << "\n  \"";
    WriteEscaped(os, key);
    os << "\":";
    switch (series.kind) {
      case Kind::kCounter:
        os << "{\"type\":\"counter\",\"value\":" << series.counter.value()
           << "}";
        break;
      case Kind::kHistogram: {
        const Histogram& h = *series.histogram;
        os << "{\"type\":\"histogram\",\"count\":" << h.count()
           << ",\"sum\":" << RenderDouble(h.sum()) << ",\"bounds\":[";
        for (size_t i = 0; i < h.upper_bounds().size(); ++i) {
          if (i > 0) os << ",";
          os << RenderDouble(h.upper_bounds()[i]);
        }
        os << "],\"buckets\":[";
        for (size_t i = 0; i < h.bucket_counts().size(); ++i) {
          if (i > 0) os << ",";
          os << h.bucket_counts()[i];
        }
        os << "]}";
        break;
      }
    }
  }
  os << "\n}\n";
}

}  // namespace dhs
