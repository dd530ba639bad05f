#include "obs/metrics.h"

#include <fstream>
#include <sstream>

#include "common/error.h"
#include "obs/json.h"

namespace anton::obs {

MetricsRegistry::Entry& MetricsRegistry::lookup(std::string_view name) {
  ANTON_CHECK_MSG(!name.empty(), "metric name must be non-empty");
  const auto it = entries_.find(name);
  if (it != entries_.end()) return it->second;
  return entries_.emplace(std::string(name), Entry{}).first->second;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  Entry& e = lookup(name);
  if (!e.counter) {
    ANTON_CHECK_MSG(!e.gauge && !e.stat && !e.histo,
                    "metric '" << std::string(name)
                               << "' already registered with another kind");
    e.counter = std::make_unique<Counter>();
  }
  return e.counter.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  Entry& e = lookup(name);
  if (!e.gauge) {
    ANTON_CHECK_MSG(!e.counter && !e.stat && !e.histo,
                    "metric '" << std::string(name)
                               << "' already registered with another kind");
    e.gauge = std::make_unique<Gauge>();
  }
  return e.gauge.get();
}

Stat* MetricsRegistry::stat(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  Entry& e = lookup(name);
  if (!e.stat) {
    ANTON_CHECK_MSG(!e.counter && !e.gauge && !e.histo,
                    "metric '" << std::string(name)
                               << "' already registered with another kind");
    e.stat = std::make_unique<Stat>();
  }
  return e.stat.get();
}

Histo* MetricsRegistry::histogram(std::string_view name, double lo, double hi,
                                  int bins) {
  std::lock_guard<std::mutex> lk(mu_);
  Entry& e = lookup(name);
  if (!e.histo) {
    ANTON_CHECK_MSG(!e.counter && !e.gauge && !e.stat,
                    "metric '" << std::string(name)
                               << "' already registered with another kind");
    e.histo = std::make_unique<Histo>(lo, hi, bins);
  }
  return e.histo.get();
}

bool MetricsRegistry::empty() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.empty();
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

std::vector<std::string> MetricsRegistry::names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    (void)entry;
    out.push_back(name);
  }
  return out;
}

namespace {

void write_stat_fields(std::ostream& os, const RunningStat& s) {
  os << "\"count\":" << s.count() << ",\"mean\":" << json_double(s.mean())
     << ",\"stddev\":" << json_double(s.stddev())
     << ",\"min\":" << json_double(s.min())
     << ",\"max\":" << json_double(s.max())
     << ",\"sum\":" << json_double(s.sum());
}

void write_histo_fields(std::ostream& os, const Histogram& h) {
  os << "\"lo\":" << json_double(h.bin_lo(0))
     << ",\"hi\":" << json_double(h.bin_hi(h.bins() - 1))
     << ",\"total\":" << h.total() << ",\"p50\":" << json_double(h.quantile(0.5))
     << ",\"p90\":" << json_double(h.quantile(0.9))
     << ",\"p95\":" << json_double(h.quantile(0.95))
     << ",\"p99\":" << json_double(h.quantile(0.99)) << ",\"counts\":[";
  for (int b = 0; b < h.bins(); ++b) {
    if (b) os << ',';
    os << h.count(b);
  }
  os << ']';
}

}  // namespace

void MetricsRegistry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  os << "{\"schema\":\"anton.metrics.v1\",\"metrics\":{";
  bool first = true;
  for (const auto& [name, e] : entries_) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":{";
    if (e.counter) {
      os << "\"type\":\"counter\",\"value\":" << e.counter->value();
    } else if (e.gauge) {
      os << "\"type\":\"gauge\",\"value\":" << json_double(e.gauge->value());
    } else if (e.stat) {
      os << "\"type\":\"stat\",";
      write_stat_fields(os, e.stat->snapshot());
    } else if (e.histo) {
      os << "\"type\":\"histogram\",";
      write_histo_fields(os, e.histo->snapshot());
    } else {
      os << "\"type\":\"unset\"";
    }
    os << '}';
  }
  os << "}}";
}

std::string MetricsRegistry::json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

void MetricsRegistry::save_json(const std::string& path) const {
  std::ofstream out(path);
  ANTON_CHECK_MSG(out.good(), "cannot open metrics output '" << path << "'");
  write_json(out);
  out << '\n';
}

}  // namespace anton::obs
