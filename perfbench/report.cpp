#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) throw std::runtime_error("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double guarded_percentile(std::vector<double> v, double q) {
  const std::size_t n = v.size();
  if (n == 0 || q <= 0.0 || q >= 1.0)
    throw std::runtime_error("percentile: bad input");
  // Nearest rank: the smallest value with at least q*n samples at or below.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  const std::size_t beyond = n - rank;
  if (beyond < 10) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "refusing p%.0f over %zu samples: only %zu lie beyond it",
                  q * 100.0, n, beyond);
    throw std::runtime_error(buf);
  }
  std::sort(v.begin(), v.end());
  return v[rank - 1];
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::string fasta_text(const salign::msa::Alignment& aln) {
  std::ostringstream os;
  salign::msa::write_aligned_fasta(os, aln);
  return os.str();
}

std::string check_alignment(const salign::msa::Alignment& aln,
                            std::span<const salign::bio::Sequence> seqs) {
  try {
    aln.validate();
  } catch (const std::exception& e) {
    return std::string("validate: ") + e.what();
  }
  if (aln.num_rows() != seqs.size())
    return "row count " + std::to_string(aln.num_rows()) + " != input " +
           std::to_string(seqs.size());
  for (std::size_t r = 0; r < seqs.size(); ++r) {
    const salign::bio::Sequence d = aln.degapped(r);
    if (d.id() != seqs[r].id() ||
        !std::ranges::equal(d.codes(), seqs[r].codes()))
      return "row " + std::to_string(r) + " (" + aln.row(r).id +
             ") does not degap to input " + seqs[r].id();
  }
  return "";
}

void Report::set(const std::string& name, double value, std::size_t samples) {
  values_[name] = Value{value, samples};
}

void Report::fail(const std::string& why) {
  ++failed_;
  if (errors_.size() < 8) errors_.push_back(why);
}

void Report::emit(std::ostream& out, bool trace) const {
  const std::span<const MetricDef> defs =
      trace ? std::span<const MetricDef>(kPerLayer)
            : std::span<const MetricDef>(kEndToEnd);
  if (values_.size() != defs.size())
    throw std::logic_error("metric set does not match the table");
  std::string line = "{\"correct\":";
  line += failed_ == 0 ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(attempted_);
  line += ",\"failed\":" + std::to_string(failed_);
  line += ",\"metrics\":{";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values_.find(defs[i].name);
    if (it == values_.end())
      throw std::logic_error(std::string("metric not set: ") + defs[i].name);
    if (i > 0) line += ",";
    line += json_string(defs[i].name) + ":{\"value\":" +
            json_number(it->second.value) + ",\"unit\":" +
            json_string(defs[i].unit) +
            ",\"samples\":" + std::to_string(it->second.samples) + "}";
  }
  line += "},\"errors\":[";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    if (i > 0) line += ",";
    line += json_string(errors_[i]);
  }
  line += "]}";
  out << line << "\n";
}

}  // namespace perfbench
