#include "core/pipeline_stats.hpp"

#include <algorithm>
#include <sstream>

#include "align/engine/engine.hpp"
#include "util/table.hpp"

namespace salign::core {

namespace {

double max_of(const std::vector<double>& v) {
  double m = 0.0;
  for (double s : v) m = std::max(m, s);
  return m;
}

}  // namespace

double AlignerPhase::max_wall_seconds() const {
  return max_of(rank_wall_seconds);
}

double StageStats::max_seconds() const { return max_of(rank_seconds); }

double StageStats::max_wall_seconds() const {
  return max_of(rank_wall_seconds);
}

const char* pattern_name(CommPattern pattern) {
  switch (pattern) {
    case CommPattern::Gather: return "gather";
    case CommPattern::Broadcast: return "broadcast";
    case CommPattern::AllGather: return "allgather";
    case CommPattern::AllToAll: return "alltoall";
  }
  return "?";
}

double CommLeg::seconds(const par::ClusterCostModel& model, int p) const {
  switch (pattern) {
    case CommPattern::Gather: return model.gather(max_bytes_per_rank, p);
    case CommPattern::Broadcast: return model.broadcast(max_bytes_per_rank, p);
    case CommPattern::AllGather:
      // Every rank broadcasts its contribution: p concurrent flat trees,
      // charged as the slowest rank's outbound serialization.
      return model.broadcast(max_bytes_per_rank, p);
    case CommPattern::AllToAll: return model.all_to_all(max_bytes_per_rank, p);
  }
  return 0.0;
}

std::uint64_t StageStats::total_bytes() const {
  std::uint64_t t = 0;
  for (const CommLeg& leg : legs) t += leg.total_bytes;
  return t;
}

double StageStats::comm_seconds(const par::ClusterCostModel& model,
                                int p) const {
  double t = 0.0;
  for (const CommLeg& leg : legs) t += leg.seconds(model, p);
  return t;
}

std::uint64_t PipelineStats::total_bytes() const {
  std::uint64_t t = 0;
  for (const auto& s : stages) t += s.total_bytes();
  return t;
}

std::uint64_t PipelineStats::resumed_stages() const {
  std::uint64_t n = 0;
  for (const auto& s : stages) n += s.resumed ? 1 : 0;
  return n;
}

double PipelineStats::modeled_seconds(const par::ClusterCostModel& model) const {
  double t = 0.0;
  for (const auto& s : stages)
    t += s.max_seconds() + s.comm_seconds(model, num_procs);
  return t;
}

double PipelineStats::load_factor() const {
  if (bucket_sizes.empty() || num_sequences == 0 || num_procs == 0) return 0.0;
  const std::size_t max_bucket =
      *std::max_element(bucket_sizes.begin(), bucket_sizes.end());
  const double share = static_cast<double>(num_sequences) /
                       static_cast<double>(num_procs);
  return share > 0.0 ? static_cast<double>(max_bucket) / share : 0.0;
}

std::string PipelineStats::summary() const {
  const par::ClusterCostModel model;
  util::Table table({"stage", "step", "source", "artifact B", "stage s",
                     "max rank s", "max wall s", "legs (total/max B)",
                     "comm s (model)"});
  for (const auto& s : stages) {
    std::string legs;
    for (const CommLeg& leg : s.legs) {
      if (!legs.empty()) legs += ' ';
      legs += std::string(pattern_name(leg.pattern)) + ' ' +
              std::to_string(leg.total_bytes) + '/' +
              std::to_string(leg.max_bytes_per_rank);
    }
    table.add_row({s.name,
                   s.paper_step > 0 ? std::to_string(s.paper_step) : "-",
                   s.resumed ? "resumed" : "computed",
                   std::to_string(s.artifact_bytes),
                   util::fmt("%.4f", s.seconds),
                   util::fmt("%.4f", s.max_seconds()),
                   util::fmt("%.4f", s.max_wall_seconds()),
                   legs.empty() ? "-" : legs,
                   util::fmt("%.6f", s.comm_seconds(model, num_procs))});
    for (const AlignerPhase& ph : s.phases) {
      table.add_row({"  " + ph.name, "", std::to_string(ph.cache_hits) + '/' +
                     std::to_string(ph.runs) + " cached", "", "", "",
                     util::fmt("%.4f", ph.max_wall_seconds()), "", ""});
    }
    if (s.merges.total > 0)
      table.add_row({"  lent merges", "",
                     std::to_string(s.merges.lent) + '/' +
                         std::to_string(s.merges.total) + " merges",
                     "", "", "", "", "", ""});
  }
  std::ostringstream os;
  os << "Sample-Align-D pipeline: N=" << num_sequences << " p=" << num_procs
     << " threads/rank=" << threads << '\n'
     << table.to_string() << resumed_stages() << " of " << stages.size()
     << " stages resumed from checkpoint\n"
     << "buckets:";
  for (std::size_t b : bucket_sizes) os << ' ' << b;
  os << "  (load factor " << util::fmt("%.2f", load_factor()) << ", bound 2.0)"
     << '\n'
     << "wall " << util::fmt("%.3f", wall_seconds) << " s; modeled cluster "
     << util::fmt("%.3f", modeled_seconds(model)) << " s; total "
     << total_bytes() << " bytes on the wire\n";
  if (!cache_note.empty()) os << cache_note << '\n';
  for (const std::string& note : quarantine_notes)
    os << "checkpoint: " << note << '\n';
  os << "alignment engine: " << align::engine::kernel_name() << " ("
     << align::engine::kernel_lanes() << " lanes)\n";
  return os.str();
}

}  // namespace salign::core
