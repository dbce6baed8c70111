#include "workload/sabmark.hpp"

#include <stdexcept>
#include <utility>

#include "msa/induced_identity.hpp"
#include "util/rng.hpp"
#include "workload/evolver.hpp"

namespace salign::workload {

std::string to_string(SabmarkTier tier) {
  switch (tier) {
    case SabmarkTier::Superfamily: return "superfamily";
    case SabmarkTier::Twilight: return "twilight";
  }
  return "unknown";
}

double mean_pairwise_identity(const msa::Alignment& reference) {
  const msa::IdentityPlanes sliced(reference);
  const std::size_t rows = sliced.num_rows();
  if (rows < 2) return 1.0;
  double total = 0.0;
  for (std::size_t a = 0; a < rows; ++a)
    for (std::size_t b = a + 1; b < rows; ++b)
      total += sliced.count(a, b).identity();
  return total / static_cast<double>(rows * (rows - 1) / 2);
}

std::vector<SabmarkGroup> sabmark_groups(const SabmarkParams& params) {
  if (params.groups_per_tier == 0)
    throw std::invalid_argument("sabmark_groups: need at least one group");
  if (params.min_sequences < 2 || params.max_sequences < params.min_sequences)
    throw std::invalid_argument("sabmark_groups: bad sequence-count range");
  if (params.min_length == 0 || params.max_length < params.min_length)
    throw std::invalid_argument("sabmark_groups: bad length range");

  util::Rng rng(params.seed);
  std::vector<SabmarkGroup> groups;
  groups.reserve(2 * params.groups_per_tier);

  std::size_t group_id = 0;
  for (const SabmarkTier tier :
       {SabmarkTier::Superfamily, SabmarkTier::Twilight}) {
    const double lo = tier == SabmarkTier::Superfamily
                          ? params.superfamily_min
                          : params.twilight_min;
    const double hi = tier == SabmarkTier::Superfamily
                          ? params.superfamily_max
                          : params.twilight_max;
    for (std::size_t i = 0; i < params.groups_per_tier; ++i) {
      const double t = params.groups_per_tier <= 1
                           ? 0.0
                           : static_cast<double>(i) /
                                 static_cast<double>(params.groups_per_tier -
                                                     1);
      const double divergence = lo + (hi - lo) * t;

      EvolveParams ep;
      ep.num_sequences =
          params.min_sequences +
          rng.below(params.max_sequences - params.min_sequences + 1);
      ep.root_length =
          params.min_length +
          rng.below(params.max_length - params.min_length + 1);
      ep.mean_branch_distance = divergence;
      // Structure-based references pair distant folds whose loops shift
      // freely: a slightly elevated indel rate reproduces that.
      ep.indel_rate = 0.06;
      ep.record_reference = true;
      ep.seed = rng.next();
      ep.id_prefix = "sb" + std::to_string(group_id) + "_";

      Family fam = evolve_family(ep);
      SabmarkGroup g;
      g.tier = tier;
      g.sequences = std::move(fam.sequences);
      g.reference = std::move(fam.reference);
      g.divergence = divergence;
      g.name = to_string(tier) + " #" + std::to_string(i);
      groups.push_back(std::move(g));
      ++group_id;
    }
  }
  return groups;
}

}  // namespace salign::workload
