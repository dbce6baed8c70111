#include "workload/rose.hpp"

#include "workload/evolver.hpp"

namespace salign::workload {

std::vector<bio::Sequence> rose_sequences(const RoseParams& params) {
  EvolveParams ep;
  ep.num_sequences = params.num_sequences;
  ep.root_length = params.average_length;
  // Calibration: relatedness 800 (the paper's setting) lands the k-mer rank
  // distribution in the paper's regime — mean ~0.9, max ~1.45 (Table 1 /
  // Fig. 3).
  ep.mean_branch_distance = params.relatedness / 4500.0;
  ep.indel_rate = 0.02;
  ep.record_reference = false;
  ep.seed = params.seed;
  ep.id_prefix = "rose_";
  return evolve_family(ep).sequences;
}

}  // namespace salign::workload
