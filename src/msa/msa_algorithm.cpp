#include "msa/msa_algorithm.hpp"

#include <stdexcept>

namespace salign::msa {

void check_consistency_cap(std::string_view aligner, std::size_t n) {
  if (n <= kMaxConsistencySequences) return;
  std::string msg(aligner);
  msg += ": ";
  msg += std::to_string(n);
  msg += " sequences exceed the ";
  msg += std::to_string(kMaxConsistencySequences);
  msg +=
      "-sequence cap of the consistency aligners (their libraries grow "
      "with the square of the count); split the input into smaller buckets "
      "with a larger --procs, or choose another --aligner";
  throw std::invalid_argument(msg);
}

}  // namespace salign::msa
