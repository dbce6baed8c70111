#include "util/budget.hpp"

#include <algorithm>

namespace salign::util {

namespace {
thread_local const Budget* t_current_budget = nullptr;
}  // namespace

const Budget* current_budget() { return t_current_budget; }

ScopedBudget::ScopedBudget(const Budget* budget)
    : previous_(t_current_budget) {
  t_current_budget = budget;
}

ScopedBudget::~ScopedBudget() { t_current_budget = previous_; }

void poll_budget(std::string_view where) {
  if (const Budget* b = current_budget()) b->check(where);
}

std::uint64_t clamp_trace_cells(std::uint64_t cells,
                                std::uint64_t max_memory_bytes,
                                std::uint64_t bytes_per_cell,
                                double reserve_fraction) {
  if (max_memory_bytes == 0 || bytes_per_cell == 0) return cells;
  const auto budget_bytes = static_cast<std::uint64_t>(
      static_cast<double>(max_memory_bytes) * reserve_fraction);
  // Floor of 64k cells: below that the block-recompute overhead dominates
  // and the limit was unsatisfiable anyway — better slow than broken.
  constexpr std::uint64_t kFloor = 64 * 1024;
  const std::uint64_t max_cells =
      std::max<std::uint64_t>(budget_bytes / bytes_per_cell, kFloor);
  return std::min(cells, max_cells);
}

}  // namespace salign::util
