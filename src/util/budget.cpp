#include "util/budget.hpp"

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

}  // namespace salign::util
