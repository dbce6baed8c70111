#include "msa/phase_log.hpp"

namespace salign::msa {

namespace {
thread_local PhaseLog* t_current = nullptr;
}  // namespace

PhaseLog::PhaseLog() : previous_(t_current) { t_current = this; }

PhaseLog::~PhaseLog() { t_current = previous_; }

PhaseLog* PhaseLog::current() { return t_current; }

}  // namespace salign::msa
