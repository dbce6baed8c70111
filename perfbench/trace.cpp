#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

namespace perfbench {

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

int Tracer::add(std::string name, double start, double end, int parent,
                int request) {
  const int id = reserve();
  finish(id, std::move(name), start, end, parent, request);
  return id;
}

int Tracer::reserve() {
  std::lock_guard lk(mu_);
  return next_id_++;
}

void Tracer::finish(int id, std::string name, double start, double end,
                    int parent, int request) {
  const std::size_t tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard lk(mu_);
  spans_.push_back(
      Span{std::move(name), start, end, id, parent, request, tid});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lk(mu_);
  return spans_;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "[\n";
  char buf[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                  "\"parent\":%d,\"request\":%d}}%s\n",
                  s.name.c_str(), s.tid % 100000, s.start * 1e6,
                  s.duration() * 1e6, s.id, s.parent, s.request,
                  i + 1 < all.size() ? "," : "");
    out << buf;
  }
  out << "]\n";
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, int parent,
                       int request)
    : tracer_(tracer),
      name_(std::move(name)),
      parent_(parent),
      request_(request),
      start_(now_s()) {
  if (tracer_ != nullptr) id_ = tracer_->reserve();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr)
    tracer_->finish(id_, std::move(name_), start_, now_s(), parent_, request_);
}

double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = 0.0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (open && s <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = s;
    cur_end = e;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

double self_time(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<double, double>> iv;
  iv.reserve(children.size());
  for (const Span& c : children)
    iv.emplace_back(std::max(c.start, parent.start),
                    std::min(c.end, parent.end));
  return parent.duration() - union_length(std::move(iv));
}

}  // namespace perfbench
