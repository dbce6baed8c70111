// salign_perfbench: the benchmark's own driver binary. run.py calls it in
// separate processes:
//   gen        write a run's inputs (untimed, before the measured process)
//   run        the measured process; prints one result line
//   calibrate  time a fixed CPU loop (host context, never a metric)
//   selftest   check the trace arithmetic, the percentile guard and the
//              workload generators
//   metrics    list the metric names and units of both modes

#include <cstdio>
#include <cstring>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "trace.hpp"
#include "workload/rose.hpp"

namespace pb = perfbench;

namespace {

std::string arg(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 2; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  if (fallback == nullptr)
    throw std::invalid_argument(std::string("missing ") + name);
  return fallback;
}

void expect(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("selftest failed: ") + what);
}

bool throws(double (*fn)(std::vector<double>, double), std::vector<double> v,
            double q) {
  try {
    (void)fn(std::move(v), q);
  } catch (const std::runtime_error&) {
    return true;
  }
  return false;
}

bool near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

void selftest() {
  // Self time subtracts the union of concurrent children, not their sum:
  // four overlapping bucket spans of 0.2 s inside a 0.21 s stage leave
  // 0.01 s of self time, where summing them would give -0.59 s.
  const pb::Span stage{"core.align", 0.0, 0.21, 0, -1, -1, 0};
  std::vector<pb::Span> buckets;
  for (int r = 0; r < 4; ++r)
    buckets.push_back(pb::Span{"msa.align", 0.005, 0.205, r + 1, 0, -1, 0});
  expect(near(pb::self_time(stage, buckets), 0.01), "concurrent children");
  expect(near(pb::union_length({{0, 2}, {1, 3}, {5, 6}}), 4.0), "union");
  expect(near(pb::union_length({{5, 6}, {0, 1}, {0.5, 0.75}}), 2.0), "nested");
  const pb::Span parent{"p", 1.0, 10.0, 0, -1, -1, 0};
  expect(near(pb::self_time(parent, {{"c", 0.0, 2.0, 1, 0, -1, 0},
                                     {"c", 9.0, 12.0, 2, 0, -1, 0}}),
              7.0),
         "children clipped to the parent");
  expect(near(pb::self_time(parent, {}), 9.0), "no children");

  // Ten-beyond guard.
  std::vector<double> v100(100);
  for (std::size_t i = 0; i < v100.size(); ++i) v100[i] = static_cast<double>(i);
  expect(pb::guarded_percentile(v100, 0.9) == 89.0, "p90 of 100");
  expect(pb::guarded_percentile(v100, 0.5) == 49.0, "p50 of 100");
  expect(throws(pb::guarded_percentile, std::vector<double>(99, 1.0), 0.9),
         "p90 of 99 refused");
  expect(throws(pb::guarded_percentile, std::vector<double>(19, 1.0), 0.5),
         "p50 of 19 refused");
  expect(!throws(pb::guarded_percentile, std::vector<double>(20, 1.0), 0.5),
         "p50 of 20 allowed");

  // Job plan: the sizes of all sends form one multiset on every seed,
  // re-sends of inputs already sent, ordered schedule.
  const auto sent_sizes = [](const pb::JobPlan& p) {
    std::multiset<std::size_t> m;
    for (const pb::Submission& s : p.sends) m.insert(p.sizes[s.input]);
    return m;
  };
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const pb::JobPlan a = pb::job_plan(seed);
    expect(a.sends.size() == pb::kJobs, "job count");
    expect(sent_sizes(a) == sent_sizes(pb::job_plan(seed + 1)),
           "sent size multiset independent of the seed");
    std::size_t resends = 0;
    std::multiset<std::size_t> sent;
    double last_due = -1.0;
    for (const pb::Submission& s : a.sends) {
      expect(s.due > last_due, "schedule ordered");
      last_due = s.due;
      if (s.resend) {
        ++resends;
        expect(sent.count(s.input) == 1, "re-send of an input sent once before");
      }
      sent.insert(s.input);
    }
    expect(resends == pb::kJobs / 3, "a third are re-sends");
  }

  // The batch family is `salign generate --kind rose` plus its reference.
  const auto fam = pb::rose_family(30, 80, 7, "rose_");
  const auto rose = salign::workload::rose_sequences(
      {.num_sequences = 30, .average_length = 80, .relatedness = 800.0, .seed = 7});
  expect(fam.sequences.size() == rose.size(), "family size");
  for (std::size_t i = 0; i < rose.size(); ++i)
    expect(fam.sequences[i].text() == rose[i].text() &&
               fam.sequences[i].id() == rose[i].id(),
           "family equals rose_sequences");
  expect(fam.reference.num_rows() == 30, "reference recorded");
  expect(pb::family_seed(7, 0) == 7 && pb::family_seed(7, 1) != 7 &&
             pb::family_seed(7, 1) != pb::family_seed(7, 2),
         "family 0 is the seed's own family");

  for (const pb::Workload& w : pb::kWorkloads)
    expect(w.families >= pb::kScoredFamilies, "scored families aligned");

  std::set<std::string> names;
  for (const auto& m : pb::kEndToEnd) expect(names.insert(m.name).second, "unique");
  for (const auto& m : pb::kPerLayer) expect(names.insert(m.name).second, "unique");
  std::printf("selftest ok\n");
}

double calibrate() {
  const double t0 = pb::now_s();
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 100'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double s = pb::now_s() - t0;
  if (x == 0) std::printf("unreachable\n");
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  (void)pb::now_s();  // process-start epoch for setup_s
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: salign_perfbench gen|run|calibrate|selftest|metrics\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "selftest") {
      selftest();
      return 0;
    }
    if (cmd == "calibrate") {
      std::printf("%.6f\n", calibrate());
      return 0;
    }
    if (cmd == "metrics") {
      for (const auto& m : pb::kEndToEnd) std::printf("end_to_end %s %s\n", m.name, m.unit);
      for (const auto& m : pb::kPerLayer) std::printf("per_layer %s %s\n", m.name, m.unit);
      return 0;
    }
    const pb::Workload& w = pb::find_workload(arg(argc, argv, "--workload", nullptr));
    const auto seed = std::stoull(arg(argc, argv, "--seed", nullptr));
    const pb::InputFiles inputs{arg(argc, argv, "--inputs", nullptr)};
    if (cmd == "gen") {
      pb::generate_inputs(w, seed, inputs);
      return 0;
    }
    if (cmd == "run") {
      pb::RunArgs a;
      a.workload = &w;
      a.seed = seed;
      a.trace = arg(argc, argv, "--trace", "0") == "1";
      a.inputs = inputs;
      a.work = arg(argc, argv, "--work", nullptr);
      a.trace_out = arg(argc, argv, "--trace-out", "trace.json");
      pb::Report rep;
      pb::run_batch(a, rep);
      rep.emit(std::cout, a.trace);
      return 0;
    }
    std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "salign_perfbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
