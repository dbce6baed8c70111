// salign_lint — repo-specific invariant checker (docs/lint_rules.md).
//
// Enforces cross-cutting invariants that no generic static analyzer knows
// about, because they span code, docs, and tests:
//
//   fault-site-registry  every fault-injection site string wired in src/
//                        appears in the fault_injection.hpp site list, the
//                        README fault-site list, and at least one test or
//                        smoke script (tests/ or cmake/)
//   exit-code-taxonomy   no nonzero integer-literal returns in src/cli/
//                        (error paths must use cli::ExitCode), and no
//                        std::exit/abort anywhere in src/
//   durable-io           no naked std::ofstream / fopen / rename file
//                        writes in src/ outside util/io.cpp — writes go
//                        through util::write_file_durable / retry_io
//   codec-coverage       every write_X/read_X artifact codec pair declared
//                        in core/stage/artifacts.hpp and msa/msa_serialize.hpp
//                        is exercised at least twice in tests/ (round-trip
//                        + malformed corpus), and the serve JSON codecs
//                        (JobSpec/JobRecord from_json) are test-referenced
//   include-hygiene      files using a pinned set of concurrency/vocabulary
//                        types (<mutex>, <atomic>, <thread>, ...) include
//                        the owning header directly, never transitively
//
// Suppression policy (docs/lint_rules.md): a finding on a line carrying
//   // salign-lint: allow(<rule-id>) -- <reason>
// is suppressed; a file containing
//   // salign-lint-file: allow(<rule-id>) -- <reason>
// suppresses the rule for that file. Suppressions without a rule id are
// invalid and themselves reported.
//
// Usage: salign_lint <repo-root>   (exit 0 clean, 1 violations, 2 bad usage)

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Violation {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct SourceFile {
  std::string path;          // repo-relative, forward slashes
  std::string raw;           // file bytes as read
  std::string code;          // comments stripped, string literals kept
  std::string code_no_str;   // comments stripped, string contents blanked
  std::vector<std::string> raw_lines;
  std::set<std::string> file_allows;  // rules allowed file-wide
};

std::string read_whole(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  lines.push_back(cur);
  return lines;
}

/// Strips // and /* */ comments. Keeps newlines (line numbers survive).
/// When `blank_strings` is set, the *contents* of string/char literals are
/// replaced with spaces (quotes kept) so token scans never match inside
/// literals; otherwise literals pass through for site-string extraction.
std::string strip_comments(const std::string& in, bool blank_strings) {
  std::string out;
  out.reserve(in.size());
  enum class St { kCode, kLine, kBlock, kStr, kChar };
  St st = St::kCode;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLine;
          ++i;
        } else if (c == '/' && next == '*') {
          st = St::kBlock;
          ++i;
        } else if (c == '"') {
          st = St::kStr;
          out.push_back(c);
        } else if (c == '\'') {
          st = St::kChar;
          out.push_back(c);
        } else {
          out.push_back(c);
        }
        break;
      case St::kLine:
        if (c == '\n') {
          st = St::kCode;
          out.push_back(c);
        }
        break;
      case St::kBlock:
        if (c == '*' && next == '/') {
          st = St::kCode;
          ++i;
        } else if (c == '\n') {
          out.push_back(c);
        }
        break;
      case St::kStr:
        if (c == '\\' && next != '\0') {
          out.append(blank_strings ? "  " : in.substr(i, 2));
          ++i;
        } else if (c == '"') {
          st = St::kCode;
          out.push_back(c);
        } else {
          out.push_back(blank_strings ? (c == '\n' ? '\n' : ' ') : c);
        }
        break;
      case St::kChar:
        if (c == '\\' && next != '\0') {
          out.append(blank_strings ? "  " : in.substr(i, 2));
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
          out.push_back(c);
        } else {
          out.push_back(blank_strings ? ' ' : c);
        }
        break;
    }
  }
  return out;
}

std::size_t line_of_offset(const std::string& text, std::size_t offset) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + static_cast<long>(
                                                             offset),
                            '\n'));
}

bool ident_boundary_before(const std::string& s, std::size_t pos) {
  if (pos == 0) return true;
  const char c = s[pos - 1];
  return !(std::isalnum(static_cast<unsigned char>(c)) || c == '_');
}

class Linter {
 public:
  explicit Linter(fs::path root) : root_(std::move(root)) {}

  int run() {
    load_tree();
    check_fault_sites();
    check_exit_codes();
    check_durable_io();
    check_codec_coverage();
    check_include_hygiene();
    report();
    return violations_.empty() ? 0 : 1;
  }

 private:
  static constexpr const char* kRuleFaultSite = "fault-site-registry";
  static constexpr const char* kRuleExitCode = "exit-code-taxonomy";
  static constexpr const char* kRuleDurableIo = "durable-io";
  static constexpr const char* kRuleCodec = "codec-coverage";
  static constexpr const char* kRuleInclude = "include-hygiene";

  void load_tree() {
    for (const char* dir : {"src", "tests"}) {
      const fs::path base = root_ / dir;
      if (!fs::exists(base))
        throw std::runtime_error("missing directory " + base.string());
      for (const auto& entry : fs::recursive_directory_iterator(base)) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
        SourceFile f;
        f.path = fs::relative(entry.path(), root_).generic_string();
        f.raw = read_whole(entry.path());
        f.code = strip_comments(f.raw, /*blank_strings=*/false);
        f.code_no_str = strip_comments(f.raw, /*blank_strings=*/true);
        f.raw_lines = split_lines(f.raw);
        static const std::regex file_allow(
            R"(salign-lint-file:\s*allow\(([a-z-]+)\))");
        for (std::sregex_iterator it(f.raw.begin(), f.raw.end(), file_allow),
             end;
             it != end; ++it)
          f.file_allows.insert((*it)[1].str());
        files_.push_back(std::move(f));
      }
    }
    for (const char* aux : {"README.md", "src/util/fault_injection.hpp"}) {
      if (!fs::exists(root_ / aux))
        throw std::runtime_error(std::string("missing ") + aux);
    }
    readme_ = read_whole(root_ / "README.md");
    if (fs::exists(root_ / "cmake"))
      for (const auto& entry : fs::directory_iterator(root_ / "cmake"))
        if (entry.is_regular_file())
          cmake_text_ += read_whole(entry.path());
  }

  const SourceFile* find(const std::string& rel) const {
    for (const auto& f : files_)
      if (f.path == rel) return &f;
    return nullptr;
  }

  bool suppressed(const SourceFile& f, std::size_t line,
                  const char* rule) const {
    if (f.file_allows.count(rule)) return true;
    if (line == 0 || line > f.raw_lines.size()) return false;
    const std::string& text = f.raw_lines[line - 1];
    const std::string marker = "salign-lint: allow(" + std::string(rule) + ")";
    return text.find(marker) != std::string::npos;
  }

  void add(const SourceFile& f, std::size_t line, const char* rule,
           std::string message) {
    if (suppressed(f, line, rule)) return;
    violations_.push_back({f.path, line, rule, std::move(message)});
  }

  // -- fault-site-registry ---------------------------------------------------

  /// Site strings look like "cache.insert" / "serve.journal.write": two or
  /// more lowercase dotted segments.
  static bool is_site_shaped(const std::string& s) {
    static const std::regex grammar(R"([a-z]+(\.[a-z]+)+)");
    return std::regex_match(s, grammar);
  }

  /// Collects string literals inside the parenthesized argument list
  /// starting at `open_paren` (matching-paren scan over `code`, which has
  /// comments stripped but literals intact).
  static std::vector<std::string> literals_in_call(const std::string& code,
                                                   std::size_t open_paren) {
    std::vector<std::string> literals;
    int depth = 0;
    bool in_str = false;
    std::string cur;
    for (std::size_t i = open_paren; i < code.size(); ++i) {
      const char c = code[i];
      if (in_str) {
        if (c == '\\' && i + 1 < code.size()) {
          cur.push_back(code[++i]);
        } else if (c == '"') {
          literals.push_back(cur);
          cur.clear();
          in_str = false;
        } else {
          cur.push_back(c);
        }
        continue;
      }
      if (c == '"') {
        in_str = true;
      } else if (c == '(') {
        ++depth;
      } else if (c == ')') {
        if (--depth == 0) break;
      }
    }
    return literals;
  }

  void check_fault_sites() {
    // Wired sites: first string literal of maybe_fail()/retry_io() calls
    // plus any site-shaped literal in write_file_durable()/read_file()
    // argument lists (covers explicit site args and the declared defaults).
    std::map<std::string, std::pair<std::string, std::size_t>> sites;
    for (const auto& f : files_) {
      if (f.path.rfind("src/", 0) != 0) continue;
      for (const char* fn : {"maybe_fail", "retry_io", "write_file_durable",
                             "read_file"}) {
        const std::string needle = fn;
        std::size_t pos = 0;
        while ((pos = f.code.find(needle, pos)) != std::string::npos) {
          const std::size_t at = pos;
          pos += needle.size();
          if (!ident_boundary_before(f.code, at)) continue;
          std::size_t paren = pos;
          while (paren < f.code.size() &&
                 std::isspace(static_cast<unsigned char>(f.code[paren])))
            ++paren;
          if (paren >= f.code.size() || f.code[paren] != '(') continue;
          for (const std::string& lit : literals_in_call(f.code, paren)) {
            if (!is_site_shaped(lit)) continue;
            sites.emplace(lit,
                          std::make_pair(f.path, line_of_offset(f.code, at)));
            break;  // the site is the first site-shaped literal of the call
          }
        }
      }
    }

    const SourceFile* registry = find("src/util/fault_injection.hpp");
    const std::string registry_text =
        registry != nullptr ? registry->raw : std::string();
    for (const auto& [site, where] : sites) {
      const SourceFile* f = find(where.first);
      if (f == nullptr) continue;
      if (registry_text.find(site) == std::string::npos)
        add(*f, where.second, kRuleFaultSite,
            "fault site \"" + site +
                "\" is not listed in src/util/fault_injection.hpp");
      if (readme_.find(site) == std::string::npos)
        add(*f, where.second, kRuleFaultSite,
            "fault site \"" + site + "\" is not documented in README.md");
      bool tested = cmake_text_.find(site) != std::string::npos;
      for (const auto& t : files_) {
        if (tested) break;
        if (t.path.rfind("tests/", 0) == 0 &&
            t.raw.find(site) != std::string::npos)
          tested = true;
      }
      if (!tested)
        add(*f, where.second, kRuleFaultSite,
            "fault site \"" + site +
                "\" is not exercised by any tests/ suite or cmake/ smoke "
                "script");
    }
  }

  // -- exit-code-taxonomy ----------------------------------------------------

  void check_exit_codes() {
    static const std::regex nonzero_return(R"(\breturn\s+([1-9][0-9]*)\s*;)");
    // Qualified forms only: a bare `abort(` may be a member function, and
    // this codebase std::-qualifies libc calls everywhere.
    static const std::regex raw_exit(
        R"(std::(exit|abort|_Exit|quick_exit)\s*\()");
    for (const auto& f : files_) {
      if (f.path.rfind("src/", 0) != 0) continue;
      const bool is_cli = f.path.rfind("src/cli/", 0) == 0;
      if (is_cli) {
        for (std::sregex_iterator it(f.code_no_str.begin(),
                                     f.code_no_str.end(), nonzero_return),
             end;
             it != end; ++it)
          add(f,
              line_of_offset(f.code_no_str,
                             static_cast<std::size_t>(it->position())),
              kRuleExitCode,
              "nonzero integer-literal return in src/cli/ — use the "
              "cli::ExitCode taxonomy (kExitRuntime, kExitUsage, ...)");
      }
      for (std::sregex_iterator it(f.code_no_str.begin(), f.code_no_str.end(),
                                   raw_exit),
           end;
           it != end; ++it)
        add(f,
            line_of_offset(f.code_no_str,
                           static_cast<std::size_t>(it->position())),
            kRuleExitCode,
            "std::exit/abort in src/ — propagate an exception so "
            "cli::classify_error maps it into the exit-code taxonomy");
    }
  }

  // -- durable-io ------------------------------------------------------------

  void check_durable_io() {
    static const std::regex naked_write(
        R"((std::ofstream|\bofstream\s*\(|std::fopen|\bfopen\s*\(|(std|fs|::std::filesystem)::rename\s*\())");
    for (const auto& f : files_) {
      if (f.path.rfind("src/", 0) != 0) continue;
      if (f.path == "src/util/io.cpp" || f.path == "src/util/io.hpp")
        continue;  // the durability layer itself
      for (std::sregex_iterator it(f.code_no_str.begin(), f.code_no_str.end(),
                                   naked_write),
           end;
           it != end; ++it)
        add(f,
            line_of_offset(f.code_no_str,
                           static_cast<std::size_t>(it->position())),
            kRuleDurableIo,
            "naked file write/rename (" + it->str() +
                "...) bypasses util::write_file_durable/retry_io — crash "
                "here can tear the file");
    }
  }

  // -- codec-coverage --------------------------------------------------------

  void check_codec_coverage() {
    const auto require_tested = [&](const SourceFile& header,
                                    const std::string& token,
                                    std::size_t line, int min_hits,
                                    const char* why) {
      int hits = 0;
      for (const auto& t : files_) {
        if (t.path.rfind("tests/", 0) != 0) continue;
        std::size_t pos = 0;
        while ((pos = t.raw.find(token, pos)) != std::string::npos) {
          ++hits;
          pos += token.size();
        }
      }
      if (hits < min_hits)
        add(header, line, kRuleCodec,
            "codec '" + token + "' referenced only " + std::to_string(hits) +
                "x in tests/ (need >= " + std::to_string(min_hits) + ": " +
                why + ")");
    };

    static const std::regex decl(R"(\b(read_[a-z_]+)\s*\()");
    for (const char* rel :
         {"src/core/stage/artifacts.hpp", "src/msa/msa_serialize.hpp"}) {
      const SourceFile* header = find(rel);
      if (header == nullptr) continue;
      std::set<std::string> seen;
      for (std::sregex_iterator it(header->code_no_str.begin(),
                                   header->code_no_str.end(), decl),
           end;
           it != end; ++it) {
        const std::string name = (*it)[1].str();
        if (!seen.insert(name).second) continue;
        // Only write/read pairs are codecs.
        if (header->code_no_str.find("write_" + name.substr(5)) ==
            std::string::npos)
          continue;
        require_tested(*header, name,
                       line_of_offset(header->code_no_str,
                                      static_cast<std::size_t>(it->position())),
                       2, "one round-trip + one malformed-corpus reference");
      }
    }

    // Serve JSON codecs: JobSpec/JobRecord must round-trip in tests too.
    if (const SourceFile* journal = find("src/serve/journal.hpp")) {
      if (journal->code_no_str.find("from_json") != std::string::npos) {
        for (const char* type : {"JobSpec", "JobRecord"})
          require_tested(*journal, std::string(type) + "::from_json", 1, 1,
                         "JSON codec round-trip");
      }
    }
  }

  // -- include-hygiene -------------------------------------------------------

  void check_include_hygiene() {
    // The pinned header set: concurrency vocabulary (where a transitive
    // include that silently vanishes turns into a build break or, worse, an
    // ODR/portability surprise) plus the ownership vocabulary.
    static const std::vector<std::pair<std::regex, std::string>> pinned = {
        {std::regex(R"(std::(mutex|lock_guard|unique_lock|scoped_lock)\b)"),
         "mutex"},
        {std::regex(R"(std::atomic\b|std::memory_order)"), "atomic"},
        {std::regex(R"(std::(thread\b|this_thread|jthread))"), "thread"},
        {std::regex(R"(std::condition_variable)"), "condition_variable"},
        {std::regex(R"(std::(shared_ptr|unique_ptr|weak_ptr|make_shared|make_unique)\b)"),
         "memory"},
        {std::regex(R"(std::function\b)"), "functional"},
    };
    for (const auto& f : files_) {
      if (f.path.rfind("src/", 0) != 0) continue;
      for (const auto& [token, header] : pinned) {
        std::smatch m;
        if (!std::regex_search(f.code_no_str, m, token)) continue;
        const std::string direct = "#include <" + header + ">";
        if (f.code_no_str.find(direct) != std::string::npos) continue;
        add(f,
            line_of_offset(f.code_no_str,
                           static_cast<std::size_t>(m.position())),
            kRuleInclude,
            "uses " + m.str() + " without a direct " + direct +
                " (pinned header set — no transitive-include reliance)");
      }
    }
  }

  void report() const {
    for (const auto& v : violations_)
      std::fprintf(stderr, "%s:%zu: [%s] %s\n", v.file.c_str(), v.line,
                   v.rule.c_str(), v.message.c_str());
    if (violations_.empty()) {
      std::fprintf(stdout, "salign-lint: clean (%zu files)\n", files_.size());
    } else {
      std::fprintf(stderr, "salign-lint: %zu violation(s)\n",
                   violations_.size());
    }
  }

  fs::path root_;
  std::vector<SourceFile> files_;
  std::string readme_;
  std::string cmake_text_;
  std::vector<Violation> violations_;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: salign_lint <repo-root>\n");
    return 2;
  }
  try {
    return Linter(fs::path(argv[1])).run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "salign_lint: %s\n", e.what());
    return 2;
  }
}
