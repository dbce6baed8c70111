#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace salign::cli {

/// User-facing command-line error (unknown flag, missing value, bad
/// number). The dispatcher prints `what()` plus the command's usage text
/// and exits with status 2, keeping library exceptions (bad input files
/// etc.) distinct from usage mistakes.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Small declarative parser for `salign <command>` argument lists.
///
/// Supports GNU-style long options only (`--name value` or `--name=value`),
/// boolean flags, and ordered positionals. Every option carries help text
/// and a default so `usage()` is always complete; commands declare their
/// interface once and both --help and error paths reuse it.
class ArgParser {
 public:
  ArgParser(std::string command, std::string summary);

  /// Declares a boolean flag (`--name`). Returns *this for chaining.
  ArgParser& flag(std::string name, std::string help);

  /// Declares a value option (`--name <value_name>`, default shown in
  /// usage).
  ArgParser& option(std::string name, std::string value_name,
                    std::string default_value, std::string help);

  /// Declares the next positional argument.
  ArgParser& positional(std::string name, std::string help,
                        bool required = true);

  /// Parses the argument vector (already stripped of program and command
  /// tokens). Throws UsageError on any problem. `--help` sets help_requested
  /// and stops parsing.
  void parse(std::span<const std::string> args);

  [[nodiscard]] bool help_requested() const { return help_requested_; }

  [[nodiscard]] bool get_flag(std::string_view name) const;
  [[nodiscard]] const std::string& get(std::string_view name) const;
  /// Integer option with inclusive range validation.
  [[nodiscard]] long get_int(std::string_view name, long min, long max) const;
  /// Floating option with inclusive range validation.
  [[nodiscard]] double get_double(std::string_view name, double min,
                                  double max) const;
  [[nodiscard]] std::span<const std::string> positionals() const {
    return positionals_given_;
  }

  /// Full usage text (summary, positionals, options with defaults).
  [[nodiscard]] std::string usage() const;

 private:
  struct Flag {
    std::string name;
    std::string help;
    bool set = false;
  };
  struct Option {
    std::string name;
    std::string value_name;
    std::string help;
    std::string default_value;  // as declared; usage() prints this
    std::string value;          // default_value until parse() overwrites
  };
  struct Positional {
    std::string name;
    std::string help;
    bool required = true;
  };

  Flag* find_flag(std::string_view name);
  Option* find_option(std::string_view name);
  [[nodiscard]] const Option& require_option(std::string_view name) const;

  std::string command_;
  std::string summary_;
  std::vector<Flag> flags_;
  std::vector<Option> options_;
  std::vector<Positional> positionals_decl_;
  std::vector<std::string> positionals_given_;
  bool help_requested_ = false;
};

/// Parses a human duration into seconds: "250ms", "2.5s", "90", "1.5m",
/// "2h" -> seconds. A bare number (integer or fractional) is seconds;
/// suffixes ms/s/m/h scale it. Negative values are rejected. `flag` names
/// the option in the UsageError diagnostic ("--deadline").
[[nodiscard]] double parse_duration_seconds(const std::string& text,
                                            std::string_view flag);

}  // namespace salign::cli
