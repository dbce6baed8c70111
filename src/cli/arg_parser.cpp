#include "cli/arg_parser.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <utility>

namespace salign::cli {

namespace {

bool is_long_option(std::string_view token) {
  return token.size() > 2 && token.substr(0, 2) == "--";
}

}  // namespace

ArgParser::ArgParser(std::string command, std::string summary)
    : command_(std::move(command)), summary_(std::move(summary)) {}

ArgParser& ArgParser::flag(std::string name, std::string help) {
  flags_.push_back(Flag{std::move(name), std::move(help)});
  return *this;
}

ArgParser& ArgParser::option(std::string name, std::string value_name,
                             std::string default_value, std::string help) {
  std::string value = default_value;
  options_.push_back(Option{std::move(name), std::move(value_name),
                            std::move(help), std::move(default_value),
                            std::move(value)});
  return *this;
}

ArgParser& ArgParser::positional(std::string name, std::string help,
                                 bool required) {
  if (!positionals_decl_.empty() && !positionals_decl_.back().required &&
      required)
    throw std::logic_error(
        "ArgParser: required positional after optional one");
  positionals_decl_.push_back(
      Positional{std::move(name), std::move(help), required});
  return *this;
}

ArgParser::Flag* ArgParser::find_flag(std::string_view name) {
  const auto it = std::find_if(flags_.begin(), flags_.end(),
                               [&](const Flag& f) { return f.name == name; });
  return it == flags_.end() ? nullptr : &*it;
}

ArgParser::Option* ArgParser::find_option(std::string_view name) {
  const auto it =
      std::find_if(options_.begin(), options_.end(),
                   [&](const Option& o) { return o.name == name; });
  return it == options_.end() ? nullptr : &*it;
}

const ArgParser::Option& ArgParser::require_option(
    std::string_view name) const {
  const auto it =
      std::find_if(options_.begin(), options_.end(),
                   [&](const Option& o) { return o.name == name; });
  if (it == options_.end())
    throw std::logic_error("ArgParser: undeclared option queried: " +
                           std::string(name));
  return *it;
}

void ArgParser::parse(std::span<const std::string> args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& token = args[i];
    if (token == "--help" || token == "-h") {
      help_requested_ = true;
      return;
    }
    if (is_long_option(token)) {
      std::string_view body = std::string_view(token).substr(2);
      std::string_view value;
      bool has_inline_value = false;
      if (const auto eq = body.find('='); eq != std::string_view::npos) {
        value = body.substr(eq + 1);
        body = body.substr(0, eq);
        has_inline_value = true;
      }
      if (Flag* f = find_flag(body)) {
        if (has_inline_value)
          throw UsageError("flag --" + std::string(body) +
                           " does not take a value");
        f->set = true;
        continue;
      }
      if (Option* o = find_option(body)) {
        if (has_inline_value) {
          o->value = std::string(value);
        } else {
          if (i + 1 >= args.size())
            throw UsageError("option --" + std::string(body) +
                             " needs a value");
          o->value = args[++i];
        }
        continue;
      }
      throw UsageError("unknown option --" + std::string(body));
    }
    if (positionals_given_.size() >= positionals_decl_.size())
      throw UsageError("unexpected argument '" + token + "'");
    positionals_given_.push_back(token);
  }
  for (std::size_t i = positionals_given_.size();
       i < positionals_decl_.size(); ++i) {
    if (positionals_decl_[i].required)
      throw UsageError("missing required argument <" +
                       positionals_decl_[i].name + ">");
  }
}

bool ArgParser::get_flag(std::string_view name) const {
  const auto it = std::find_if(flags_.begin(), flags_.end(),
                               [&](const Flag& f) { return f.name == name; });
  if (it == flags_.end())
    throw std::logic_error("ArgParser: undeclared flag queried: " +
                           std::string(name));
  return it->set;
}

const std::string& ArgParser::get(std::string_view name) const {
  return require_option(name).value;
}

long ArgParser::get_int(std::string_view name, long min, long max) const {
  const std::string& v = require_option(name).value;
  long out = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || ptr != v.data() + v.size())
    throw UsageError("--" + std::string(name) + ": '" + v +
                     "' is not an integer");
  if (out < min || out > max)
    throw UsageError("--" + std::string(name) + ": " + v +
                     " out of range [" + std::to_string(min) + ", " +
                     std::to_string(max) + "]");
  return out;
}

double ArgParser::get_double(std::string_view name, double min,
                             double max) const {
  const std::string& v = require_option(name).value;
  try {
    std::size_t pos = 0;
    const double out = std::stod(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    if (out < min || out > max)
      throw UsageError("--" + std::string(name) + ": " + v +
                       " out of range");
    return out;
  } catch (const UsageError&) {
    throw;
  } catch (const std::exception&) {
    throw UsageError("--" + std::string(name) + ": '" + v +
                     "' is not a number");
  }
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << "usage: salign " << command_;
  for (const Positional& p : positionals_decl_)
    os << (p.required ? " <" + p.name + ">" : " [" + p.name + "]");
  if (!options_.empty() || !flags_.empty()) os << " [options]";
  os << "\n\n" << summary_ << "\n";
  if (!positionals_decl_.empty()) {
    os << "\narguments:\n";
    for (const Positional& p : positionals_decl_)
      os << "  " << p.name << "  " << p.help << "\n";
  }
  if (!options_.empty() || !flags_.empty()) {
    os << "\noptions:\n";
    for (const Option& o : options_)
      os << "  --" << o.name << " <" << o.value_name << ">  " << o.help
         << " (default: "
         << (o.default_value.empty() ? "none" : o.default_value) << ")\n";
    for (const Flag& f : flags_) os << "  --" << f.name << "  " << f.help
                                    << "\n";
  }
  return os.str();
}

namespace {

/// Splits "<number><suffix>" at the end of the numeric part. Throws the
/// caller-supplied UsageError builder on non-numeric or negative input.
/// The number is parsed as a double so "2.5s" works.
template <typename Bad>
std::pair<double, std::string> split_number_suffix(const std::string& text,
                                                  const Bad& bad) {
  // stod accepts leading whitespace, '+', '-', "inf", "nan" — the CLI
  // wants exactly [digits][.digits][suffix], so gate on the first byte.
  if (text.empty() || text[0] < '0' || text[0] > '9') throw bad();
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    throw bad();
  }
  if (!(value >= 0.0) || value > 1e18) throw bad();
  return {value, text.substr(pos)};
}

}  // namespace

double parse_duration_seconds(const std::string& text,
                              std::string_view flag) {
  const auto bad = [&] {
    return UsageError(std::string(flag) +
                      ": expected <number>[ms|s|m|h] (bare numbers are "
                      "seconds), got '" +
                      text + "'");
  };
  const auto [value, suffix] = split_number_suffix(text, bad);
  double scale = 1.0;
  if (suffix == "ms") {
    scale = 1e-3;
  } else if (suffix == "s" || suffix.empty()) {
    scale = 1.0;
  } else if (suffix == "m") {
    scale = 60.0;
  } else if (suffix == "h") {
    scale = 3600.0;
  } else {
    throw bad();
  }
  return value * scale;
}

}  // namespace salign::cli
