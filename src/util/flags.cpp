#include "util/flags.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace wlsync::util {

namespace {

/// Whole-string parse of a double; false on any leftover or empty text.
bool parse_double(const std::string& text, double* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text.c_str(), &end);
  return errno == 0 && end == text.c_str() + text.size();
}

/// The token after `--name` is its value unless it looks like a flag; a
/// negative number (`--offset -5`) is a value.
bool is_value(const char* token) {
  double ignored = 0.0;
  return token[0] != '-' || parse_double(token, &ignored);
}

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* kind) {
  throw std::invalid_argument("flags: --" + name + "='" + value +
                              "' is not " + kind);
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) {
      std::fprintf(stderr, "flags: ignoring positional argument '%s'\n", argv[i]);
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && is_value(argv[i + 1])) {
      values_[std::string(arg)] = argv[++i];
    } else {
      values_[std::string(arg)] = "true";  // bare flag
    }
  }
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  double value = 0.0;
  if (!parse_double(it->second, &value)) bad_value(name, it->second, "a number");
  return value;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  std::int64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc{} || end != text.data() + text.size()) {
    bad_value(name, text, "an integer");
  }
  return value;
}

std::string Flags::get_string(const std::string& name, std::string fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? std::move(fallback) : it->second;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

bool Flags::has(const std::string& name) const { return values_.contains(name); }

}  // namespace wlsync::util
