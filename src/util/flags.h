#pragma once
// Minimal command-line flag parsing for bench/example binaries.
// Supports `--name=value` and `--name value` (including a negative number
// as the value); unknown flags are reported.  Numeric getters accept only
// a value that parses in full and throw std::invalid_argument otherwise.

#include <cstdint>
#include <map>
#include <string>

namespace wlsync::util {

class Flags {
 public:
  /// Parses argv; on malformed input prints a message and keeps going.
  Flags(int argc, char** argv);

  /// Both throw std::invalid_argument, naming the flag and its value, when
  /// the value is not entirely a number (`--n=12x`, `--n=abc`).
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] std::string get_string(const std::string& name, std::string fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;
  [[nodiscard]] bool has(const std::string& name) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace wlsync::util
