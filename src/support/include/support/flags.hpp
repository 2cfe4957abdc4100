#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace support {

/// Minimal command-line flag parser used by the bench harnesses and
/// examples.  Supports `--name=value`, `--name value`, and boolean
/// switches `--name`.  Positional arguments are collected in order.
///
/// The parser is intentionally strict: an unknown flag is an error, so a
/// typo in an experiment sweep cannot silently fall back to defaults.
class Flags {
 public:
  Flags() = default;

  /// Declare a flag with a default value and a help string.
  /// Declaration order defines the order in `usage()`.
  void define(std::string name, std::string default_value, std::string help);

  /// Parse argv; throws std::invalid_argument on unknown or malformed
  /// flags.  `argv[0]` is retained as the program name for `usage()`.
  void parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] std::string get(std::string_view name) const;
  [[nodiscard]] bool get_bool(std::string_view name) const;
  [[nodiscard]] std::int64_t get_int(std::string_view name) const;
  [[nodiscard]] double get_double(std::string_view name) const;

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }
  [[nodiscard]] std::string usage() const;

 private:
  struct Spec {
    std::string default_value;
    std::string help;
    std::optional<std::string> value;
  };
  [[nodiscard]] const Spec& spec(std::string_view name) const;

  std::string program_ = "program";
  std::vector<std::string> order_;
  std::map<std::string, Spec, std::less<>> specs_;
  std::vector<std::string> positional_;
};

}  // namespace support
