#include "support/flags.hpp"

#include <charconv>
#include <sstream>

namespace support {

void Flags::define(std::string name, std::string default_value, std::string help) {
  if (specs_.contains(name)) {
    throw std::invalid_argument("flag redefined: --" + name);
  }
  order_.push_back(name);
  specs_.emplace(std::move(name), Spec{std::move(default_value), std::move(help), std::nullopt});
}

void Flags::parse(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    std::string name;
    std::optional<std::string> value;
    if (auto eq = arg.find('='); eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
    }
    auto it = specs_.find(name);
    if (it == specs_.end()) {
      throw std::invalid_argument("unknown flag --" + name + "\n" + usage());
    }
    if (!value) {
      // `--flag value` form, unless the next token is another flag or the
      // flag is boolean-like (declared with default "true"/"false").
      const bool boolean_like =
          it->second.default_value == "true" || it->second.default_value == "false";
      if (!boolean_like && i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    it->second.value = std::move(value);
  }
}

const Flags::Spec& Flags::spec(std::string_view name) const {
  auto it = specs_.find(name);
  if (it == specs_.end()) {
    throw std::invalid_argument("flag not defined: --" + std::string(name));
  }
  return it->second;
}

bool Flags::has(std::string_view name) const { return spec(name).value.has_value(); }

std::string Flags::get(std::string_view name) const {
  const Spec& s = spec(name);
  return s.value.value_or(s.default_value);
}

bool Flags::get_bool(std::string_view name) const {
  const std::string v = get(name);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("flag --" + std::string(name) + " is not a boolean: " + v);
}

std::int64_t Flags::get_int(std::string_view name) const {
  const std::string v = get(name);
  std::int64_t out{};
  auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || ptr != v.data() + v.size()) {
    throw std::invalid_argument("flag --" + std::string(name) + " is not an integer: " + v);
  }
  return out;
}

double Flags::get_double(std::string_view name) const {
  const std::string v = get(name);
  try {
    std::size_t pos = 0;
    const double out = std::stod(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + std::string(name) + " is not a number: " + v);
  }
}

std::string Flags::usage() const {
  std::ostringstream os;
  os << "usage: " << program_ << " [flags]\n";
  for (const std::string& name : order_) {
    const Spec& s = specs_.at(name);
    os << "  --" << name << " (default: " << s.default_value << ")  " << s.help << "\n";
  }
  return os.str();
}

}  // namespace support
