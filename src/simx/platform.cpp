#include "simx/platform.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace simx {

void SpeedProfile::validate() const {
  if (time_points.empty() || time_points.size() != speeds.size()) {
    throw std::invalid_argument("SpeedProfile: need equally many time points and speeds (>= 1)");
  }
  if (time_points.front() != 0.0) {
    throw std::invalid_argument("SpeedProfile: first time point must be 0");
  }
  for (std::size_t i = 1; i < time_points.size(); ++i) {
    if (!(time_points[i] > time_points[i - 1])) {
      throw std::invalid_argument("SpeedProfile: time points must be strictly ascending");
    }
  }
  for (double s : speeds) {
    if (s < 0.0 || !std::isfinite(s)) {
      throw std::invalid_argument("SpeedProfile: speeds must be finite and >= 0");
    }
  }
}

Host::Host(double speed_flops, std::size_t index) : index_(index) {
  if (!(speed_flops > 0.0) || !std::isfinite(speed_flops)) {
    throw std::invalid_argument("Host: speed must be finite and > 0");
  }
  profile_.time_points = {0.0};
  profile_.speeds = {speed_flops};
}

double Host::speed() const { return profile_.speeds.front(); }

void Host::set_speed_profile(SpeedProfile profile) {
  profile.validate();
  profile_ = std::move(profile);
}

SimTime Host::finish_time_profiled(SimTime start, double flops) const {
  if (flops <= 0.0) return start;
  // Locate the active segment, then consume capacity segment by segment.
  std::size_t seg = 0;
  while (seg + 1 < profile_.time_points.size() && profile_.time_points[seg + 1] <= start) ++seg;
  SimTime t = start;
  double remaining = flops;
  for (;;) {
    const double speed = profile_.speeds[seg];
    const bool last = seg + 1 == profile_.time_points.size();
    const SimTime seg_end = last ? std::numeric_limits<SimTime>::infinity()
                                 : profile_.time_points[seg + 1];
    if (speed > 0.0) {
      const SimTime need = remaining / speed;
      if (t + need <= seg_end) return t + need;
      remaining -= speed * (seg_end - t);
    }
    if (last) {
      throw std::runtime_error("host " + std::to_string(index_) +
                               ": work cannot finish (zero speed to infinity)");
    }
    t = seg_end;
    ++seg;
  }
}

Host& Platform::add_host(double speed_flops) {
  hosts_.push_back(std::make_unique<Host>(speed_flops, hosts_.size()));
  routes_.emplace_back();
  return *hosts_.back();
}

std::size_t Platform::add_link(double bandwidth, SimTime latency) {
  if (!(bandwidth > 0.0)) throw std::invalid_argument("link bandwidth must be > 0");
  if (!(latency >= 0.0) || !std::isfinite(latency)) {
    throw std::invalid_argument("link latency must be finite and >= 0");
  }
  links_.push_back(RouteCost{latency, bandwidth});
  return links_.size() - 1;
}

void Platform::set_route_cost(std::size_t from, std::size_t to, RouteCost cost) {
  RouteRow& row = routes_[from];
  if (row.costs.empty()) {
    row.base = to;
    row.costs.push_back(cost);
    return;
  }
  if (to < row.base) {
    row.costs.insert(row.costs.begin(), row.base - to, RouteCost{});
    row.base = to;
  } else if (to - row.base >= row.costs.size()) {
    row.costs.resize(to - row.base + 1);
  }
  row.costs[to - row.base] = cost;
}

void Platform::add_route(std::size_t host_a, std::size_t host_b,
                         std::span<const std::size_t> links) {
  if (links.empty()) throw std::invalid_argument("route needs at least one link");
  if (host_a >= hosts_.size() || host_b >= hosts_.size()) {
    throw std::invalid_argument("route names a host index out of range");
  }
  RouteCost cost{0.0, std::numeric_limits<double>::infinity()};
  for (const std::size_t index : links) {
    if (index >= links_.size()) {
      throw std::invalid_argument("route names a link index out of range");
    }
    cost.latency += links_[index].latency;
    cost.bandwidth = std::min(cost.bandwidth, links_[index].bandwidth);
  }
  set_route_cost(host_a, host_b, cost);
  set_route_cost(host_b, host_a, cost);
}

SimTime Platform::comm_time(const Host& src, const Host& dst, std::size_t bytes) const {
  if (src.index() == dst.index()) return 0.0;
  const RouteRow& row = routes_[src.index()];
  const std::size_t peer = dst.index();
  if (peer < row.base || peer - row.base >= row.costs.size() ||
      !(row.costs[peer - row.base].bandwidth > 0.0)) {
    throw std::runtime_error("no route between hosts " + std::to_string(src.index()) + " and " +
                             std::to_string(peer));
  }
  const RouteCost& cost = row.costs[peer - row.base];
  return cost.latency + static_cast<double>(bytes) / cost.bandwidth;
}

Platform make_star_platform(std::size_t workers, double speed, double bandwidth,
                            SimTime latency, std::span<const double> speed_factors,
                            std::span<const SpeedProfile> speed_profiles) {
  if ((!speed_factors.empty() && speed_factors.size() != workers) ||
      (!speed_profiles.empty() && speed_profiles.size() != workers)) {
    throw std::invalid_argument("star platform: per-worker lists need one entry per worker");
  }
  Platform p;
  p.add_host(speed);
  for (std::size_t i = 0; i < workers; ++i) {
    Host& host = p.add_host(speed_factors.empty() ? speed : speed * speed_factors[i]);
    if (!speed_profiles.empty()) host.set_speed_profile(speed_profiles[i]);
    const std::size_t link = p.add_link(bandwidth, latency);
    p.add_route(0, host.index(), {&link, 1});
  }
  return p;
}

namespace {

/// Split a line into whitespace-separated tokens.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) tokens.push_back(tok);
  return tokens;
}

[[noreturn]] void parse_error(std::size_t line_no, const std::string& message) {
  throw std::invalid_argument("line " + std::to_string(line_no) + ": " + message);
}

/// Parse "key=value" and return value if key matches, else nullopt.
std::optional<std::string> key_value(const std::string& token, std::string_view key) {
  const auto eq = token.find('=');
  if (eq == std::string::npos || token.substr(0, eq) != key) return std::nullopt;
  return token.substr(eq + 1);
}

double parse_double(const std::string& text, std::size_t line_no) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument("");
    return v;
  } catch (const std::exception&) {
    parse_error(line_no, "bad number: " + text);
  }
}

SpeedProfile parse_profile(const std::string& text, std::size_t line_no) {
  SpeedProfile profile;
  std::istringstream is(text);
  std::string pair;
  while (std::getline(is, pair, ',')) {
    const auto colon = pair.find(':');
    if (colon == std::string::npos) parse_error(line_no, "profile entry needs t:speed: " + pair);
    profile.time_points.push_back(parse_double(pair.substr(0, colon), line_no));
    profile.speeds.push_back(parse_double(pair.substr(colon + 1), line_no));
  }
  return profile;
}

/// A name declared on a host or link line.  The parser resolves route
/// names against a table of these sorted once by (name, line): a flat
/// binary search, built in O(n log n) however many hosts the file has.
struct Declared {
  std::string name;
  std::size_t index = 0;  ///< host or link index
  std::size_t line = 0;
};

/// Sort `table` and reject the earliest line that re-declares a name.
void sort_declared(std::vector<Declared>& table, const char* kind) {
  std::sort(table.begin(), table.end(), [](const Declared& a, const Declared& b) {
    return a.name != b.name ? a.name < b.name : a.line < b.line;
  });
  const Declared* duplicate = nullptr;
  for (std::size_t i = 1; i < table.size(); ++i) {
    if (table[i].name == table[i - 1].name &&
        (duplicate == nullptr || table[i].line < duplicate->line)) {
      duplicate = &table[i];
    }
  }
  if (duplicate != nullptr) {
    parse_error(duplicate->line, std::string("duplicate ") + kind + ": " + duplicate->name);
  }
}

/// Index of `name` as declared on a line before `line_no`.
std::size_t resolve(const std::vector<Declared>& table, const std::string& name,
                    std::size_t line_no, const char* kind) {
  const auto it = std::lower_bound(
      table.begin(), table.end(), name,
      [](const Declared& d, const std::string& key) { return d.name < key; });
  if (it == table.end() || it->name != name || it->line > line_no) {
    parse_error(line_no, std::string("unknown ") + kind + ": " + name);
  }
  return it->index;
}

struct RouteLine {
  std::vector<std::string> tokens;  ///< "route" <hostA> <hostB> <link>...
  std::size_t line = 0;
};

}  // namespace

Platform parse_platform(std::string_view text) {
  Platform platform;
  std::vector<Declared> hosts;
  std::vector<Declared> links;
  std::vector<RouteLine> routes;
  std::istringstream is{std::string(text)};
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    std::vector<std::string> tok = tokenize(line);
    if (tok.empty()) continue;
    if (tok[0] == "host") {
      if (tok.size() < 3) parse_error(line_no, "host needs: host <name> speed=<flops>");
      std::optional<std::string> speed;
      std::optional<std::string> profile;
      for (std::size_t i = 2; i < tok.size(); ++i) {
        if (auto v = key_value(tok[i], "speed")) speed = v;
        else if (auto pv = key_value(tok[i], "profile")) profile = pv;
        else parse_error(line_no, "unknown host attribute: " + tok[i]);
      }
      if (!speed) parse_error(line_no, "host is missing speed=");
      const double flops = parse_double(*speed, line_no);
      std::optional<SpeedProfile> segments;
      if (profile) segments = parse_profile(*profile, line_no);
      try {
        Host& h = platform.add_host(flops);
        if (segments) h.set_speed_profile(std::move(*segments));
        hosts.push_back(Declared{std::move(tok[1]), h.index(), line_no});
      } catch (const std::invalid_argument& e) {
        parse_error(line_no, e.what());
      }
    } else if (tok[0] == "link") {
      if (tok.size() != 4) {
        parse_error(line_no, "link needs: link <name> bandwidth=<bytes/s> latency=<s>");
      }
      std::optional<std::string> bw;
      std::optional<std::string> lat;
      for (std::size_t i = 2; i < tok.size(); ++i) {
        if (auto v = key_value(tok[i], "bandwidth")) bw = v;
        else if (auto lv = key_value(tok[i], "latency")) lat = lv;
        else parse_error(line_no, "unknown link attribute: " + tok[i]);
      }
      if (!bw || !lat) parse_error(line_no, "link needs bandwidth= and latency=");
      const double bandwidth = parse_double(*bw, line_no);
      const double latency = parse_double(*lat, line_no);
      try {
        const std::size_t index = platform.add_link(bandwidth, latency);
        links.push_back(Declared{std::move(tok[1]), index, line_no});
      } catch (const std::invalid_argument& e) {
        parse_error(line_no, e.what());
      }
    } else if (tok[0] == "route") {
      if (tok.size() < 4) parse_error(line_no, "route needs: route <hostA> <hostB> <link>...");
      routes.push_back(RouteLine{std::move(tok), line_no});
    } else {
      parse_error(line_no, "unknown directive: " + tok[0]);
    }
  }

  sort_declared(hosts, "host");
  sort_declared(links, "link");
  std::vector<std::size_t> route_links;
  for (const RouteLine& route : routes) {
    route_links.clear();
    for (std::size_t i = 3; i < route.tokens.size(); ++i) {
      route_links.push_back(resolve(links, route.tokens[i], route.line, "link"));
    }
    const std::size_t a = resolve(hosts, route.tokens[1], route.line, "host");
    const std::size_t b = resolve(hosts, route.tokens[2], route.line, "host");
    platform.add_route(a, b, route_links);
  }
  return platform;
}

}  // namespace simx
