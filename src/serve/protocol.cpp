#include "serve/protocol.hpp"

#include <charconv>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

#include "common/contracts.hpp"
#include "common/parse.hpp"

namespace dmfb::serve {

namespace {

/// Minimal strict cursor over one flat JSON object line. Deliberately
/// narrow: string values may not contain escapes (no campaign token needs
/// them), numbers are the JSON grammar, and nested arrays/objects are
/// rejected — a request is a flat key/value record, nothing more.
struct Cursor {
  std::string_view text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\r')) {
      ++pos;
    }
  }
  bool eat(char expected) {
    skip_ws();
    if (pos < text.size() && text[pos] == expected) {
      ++pos;
      return true;
    }
    return false;
  }
  char peek() {
    skip_ws();
    return pos < text.size() ? text[pos] : '\0';
  }
  /// The content of a quoted string (quotes consumed, escapes rejected).
  std::optional<std::string> take_string() {
    if (!eat('"')) return std::nullopt;
    const std::size_t start = pos;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\') return std::nullopt;
      ++pos;
    }
    if (pos >= text.size()) return std::nullopt;
    std::string value(text.substr(start, pos - start));
    ++pos;  // closing quote
    return value;
  }
  /// The raw token of a JSON number (sign, digits, '.', exponent).
  std::optional<std::string> take_number_token() {
    skip_ws();
    const std::size_t start = pos;
    while (pos < text.size() &&
           (std::string_view("+-.0123456789eE").find(text[pos]) !=
            std::string_view::npos)) {
      ++pos;
    }
    if (pos == start) return std::nullopt;
    return std::string(text.substr(start, pos - start));
  }
  bool at_end() {
    skip_ws();
    return pos >= text.size();
  }
};

std::string unknown_token_message(std::string_view key,
                                  std::string_view value) {
  return "unknown " + std::string(key) + " '" + std::string(value) + "'";
}

}  // namespace

ParsedRequest parse_request(std::string_view line,
                            std::uint64_t line_number) {
  ServeRequest request;
  request.id = std::to_string(line_number);
  const auto fail = [](std::string message) {
    return ParsedRequest{std::nullopt, std::move(message)};
  };

  Cursor cursor{line};
  if (!cursor.eat('{')) return fail("request must be one JSON object");
  bool has_design = false;
  bool has_injector = false;
  bool has_param = false;
  std::map<std::string, char> seen;
  if (!cursor.eat('}')) {
    for (;;) {
      const std::optional<std::string> key = cursor.take_string();
      if (!key) return fail("expected a quoted key");
      if (!cursor.eat(':')) return fail("expected ':' after \"" + *key + "\"");
      if (!seen.emplace(*key, 1).second) {
        return fail("duplicate key \"" + *key + "\"");
      }

      const auto take_token = [&]() -> std::optional<std::string> {
        return cursor.take_string();
      };
      const auto take_double = [&](double& into) -> bool {
        const std::optional<std::string> token = cursor.take_number_token();
        if (!token) return false;
        const std::optional<double> value = common::parse_double(*token);
        if (!value) return false;
        into = *value;
        return true;
      };
      const auto take_i32 = [&](std::int32_t& into) -> bool {
        const std::optional<std::string> token = cursor.take_number_token();
        if (!token) return false;
        const std::optional<std::int64_t> value =
            common::parse_int_in(*token, 0,
                                 std::numeric_limits<std::int32_t>::max());
        if (!value) return false;
        into = static_cast<std::int32_t>(*value);
        return true;
      };
      const auto bad_value = [&] {
        return fail("invalid value for \"" + *key + "\"");
      };

      if (*key == "id") {
        if (cursor.peek() == '"') {
          const std::optional<std::string> id = take_token();
          if (!id) return bad_value();
          request.id = "\"" + *id + "\"";
        } else {
          const std::optional<std::string> token = cursor.take_number_token();
          if (!token || !common::parse_double(*token)) return bad_value();
          request.id = *token;
        }
      } else if (*key == "design") {
        const std::optional<std::string> token = take_token();
        if (!token) return bad_value();
        const std::optional<campaign::Design> design =
            campaign::parse_design(*token);
        if (!design) return fail(unknown_token_message("design", *token));
        request.design = *design;
        has_design = true;
      } else if (*key == "injector") {
        const std::optional<std::string> token = take_token();
        if (!token) return bad_value();
        const std::optional<campaign::InjectorKind> injector =
            campaign::parse_injector(*token);
        if (!injector) return fail(unknown_token_message("injector", *token));
        if (*injector == campaign::InjectorKind::kMixture) {
          return fail("mixture injectors are campaign-spec only, not "
                      "expressible over the wire");
        }
        request.injector = *injector;
        has_injector = true;
      } else if (*key == "workload") {
        const std::optional<std::string> token = take_token();
        if (!token) return bad_value();
        const std::optional<campaign::WorkloadKind> workload =
            campaign::parse_workload(*token);
        if (!workload) return fail(unknown_token_message("workload", *token));
        request.workload = *workload;
      } else if (*key == "rng_version") {
        const std::optional<std::string> token = take_token();
        if (!token) return bad_value();
        const std::optional<RngVersion> version =
            campaign::parse_rng_version(*token);
        if (!version) {
          return fail(unknown_token_message("rng_version", *token));
        }
        request.rng_version = *version;
      } else if (*key == "policy") {
        const std::optional<std::string> token = take_token();
        if (!token) return bad_value();
        const std::optional<reconfig::CoveragePolicy> policy =
            campaign::parse_policy(*token);
        if (!policy) return fail(unknown_token_message("policy", *token));
        request.policy = *policy;
      } else if (*key == "engine") {
        const std::optional<std::string> token = take_token();
        if (!token) return bad_value();
        const std::optional<graph::MatchingEngine> engine =
            campaign::parse_engine(*token);
        if (!engine) return fail(unknown_token_message("engine", *token));
        request.engine = *engine;
      } else if (*key == "pool") {
        const std::optional<std::string> token = take_token();
        if (!token) return bad_value();
        const std::optional<reconfig::ReplacementPool> pool =
            campaign::parse_pool(*token);
        if (!pool) return fail(unknown_token_message("pool", *token));
        request.pool = *pool;
      } else if (*key == "primaries") {
        if (!take_i32(request.min_primaries)) return bad_value();
        if (request.min_primaries > kMaxPrimaries) {
          return fail("\"primaries\" exceeds the limit of " +
                      std::to_string(kMaxPrimaries));
        }
      } else if (*key == "runs") {
        if (!take_i32(request.runs) || request.runs <= 0) return bad_value();
      } else if (*key == "radius") {
        if (!take_i32(request.cluster.radius)) return bad_value();
      } else if (*key == "param") {
        if (!take_double(request.param)) return bad_value();
        has_param = true;
      } else if (*key == "core_kill") {
        if (!take_double(request.cluster.core_kill)) return bad_value();
      } else if (*key == "edge_kill") {
        if (!take_double(request.cluster.edge_kill)) return bad_value();
      } else if (*key == "target_ci_half_width") {
        if (!take_double(request.target_ci_half_width) ||
            request.target_ci_half_width < 0.0) {
          return bad_value();
        }
      } else if (*key == "seed") {
        const std::optional<std::string> token = cursor.take_number_token();
        if (!token) return bad_value();
        const std::optional<std::uint64_t> seed =
            common::parse_uint64(*token);
        if (!seed) return bad_value();
        request.seed = *seed;
      } else {
        return fail("unknown key \"" + *key + "\"");
      }

      if (cursor.eat(',')) continue;
      if (cursor.eat('}')) break;
      return fail("expected ',' or '}'");
    }
  }
  if (!cursor.at_end()) return fail("trailing bytes after the object");

  if (!has_design) return fail("missing required key \"design\"");
  if (!has_injector) return fail("missing required key \"injector\"");
  if (!has_param) return fail("missing required key \"param\"");
  if (request.workload == campaign::WorkloadKind::kAssay &&
      request.design != campaign::Design::kMultiplexed) {
    return fail("workload \"assay\" requires design \"multiplexed\"");
  }
  if (request.injector == campaign::InjectorKind::kFixedCount &&
      request.param !=
          static_cast<double>(static_cast<std::int32_t>(request.param))) {
    return fail("fixed_count param must be a whole number of cells");
  }
  return ParsedRequest{std::move(request), {}};
}

sim::FaultModel fault_model_of(const ServeRequest& request) {
  switch (request.injector) {
    case campaign::InjectorKind::kBernoulli:
      return sim::FaultModel::bernoulli(request.param);
    case campaign::InjectorKind::kFixedCount:
      return sim::FaultModel::fixed_count(
          static_cast<std::int32_t>(request.param));
    case campaign::InjectorKind::kClustered:
      return sim::FaultModel::clustered(
          request.param, {request.cluster.radius, request.cluster.core_kill,
                          request.cluster.edge_kill});
    case campaign::InjectorKind::kParametric:
      return sim::FaultModel::parametric(request.param);
    case campaign::InjectorKind::kMixture:
      break;  // rejected at parse time
  }
  DMFB_ASSERT(false);
  return {};
}

sim::YieldQuery query_of(const ServeRequest& request) {
  sim::YieldQuery query;
  query.fault = fault_model_of(request);
  query.workload = request.workload == campaign::WorkloadKind::kAssay
                       ? sim::Workload::kAssay
                       : sim::Workload::kStructural;
  query.runs = request.runs;
  query.seed = request.seed;
  query.threads = 1;
  query.policy = request.policy;
  query.engine = request.engine;
  query.pool = request.pool;
  query.target_ci_half_width = request.target_ci_half_width;
  query.rng_version = request.rng_version;
  return query;
}

std::string json_double(double value) {
  char buffer[64];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

namespace {

void append_estimate(std::string& out, const sim::YieldEstimate& estimate,
                     const char* prefix) {
  out += ", \"";
  out += prefix;
  out += "yield\": " + json_double(estimate.value);
  out += ", \"";
  out += prefix;
  out += "ci_lo\": " + json_double(estimate.ci95.lo);
  out += ", \"";
  out += prefix;
  out += "ci_hi\": " + json_double(estimate.ci95.hi);
}

}  // namespace

std::string format_response(const ServeRequest& request,
                            const sim::YieldEstimate& estimate) {
  std::string out = "{\"id\": " + request.id;
  append_estimate(out, estimate, "");
  out += ", \"runs\": " + std::to_string(estimate.runs);
  out += ", \"successes\": " + std::to_string(estimate.successes);
  out += "}";
  return out;
}

std::string format_response(const ServeRequest& request,
                            const sim::OperationalEstimate& estimate) {
  std::string out = "{\"id\": " + request.id;
  append_estimate(out, estimate.structural, "");
  out += ", \"runs\": " + std::to_string(estimate.structural.runs);
  out += ", \"successes\": " + std::to_string(estimate.structural.successes);
  append_estimate(out, estimate.operational, "op_");
  out += ", \"op_successes\": " +
         std::to_string(estimate.operational.successes);
  out += ", \"mean_slowdown\": " + json_double(estimate.mean_slowdown);
  out += ", \"worst_slowdown\": " + json_double(estimate.worst_slowdown);
  out += "}";
  return out;
}

std::string format_error(const std::string& id, std::string_view message) {
  std::string escaped;
  escaped.reserve(message.size());
  for (const char ch : message) {
    if (ch == '"' || ch == '\\') escaped += '\\';
    escaped += ch;
  }
  return "{\"id\": " + id + ", \"error\": \"" + escaped + "\"}";
}

}  // namespace dmfb::serve
