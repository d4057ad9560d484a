#ifndef DIGEST_CORE_CHECKPOINT_UTIL_H_
#define DIGEST_CORE_CHECKPOINT_UTIL_H_

// Shared primitives of the checkpoint codecs (engine_checkpoint.cc and
// the DigestNode codec in digest_node.cc). One encoding discipline for
// every blob: doubles print as %.17g (lossless round-trip through
// strtod); int64 ticks print as plain JSON integers; uint64 counters
// ride as decimal strings because a JSON double cannot hold 2^64−1
// (see common/json.h, whose As*() accept both forms).

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "numeric/rng.h"
#include "sampling/sampling_operator.h"

namespace digest {
namespace ckpt {

inline void AppendDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

inline void AppendU64(std::string* out, uint64_t v) {
  // Decimal-string form: exact for the full uint64 range.
  *out += '"';
  *out += std::to_string(v);
  *out += '"';
}

inline void AppendI64(std::string* out, int64_t v) {
  *out += std::to_string(v);
}

inline void AppendBool(std::string* out, bool v) {
  *out += v ? "true" : "false";
}

inline void AppendRng(std::string* out, const Rng::State& s) {
  *out += "{\"words\":[";
  for (int i = 0; i < 4; ++i) {
    if (i > 0) *out += ',';
    AppendU64(out, s.words[i]);
  }
  *out += "],\"has_spare_gaussian\":";
  AppendBool(out, s.has_spare_gaussian);
  *out += ",\"spare_gaussian\":";
  AppendDouble(out, s.spare_gaussian);
  *out += '}';
}

inline void AppendDoubleArray(std::string* out,
                              const std::vector<double>& xs) {
  *out += '[';
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) *out += ',';
    AppendDouble(out, xs[i]);
  }
  *out += ']';
}

inline void AppendOperatorState(std::string* out,
                                const SamplingOperator::State& s) {
  *out += "{\"agent_positions\":[";
  for (size_t i = 0; i < s.agent_positions.size(); ++i) {
    if (i > 0) *out += ',';
    AppendU64(out, s.agent_positions[i]);
  }
  *out += "],\"rng\":";
  AppendRng(out, s.rng);
  *out += ",\"done_walks\":";
  AppendU64(out, s.done_walks);
  *out += ",\"done_attempts\":";
  AppendU64(out, s.done_attempts);
  *out += ",\"done_steps\":";
  AppendU64(out, s.done_steps);
  *out += '}';
}

inline Result<Rng::State> ParseRng(const json::Value& v) {
  Rng::State s;
  DIGEST_ASSIGN_OR_RETURN(const json::Value* words, v.GetArray("words"));
  if (words->array().size() != 4) {
    return Status::InvalidArgument("checkpoint: rng needs 4 state words");
  }
  for (int i = 0; i < 4; ++i) {
    DIGEST_ASSIGN_OR_RETURN(s.words[i], words->array()[i].AsUInt64());
  }
  DIGEST_ASSIGN_OR_RETURN(s.has_spare_gaussian,
                          v.GetBool("has_spare_gaussian"));
  DIGEST_ASSIGN_OR_RETURN(s.spare_gaussian, v.GetDouble("spare_gaussian"));
  return s;
}

inline Result<std::vector<double>> ParseDoubleArray(
    const json::Value& parent, std::string_view key) {
  DIGEST_ASSIGN_OR_RETURN(const json::Value* arr, parent.GetArray(key));
  std::vector<double> out;
  out.reserve(arr->array().size());
  for (const json::Value& v : arr->array()) {
    DIGEST_ASSIGN_OR_RETURN(double x, v.AsDouble());
    out.push_back(x);
  }
  return out;
}

inline Result<SamplingOperator::State> ParseOperatorState(
    const json::Value& v) {
  SamplingOperator::State s;
  DIGEST_ASSIGN_OR_RETURN(const json::Value* positions,
                          v.GetArray("agent_positions"));
  s.agent_positions.reserve(positions->array().size());
  for (const json::Value& p : positions->array()) {
    DIGEST_ASSIGN_OR_RETURN(uint64_t node, p.AsUInt64());
    s.agent_positions.push_back(static_cast<NodeId>(node));
  }
  DIGEST_ASSIGN_OR_RETURN(const json::Value* rng, v.GetObject("rng"));
  DIGEST_ASSIGN_OR_RETURN(s.rng, ParseRng(*rng));
  DIGEST_ASSIGN_OR_RETURN(s.done_walks, v.GetUInt64("done_walks"));
  DIGEST_ASSIGN_OR_RETURN(s.done_attempts, v.GetUInt64("done_attempts"));
  DIGEST_ASSIGN_OR_RETURN(s.done_steps, v.GetUInt64("done_steps"));
  return s;
}

}  // namespace ckpt
}  // namespace digest

#endif  // DIGEST_CORE_CHECKPOINT_UTIL_H_
