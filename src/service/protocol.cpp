#include "service/protocol.hpp"

#include <cmath>
#include <stdexcept>

namespace sdem::service {
namespace {

/// Integer-valued, in-range member read for island ids.
bool read_island(const Json& obj, int* out, std::string* err) {
  const Json* v = obj.find("island");
  if (v == nullptr || !v->is_number()) {
    *err = "missing or non-numeric \"island\"";
    return false;
  }
  const double d = v->as_number();
  if (!(d >= 0) || d != std::floor(d) || d >= kMaxIslands) {
    *err = "\"island\" must be an integer in [0, " +
           std::to_string(kMaxIslands) + ")";
    return false;
  }
  *out = static_cast<int>(d);
  return true;
}

bool read_task(const Json& obj, Task* out, std::string* err) {
  const Json* t = obj.find("task");
  if (t == nullptr || !t->is_object()) {
    *err = "missing \"task\" object";
    return false;
  }
  const auto field = [&](const char* name, double* dst) {
    const Json* v = t->find(name);
    if (v == nullptr || !v->is_number()) {
      *err = std::string("task field \"") + name + "\" must be a finite number";
      return false;
    }
    *dst = v->as_number();
    return true;
  };
  double id = 0.0;
  if (!field("id", &id) || !field("release", &out->release) ||
      !field("deadline", &out->deadline) || !field("work", &out->work)) {
    return false;
  }
  if (!task_id_from_number(id, &out->id)) {
    *err = "task field \"id\" must be an integer";
    return false;
  }
  *err = task_error(*out);
  return err->empty();
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kSubmit: return "SUBMIT";
    case Op::kQuery: return "QUERY";
    case Op::kStats: return "STATS";
    case Op::kMetrics: return "METRICS";
    case Op::kShutdown: return "SHUTDOWN";
  }
  return "?";
}

Parsed parse_request(const std::string& line) {
  Parsed p;
  Json doc;
  try {
    doc = Json::parse(line);
  } catch (const std::invalid_argument& e) {
    p.error = std::string("parse: ") + e.what();
    return p;
  }
  if (!doc.is_object()) {
    p.error = "request must be a JSON object";
    return p;
  }
  const Json* op = doc.find("op");
  if (op == nullptr || !op->is_string()) {
    p.error = "missing \"op\"";
    return p;
  }
  const std::string& name = op->as_string();
  if (name == "SUBMIT") {
    p.request.op = Op::kSubmit;
    if (!read_island(doc, &p.request.island, &p.error)) return p;
    if (!read_task(doc, &p.request.task, &p.error)) return p;
  } else if (name == "QUERY") {
    p.request.op = Op::kQuery;
    if (!read_island(doc, &p.request.island, &p.error)) return p;
  } else if (name == "STATS") {
    p.request.op = Op::kStats;
  } else if (name == "METRICS") {
    p.request.op = Op::kMetrics;
  } else if (name == "SHUTDOWN") {
    p.request.op = Op::kShutdown;
  } else {
    p.error = "unknown op \"" + name + "\"";
    return p;
  }
  p.ok = true;
  return p;
}

namespace {

/// Advance past one JSON string literal (opening quote at `i`). Returns
/// the index after the closing quote, or npos on an unterminated string.
std::size_t skip_string(const std::string& s, std::size_t i) {
  ++i;  // opening quote
  while (i < s.size()) {
    if (s[i] == '\\') {
      i += 2;
    } else if (s[i] == '"') {
      return i + 1;
    } else {
      ++i;
    }
  }
  return std::string::npos;
}

std::size_t skip_ws(const std::string& s, std::size_t i) {
  while (i < s.size() &&
         (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' || s[i] == '\n')) {
    ++i;
  }
  return i;
}

}  // namespace

Peeked peek_request(const std::string& line) {
  Peeked p;
  std::size_t i = skip_ws(line, 0);
  if (i >= line.size() || line[i] != '{') return p;
  ++i;
  for (;;) {
    i = skip_ws(line, i);
    if (i >= line.size()) return p;
    if (line[i] == '}') return p;  // end of the top-level object
    if (line[i] == ',') {
      ++i;
      continue;
    }
    if (line[i] != '"') return p;  // structurally not a key — give up
    const std::size_t key_start = i + 1;
    const std::size_t key_end = skip_string(line, i);
    if (key_end == std::string::npos) return p;
    const std::size_t key_len = key_end - 1 - key_start;
    const bool is_op =
        key_len == 2 && line.compare(key_start, 2, "op") == 0;
    const bool is_island =
        key_len == 6 && line.compare(key_start, 6, "island") == 0;
    i = skip_ws(line, key_end);
    if (i >= line.size() || line[i] != ':') return p;
    i = skip_ws(line, i + 1);
    if (i >= line.size()) return p;
    const char c = line[i];
    if (c == '"') {
      const std::size_t val_start = i + 1;
      const std::size_t val_end = skip_string(line, i);
      if (val_end == std::string::npos) return p;
      if (is_op) {
        const std::size_t n = val_end - 1 - val_start;
        p.has_op = true;
        if (n == 6 && line.compare(val_start, n, "SUBMIT") == 0) {
          p.op = Op::kSubmit;
        } else if (n == 5 && line.compare(val_start, n, "QUERY") == 0) {
          p.op = Op::kQuery;
        } else if (n == 5 && line.compare(val_start, n, "STATS") == 0) {
          p.op = Op::kStats;
        } else if (n == 7 && line.compare(val_start, n, "METRICS") == 0) {
          p.op = Op::kMetrics;
        } else if (n == 8 && line.compare(val_start, n, "SHUTDOWN") == 0) {
          p.op = Op::kShutdown;
        } else {
          p.has_op = false;  // unknown op: let the full parser diagnose
        }
      }
      i = val_end;
    } else if (c == '{' || c == '[') {
      // Skip a balanced nested value, strings included.
      int depth = 0;
      while (i < line.size()) {
        const char d = line[i];
        if (d == '"') {
          i = skip_string(line, i);
          if (i == std::string::npos) return p;
          continue;
        }
        if (d == '{' || d == '[') ++depth;
        if (d == '}' || d == ']') {
          if (--depth == 0) {
            ++i;
            break;
          }
        }
        ++i;
      }
      if (depth != 0) return p;
    } else {
      // Number / true / false / null: consume up to the next delimiter.
      const std::size_t val_start = i;
      while (i < line.size() && line[i] != ',' && line[i] != '}' &&
             line[i] != ' ' && line[i] != '\t' && line[i] != '\r' &&
             line[i] != '\n') {
        ++i;
      }
      if (is_island) {
        // Accept exactly a non-negative integer literal <= 1e9; anything
        // fancier (sign, '.', exponent) falls back to the full parser.
        p.island = -1;
        const std::size_t n = i - val_start;
        if (n >= 1 && n <= 10) {
          long v = 0;
          bool digits = true;
          for (std::size_t k = val_start; k < i; ++k) {
            if (line[k] < '0' || line[k] > '9') {
              digits = false;
              break;
            }
            v = v * 10 + (line[k] - '0');
          }
          if (digits && v <= 1000000000L) p.island = static_cast<int>(v);
        }
      }
    }
  }
}

RouteKey route_key(const std::string& line) {
  const Peeked peek = peek_request(line);
  if (peek.routable()) return {true, peek.op, peek.island, {}};
  Parsed p = parse_request(line);
  return {p.ok, p.request.op, p.request.island, std::move(p.error)};
}

Json error_response(std::uint64_t seq, const std::string& message) {
  Json j = Json::object();
  j.set("ok", false);
  j.set("seq", seq);
  j.set("error", message);
  return j;
}

Json ok_response(Op op, std::uint64_t seq) {
  Json j = Json::object();
  j.set("ok", true);
  j.set("op", op_name(op));
  j.set("seq", seq);
  return j;
}

}  // namespace sdem::service
