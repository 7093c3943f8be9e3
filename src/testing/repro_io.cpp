#include "testing/repro_io.hpp"

#include <cstdlib>
#include <stdexcept>

#include "support/json.hpp"

namespace sdem::testing {
namespace {

constexpr int kReproVersion = 1;

double require_number(const Json& obj, const std::string& key) {
  const Json* v = obj.find(key);
  if (!v || !v->is_number())
    throw std::invalid_argument("repro: missing number field '" + key + "'");
  return v->as_number();
}

FuzzCase parse_repro_body(const Json& doc);

}  // namespace

std::string repro_to_json(const FuzzCase& c,
                          const std::vector<Violation>& violations) {
  Json doc = Json::object();
  doc.set("sdem_repro", kReproVersion);
  doc.set("model", to_string(c.model));
  // Seeds are 64-bit; JSON numbers are doubles. A string keeps all bits.
  doc.set("seed", std::to_string(c.seed));

  Json core = Json::object();
  core.set("alpha", c.cfg.core.alpha);
  core.set("beta", c.cfg.core.beta);
  core.set("lambda", c.cfg.core.lambda);
  core.set("s_min", c.cfg.core.s_min);
  core.set("s_up", c.cfg.core.s_up);
  core.set("xi", c.cfg.core.xi);
  Json memory = Json::object();
  memory.set("alpha_m", c.cfg.memory.alpha_m);
  memory.set("xi_m", c.cfg.memory.xi_m);
  Json config = Json::object();
  config.set("core", std::move(core));
  config.set("memory", std::move(memory));
  config.set("num_cores", c.cfg.num_cores);
  doc.set("config", std::move(config));

  if (!c.ladder.empty()) {
    Json ladder = Json::array();
    for (double level : c.ladder) ladder.push_back(level);
    doc.set("ladder", std::move(ladder));
  }

  if (!c.cfg.memory.ladder.empty()) {
    // xi is stored, not derived (frozen-oracle bit-identity), so every
    // field round-trips verbatim through add_state_exact.
    Json states = Json::array();
    for (const auto& s : c.cfg.memory.ladder.states()) {
      Json js = Json::object();
      js.set("name", s.name);
      js.set("power", s.power);
      js.set("pair_energy", s.pair_energy);
      js.set("latency", s.latency);
      js.set("xi", s.xi);
      states.push_back(std::move(js));
    }
    doc.set("sleep_ladder", std::move(states));
  }

  Json tasks = Json::array();
  for (const auto& t : c.tasks.tasks()) {
    Json jt = Json::object();
    jt.set("id", t.id);
    jt.set("release", t.release);
    jt.set("deadline", t.deadline);
    jt.set("work", t.work);
    tasks.push_back(std::move(jt));
  }
  doc.set("tasks", std::move(tasks));

  if (!violations.empty()) {
    Json viols = Json::array();
    for (const auto& v : violations) {
      Json jv = Json::object();
      jv.set("invariant", v.invariant);
      jv.set("detail", v.detail);
      viols.push_back(std::move(jv));
    }
    doc.set("violations", std::move(viols));
  }
  return doc.dump(2);
}

FuzzCase repro_from_json(const std::string& text) {
  const Json doc = Json::parse(text);
  if (!doc.is_object() || !doc.has("sdem_repro"))
    throw std::invalid_argument("repro: not an sdem_repro document");
  try {
    return parse_repro_body(doc);
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const std::logic_error& e) {
    // Json accessors throw logic_error/out_of_range on shape mismatches;
    // fold them into the documented contract.
    throw std::invalid_argument(std::string("repro: ") + e.what());
  }
}

namespace {

FuzzCase parse_repro_body(const Json& doc) {
  FuzzCase c;
  c.model = model_class_from_string(doc.at("model").as_string());
  if (const Json* seed = doc.find("seed"); seed && seed->is_string()) {
    c.seed = std::strtoull(seed->as_string().c_str(), nullptr, 10);
  }

  const Json& config = doc.at("config");
  const Json& core = config.at("core");
  c.cfg.core.alpha = require_number(core, "alpha");
  c.cfg.core.beta = require_number(core, "beta");
  c.cfg.core.lambda = require_number(core, "lambda");
  c.cfg.core.s_min = core.number_or("s_min", 0.0);
  c.cfg.core.s_up = require_number(core, "s_up");
  c.cfg.core.xi = core.number_or("xi", 0.0);
  const Json& memory = config.at("memory");
  c.cfg.memory.alpha_m = require_number(memory, "alpha_m");
  c.cfg.memory.xi_m = memory.number_or("xi_m", 0.0);
  c.cfg.num_cores = static_cast<int>(config.number_or("num_cores", 0.0));

  if (const Json* ladder = doc.find("ladder")) {
    for (std::size_t i = 0; i < ladder->size(); ++i) {
      c.ladder.push_back(ladder->at(i).as_number());
    }
  }

  if (const Json* states = doc.find("sleep_ladder")) {
    for (std::size_t i = 0; i < states->size(); ++i) {
      const Json& js = states->at(i);
      SleepState s;
      if (const Json* name = js.find("name"); name && name->is_string()) {
        s.name = name->as_string();
      }
      s.power = require_number(js, "power");
      s.pair_energy = require_number(js, "pair_energy");
      s.latency = require_number(js, "latency");
      s.xi = require_number(js, "xi");
      c.cfg.memory.ladder.add_state_exact(std::move(s));
    }
  }

  const Json& tasks = doc.at("tasks");
  if (!tasks.is_array())
    throw std::invalid_argument("repro: 'tasks' must be an array");
  std::vector<Task> v;
  v.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Json& jt = tasks.at(i);
    Task t;
    if (!task_id_from_number(require_number(jt, "id"), &t.id))
      throw std::invalid_argument("repro: task id must be an integer");
    t.release = require_number(jt, "release");
    t.deadline = require_number(jt, "deadline");
    t.work = require_number(jt, "work");
    v.push_back(t);
  }
  c.tasks = TaskSet(std::move(v));
  if (const std::string err = c.tasks.validate(); !err.empty())
    throw std::invalid_argument("repro: " + err);
  return c;
}

}  // namespace

std::string repro_test_body(const FuzzCase& c, const std::string& test_name) {
  std::string out;
  out += "TEST(FuzzRegression, " + test_name + ") {\n";
  out += "  sdem::SystemConfig cfg;\n";
  out += "  cfg.core.alpha = " + Json::number_to_string(c.cfg.core.alpha) +
         ";\n";
  out += "  cfg.core.beta = " + Json::number_to_string(c.cfg.core.beta) +
         ";\n";
  out += "  cfg.core.lambda = " + Json::number_to_string(c.cfg.core.lambda) +
         ";\n";
  out += "  cfg.core.s_up = " + Json::number_to_string(c.cfg.core.s_up) +
         ";\n";
  if (c.cfg.core.s_min != 0.0)
    out += "  cfg.core.s_min = " + Json::number_to_string(c.cfg.core.s_min) +
           ";\n";
  if (c.cfg.core.xi != 0.0)
    out += "  cfg.core.xi = " + Json::number_to_string(c.cfg.core.xi) + ";\n";
  out += "  cfg.memory.alpha_m = " +
         Json::number_to_string(c.cfg.memory.alpha_m) + ";\n";
  if (c.cfg.memory.xi_m != 0.0)
    out += "  cfg.memory.xi_m = " + Json::number_to_string(c.cfg.memory.xi_m) +
           ";\n";
  out += "  cfg.num_cores = " + std::to_string(c.cfg.num_cores) + ";\n";
  out += "  sdem::TaskSet ts;\n";
  for (const auto& t : c.tasks.tasks()) {
    out += "  ts.add({" + std::to_string(t.id) + ", " +
           Json::number_to_string(t.release) + ", " +
           Json::number_to_string(t.deadline) + ", " +
           Json::number_to_string(t.work) + "});\n";
  }
  out += "  sdem::testing::FuzzCase c;\n";
  out += "  c.model = sdem::testing::ModelClass::k";
  switch (c.model) {
    case ModelClass::kCommonRelease:
      out += "CommonRelease";
      break;
    case ModelClass::kAgreeable:
      out += "Agreeable";
      break;
    case ModelClass::kGeneral:
      out += "General";
      break;
    case ModelClass::kSleepLadder:
      out += "SleepLadder";
      break;
  }
  out += ";\n";
  if (!c.cfg.memory.ladder.empty()) {
    for (const auto& s : c.cfg.memory.ladder.states()) {
      out += "  cfg.memory.ladder.add_state_exact({\"" + s.name + "\", " +
             Json::number_to_string(s.power) + ", " +
             Json::number_to_string(s.pair_energy) + ", " +
             Json::number_to_string(s.latency) + ", " +
             Json::number_to_string(s.xi) + "});\n";
    }
  }
  out += "  c.cfg = cfg;\n";
  out += "  c.tasks = ts;\n";
  if (!c.ladder.empty()) {
    out += "  c.ladder = {";
    for (std::size_t i = 0; i < c.ladder.size(); ++i) {
      if (i) out += ", ";
      out += Json::number_to_string(c.ladder[i]);
    }
    out += "};\n";
  }
  out += "  const auto violations = sdem::testing::check_case(c);\n";
  out +=
      "  EXPECT_TRUE(violations.empty())\n      << sdem::testing::summarize(violations);\n";
  out += "}\n";
  return out;
}

}  // namespace sdem::testing
