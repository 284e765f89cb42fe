#include "core/injection_log.hpp"

#include <fstream>
#include <sstream>

#include "obs/trace.hpp"
#include "util/common.hpp"

namespace ckptfi::core {

Json InjectionRecord::to_json() const {
  Json j = Json::object();
  j["location"] = location;
  j["index"] = index;
  if (!canonical_param.empty()) j["canonical_param"] = canonical_param;
  if (!layer.empty()) j["layer"] = layer;
  if (canonical_index) j["canonical_index"] = *canonical_index;
  Json bits_json = Json::array();
  for (int b : bits) bits_json.push_back(b);
  j["bits"] = std::move(bits_json);
  if (scale) j["scale"] = *scale;
  j["old_value"] = old_value;
  j["new_value"] = new_value;
  if (wall_ms) j["wall_ms"] = *wall_ms;
  if (rng_draw) j["rng_draw"] = *rng_draw;
  return j;
}

InjectionRecord InjectionRecord::from_json(const Json& j) {
  InjectionRecord r;
  r.location = j.at("location").as_string();
  r.index = static_cast<std::uint64_t>(j.at("index").as_int());
  if (j.contains("canonical_param"))
    r.canonical_param = j.at("canonical_param").as_string();
  if (j.contains("layer")) r.layer = j.at("layer").as_string();
  if (j.contains("canonical_index"))
    r.canonical_index =
        static_cast<std::uint64_t>(j.at("canonical_index").as_int());
  if (j.contains("bits")) {
    for (const auto& b : j.at("bits").items())
      r.bits.push_back(static_cast<int>(b.as_int()));
  }
  if (j.contains("scale")) r.scale = j.at("scale").as_double();
  if (j.contains("old_value") && j.at("old_value").is_number())
    r.old_value = j.at("old_value").as_double();
  if (j.contains("new_value") && j.at("new_value").is_number())
    r.new_value = j.at("new_value").as_double();
  if (j.contains("wall_ms")) r.wall_ms = j.at("wall_ms").as_double();
  if (j.contains("rng_draw"))
    r.rng_draw = static_cast<std::uint64_t>(j.at("rng_draw").as_int());
  return r;
}

void InjectionLog::set_meta(const std::string& key, const std::string& value) {
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  meta_.emplace_back(key, value);
}

std::string InjectionLog::meta(const std::string& key) const {
  for (const auto& [k, v] : meta_) {
    if (k == key) return v;
  }
  return "";
}

Json InjectionLog::to_json() const {
  // A campaign row embeds this log (1000 records on the predict benches), so
  // the subtrees are moved into place rather than deep-copied.
  obs::Span span("injection_log.to_json", "log");
  Json j = Json::object();
  j["version"] = 1;
  Json meta_json = Json::object();
  for (const auto& [k, v] : meta_) meta_json[k] = v;
  j["meta"] = std::move(meta_json);
  Json arr = Json::array();
  for (const auto& r : records_) arr.push_back(r.to_json());
  j["injections"] = std::move(arr);
  if (!divergence_.is_null()) j["divergence"] = divergence_;
  return j;
}

InjectionLog InjectionLog::from_json(const Json& j) {
  InjectionLog log;
  if (j.contains("meta")) {
    for (const auto& [k, v] : j.at("meta").members())
      log.set_meta(k, v.as_string());
  }
  require(j.contains("injections"), "InjectionLog: missing 'injections'");
  for (const auto& r : j.at("injections").items())
    log.add(InjectionRecord::from_json(r));
  if (j.contains("divergence")) log.set_divergence(j.at("divergence"));
  return log;
}

void InjectionLog::save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw Error("InjectionLog: cannot write '" + path + "'");
  out << to_json().dump(2) << "\n";
}

InjectionLog InjectionLog::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("InjectionLog: cannot open '" + path + "'");
  std::stringstream ss;
  ss << in.rdbuf();
  return from_json(Json::parse(ss.str()));
}

}  // namespace ckptfi::core
