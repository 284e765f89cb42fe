#include "core/injection_log.hpp"

#include <fstream>
#include <sstream>

#include "obs/trace.hpp"
#include "util/common.hpp"

namespace ckptfi::core {

void InjectionRecord::write_json(std::string& out) const {
  out += "{\"location\":";
  Json::write_string(out, location);
  // u64 fields print as the i64 they cast to, as Json(std::uint64_t) does;
  // from_json casts them back.
  out += ",\"index\":";
  Json::write_int(out, static_cast<std::int64_t>(index));
  if (!canonical_param.empty()) {
    out += ",\"canonical_param\":";
    Json::write_string(out, canonical_param);
  }
  if (!layer.empty()) {
    out += ",\"layer\":";
    Json::write_string(out, layer);
  }
  if (canonical_index) {
    out += ",\"canonical_index\":";
    Json::write_int(out, static_cast<std::int64_t>(*canonical_index));
  }
  out += ",\"bits\":[";
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (i) out += ',';
    Json::write_int(out, bits[i]);
  }
  out += ']';
  if (scale) {
    out += ",\"scale\":";
    Json::write_double(out, *scale);
  }
  out += ",\"old_value\":";
  Json::write_double(out, old_value);
  out += ",\"new_value\":";
  Json::write_double(out, new_value);
  if (wall_ms) {
    out += ",\"wall_ms\":";
    Json::write_double(out, *wall_ms);
  }
  if (rng_draw) {
    out += ",\"rng_draw\":";
    Json::write_int(out, static_cast<std::int64_t>(*rng_draw));
  }
  out += '}';
}

Json InjectionRecord::to_json() const {
  std::string text;
  write_json(text);
  return Json::parse(text);
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

void InjectionLog::write_json(std::string& out) const {
  // A campaign row embeds this log (1000 records on the predict benches):
  // it is written straight into the row's text, never built as a tree.
  obs::Span span("injection_log.to_json", "log");
  out += "{\"version\":1,\"meta\":{";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    if (i) out += ',';
    Json::write_string(out, meta_[i].first);
    out += ':';
    Json::write_string(out, meta_[i].second);
  }
  out += "},\"injections\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (i) out += ',';
    records_[i].write_json(out);
  }
  out += ']';
  if (!divergence_.is_null()) {
    out += ",\"divergence\":";
    out += divergence_.dump();
  }
  out += '}';
}

Json InjectionLog::to_json() const {
  std::string text;
  write_json(text);
  return Json::parse(text);
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
