// Tiny typed key=value configuration store.
//
// Used by examples and the bench harness to override machine / simulation
// parameters from the command line ("key=value" tokens) without a heavyweight
// flags library.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace anton {

class Config {
 public:
  Config() = default;

  // Parses "key=value" tokens; unknown tokens raise.
  static Config from_args(int argc, const char* const* argv);
  static Config from_tokens(const std::vector<std::string>& tokens);

  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  int64_t get_int(const std::string& key, int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace anton
