#include "common/config.h"

#include <cstdlib>

#include "common/error.h"

namespace anton {

Config Config::from_args(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  tokens.reserve(static_cast<size_t>(argc > 0 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  return from_tokens(tokens);
}

Config Config::from_tokens(const std::vector<std::string>& tokens) {
  Config c;
  for (size_t i = 0; i < tokens.size(); ++i) {
    std::string tok = tokens[i];
    // GNU-style flags: "--key=value", "--key value", bare "--flag" (true).
    const bool dashed = tok.rfind("--", 0) == 0 && tok.size() > 2;
    if (dashed) tok = tok.substr(2);
    const auto eq = tok.find('=');
    if (eq != std::string::npos && eq > 0) {
      c.set(tok.substr(0, eq), tok.substr(eq + 1));
      continue;
    }
    ANTON_CHECK_MSG(dashed && eq != 0,
                    "expected key=value or --key [value], got '" << tokens[i]
                                                                 << "'");
    // "--key value" when the next token isn't itself a key; else a bare
    // boolean flag.
    const bool next_is_value =
        i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0 &&
        tokens[i + 1].find('=') == std::string::npos;
    if (next_is_value) {
      c.set(tok, tokens[++i]);
    } else {
      c.set(tok, "true");
    }
  }
  return c;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

int64_t Config::get_int(const std::string& key, int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  ANTON_CHECK_MSG(end && *end == '\0',
                  "config key '" << key << "': bad integer '" << it->second
                                 << "'");
  return v;
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  ANTON_CHECK_MSG(end && *end == '\0',
                  "config key '" << key << "': bad number '" << it->second
                                 << "'");
  return v;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& s = it->second;
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  ANTON_CHECK_MSG(false, "config key '" << key << "': bad bool '" << s << "'");
  return fallback;
}

}  // namespace anton
