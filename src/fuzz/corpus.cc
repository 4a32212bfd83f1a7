#include "fuzz/corpus.h"

#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "config/test_config.h"
#include "util/file_io.h"

namespace lumina {
namespace {

constexpr const char* kMagic = "# lumina fuzz corpus v1";

/// Shortest text that parses back to exactly this double (the same policy
/// serialize_test_config uses for ge-p/ge-r, so scores and configs share
/// one round-trip discipline).
std::string format_double(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

void append_entry(std::string& out, const char* tag,
                  const FuzzIteration& entry, bool with_anomaly_flag) {
  out += "--- ";
  out += tag;
  out += " score=";
  out += format_double(entry.score);
  if (with_anomaly_flag) {
    out += " anomaly=";
    out += entry.anomaly ? '1' : '0';
  }
  out += '\n';
  out += serialize_test_config(entry.config);  // ends in '\n'
  out += "--- end\n";
}

/// Parses "key=value" tokens from an entry frame line after the tag.
double parse_score(const std::string& line) {
  const auto pos = line.find("score=");
  if (pos == std::string::npos) {
    throw YamlError("corpus entry frame missing score: " + line);
  }
  return std::strtod(line.c_str() + pos + 6, nullptr);
}

bool parse_anomaly_flag(const std::string& line) {
  const auto pos = line.find("anomaly=");
  return pos != std::string::npos && line[pos + 8] == '1';
}

}  // namespace

std::string serialize_corpus(const FuzzCorpusState& state) {
  std::string out;
  out += kMagic;
  out += '\n';
  out += "steps-done: " + std::to_string(state.steps_done) + '\n';
  out += std::string("done: ") + (state.done ? "true" : "false") + '\n';
  out += "rng-state:";
  for (const std::uint64_t word : state.rng_state) {
    out += ' ';
    out += std::to_string(word);
  }
  out += '\n';
  for (const auto& entry : state.pool) {
    append_entry(out, "entry", entry, /*with_anomaly_flag=*/true);
  }
  if (state.anomaly.has_value()) {
    append_entry(out, "anomaly", *state.anomaly,
                 /*with_anomaly_flag=*/false);
  }
  return out;
}

FuzzCorpusState parse_corpus(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    throw YamlError("not a lumina fuzz corpus (bad magic line)");
  }
  FuzzCorpusState state;

  const auto expect_prefix = [&](const std::string& prefix) {
    if (!std::getline(in, line) || line.rfind(prefix, 0) != 0) {
      throw YamlError("corpus header missing '" + prefix + "'");
    }
    return line.substr(prefix.size());
  };
  state.steps_done = std::atoi(expect_prefix("steps-done: ").c_str());
  state.done = expect_prefix("done: ") == "true";
  {
    std::istringstream words(expect_prefix("rng-state:"));
    for (auto& word : state.rng_state) {
      if (!(words >> word)) {
        throw YamlError("corpus rng-state needs four words");
      }
    }
  }

  while (std::getline(in, line)) {
    const bool is_entry = line.rfind("--- entry ", 0) == 0;
    const bool is_anomaly = line.rfind("--- anomaly ", 0) == 0;
    if (!is_entry && !is_anomaly) {
      throw YamlError("unexpected corpus line: " + line);
    }
    FuzzIteration entry;
    entry.score = parse_score(line);
    entry.anomaly = is_anomaly || parse_anomaly_flag(line);
    std::string config_text;
    bool closed = false;
    while (std::getline(in, line)) {
      if (line == "--- end") {
        closed = true;
        break;
      }
      config_text += line;
      config_text += '\n';
    }
    if (!closed) throw YamlError("corpus entry not closed by '--- end'");
    entry.config = load_test_config(parse_yaml(config_text));
    if (is_anomaly) {
      state.anomaly = std::move(entry);
    } else {
      state.pool.push_back(std::move(entry));
    }
  }
  return state;
}

bool write_corpus_file(const FuzzCorpusState& state, const std::string& path,
                       std::string* failed_path) {
  if (write_file(path, serialize_corpus(state))) return true;
  if (failed_path) *failed_path = path;
  return false;
}

std::optional<FuzzCorpusState> load_corpus_file(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return std::nullopt;
  const std::optional<std::string> text = read_file(path);
  if (!text) throw YamlError("cannot read corpus file " + path);
  return parse_corpus(*text);
}

std::uint64_t corpus_digest(const std::string& serialized) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char byte : serialized) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;  // FNV prime
  }
  return hash;
}

}  // namespace lumina
