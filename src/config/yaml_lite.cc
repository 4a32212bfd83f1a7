#include "config/yaml_lite.h"

#include <cctype>
#include <optional>
#include <sstream>

#include "util/file_io.h"

namespace lumina {
namespace {

const YamlNode& null_node() {
  static const YamlNode node;
  return node;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Strips a trailing comment. A '#' begins a comment at line start or when
/// preceded by whitespace (so "a#b" stays intact).
std::string strip_comment(const std::string& line) {
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '#' &&
        (i == 0 || std::isspace(static_cast<unsigned char>(line[i - 1])))) {
      return line.substr(0, i);
    }
  }
  return line;
}

struct Line {
  int indent = 0;
  std::string content;  // trimmed, comment-free
  int number = 0;       // 1-based source line
};

std::vector<Line> split_lines(const std::string& text) {
  std::vector<Line> out;
  std::istringstream in(text);
  std::string raw;
  int number = 0;
  while (std::getline(in, raw)) {
    ++number;
    const std::string no_comment = strip_comment(raw);
    const std::string content = trim(no_comment);
    if (content.empty()) continue;
    int indent = 0;
    for (const char c : no_comment) {
      if (c == ' ') {
        ++indent;
      } else if (c == '\t') {
        throw YamlError("line " + std::to_string(number) +
                        ": tabs are not allowed for indentation");
      } else {
        break;
      }
    }
    out.push_back(Line{indent, content, number});
  }
  return out;
}

// ---- flow syntax ([...], {...}, scalars) ---------------------------------

class FlowParser {
 public:
  FlowParser(const std::string& text, int line) : text_(text), line_(line) {}

  YamlNode parse() {
    YamlNode node = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after value");
    return node;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw YamlError("line " + std::to_string(line_) + ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  YamlNode parse_value() {
    skip_ws();
    switch (peek()) {
      case '[': return parse_flow_list();
      case '{': return parse_flow_map();
      default: return parse_scalar();
    }
  }

  YamlNode parse_flow_list() {
    ++pos_;  // '['
    YamlNode node = YamlNode::list();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return node;
    }
    for (;;) {
      node.list_append(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return node;
      }
      fail("expected ',' or ']' in flow list");
    }
  }

  YamlNode parse_flow_map() {
    ++pos_;  // '{'
    YamlNode node = YamlNode::map();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return node;
    }
    for (;;) {
      skip_ws();
      const std::string key = parse_bare_token(":");
      skip_ws();
      if (peek() != ':') fail("expected ':' in flow map");
      ++pos_;
      node.map_set(key, parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return node;
      }
      fail("expected ',' or '}' in flow map");
    }
  }

  /// Reads a scalar token ending at any of `,]}` (inside flow context) or
  /// end of line. Quoted strings may contain any of those.
  YamlNode parse_scalar() {
    skip_ws();
    if (peek() == '"' || peek() == '\'') {
      const char quote = text_[pos_++];
      std::string out;
      while (pos_ < text_.size() && text_[pos_] != quote) {
        out.push_back(text_[pos_++]);
      }
      if (pos_ == text_.size()) fail("unterminated quoted string");
      ++pos_;  // closing quote
      return YamlNode::scalar(out);
    }
    const std::string token = parse_bare_token(",]}");
    if (token.empty()) fail("expected a value");
    return YamlNode::scalar(token);
  }

  std::string parse_bare_token(const std::string& terminators) {
    std::string out;
    while (pos_ < text_.size() &&
           terminators.find(text_[pos_]) == std::string::npos) {
      out.push_back(text_[pos_++]);
    }
    return trim(out);
  }

  const std::string& text_;
  int line_;
  std::size_t pos_ = 0;
};

// ---- block syntax ---------------------------------------------------------

class BlockParser {
 public:
  explicit BlockParser(std::vector<Line> lines) : lines_(std::move(lines)) {}

  YamlNode parse() {
    if (lines_.empty()) return YamlNode();
    YamlNode node = parse_block(lines_[0].indent);
    if (pos_ != lines_.size()) {
      fail(lines_[pos_], "unexpected indentation");
    }
    return node;
  }

 private:
  [[noreturn]] static void fail(const Line& line, const std::string& msg) {
    throw YamlError("line " + std::to_string(line.number) + ": " + msg);
  }

  bool done() const { return pos_ >= lines_.size(); }
  const Line& cur() const { return lines_[pos_]; }

  static bool is_list_item(const Line& line) {
    return line.content == "-" || line.content.rfind("- ", 0) == 0;
  }

  /// Finds the split point of "key: value" at top nesting level; -1 if the
  /// line is not a mapping entry (then it is a bare flow value).
  static int key_split(const std::string& s) {
    int depth = 0;
    char quote = '\0';
    for (std::size_t i = 0; i < s.size(); ++i) {
      const char c = s[i];
      if (quote != '\0') {
        if (c == quote) quote = '\0';
        continue;
      }
      if (c == '"' || c == '\'') {
        quote = c;
      } else if (c == '[' || c == '{') {
        ++depth;
      } else if (c == ']' || c == '}') {
        --depth;
      } else if (c == ':' && depth == 0 &&
                 (i + 1 == s.size() || s[i + 1] == ' ')) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  YamlNode parse_block(int indent) {
    if (done() || cur().indent < indent) return YamlNode();
    if (is_list_item(cur())) return parse_list(indent);
    return parse_map(indent);
  }

  YamlNode parse_list(int indent) {
    YamlNode node = YamlNode::list();
    while (!done() && cur().indent == indent && is_list_item(cur())) {
      const Line line = cur();
      ++pos_;
      const std::string rest = trim(line.content.substr(1));
      if (rest.empty()) {
        // "-" alone: nested block follows with deeper indentation.
        if (done() || cur().indent <= indent) {
          fail(line, "empty list item");
        }
        node.list_append(parse_block(cur().indent));
      } else if (key_split(rest) >= 0) {
        // "- key: value" — inline map start; absorb following deeper lines.
        node.list_append(parse_inline_map_item(line, rest, indent));
      } else {
        node.list_append(FlowParser(rest, line.number).parse());
      }
    }
    return node;
  }

  /// Handles "- key: value" followed by optional further keys at deeper
  /// indentation (indent of the "-" plus 2). Keys with no inline value
  /// open a nested block, exactly as in a regular map — campaign files
  /// nest whole experiment configs inside list items this way.
  YamlNode parse_inline_map_item(const Line& line, const std::string& rest,
                                 int dash_indent) {
    YamlNode node = YamlNode::map();
    const int item_indent = dash_indent + 2;
    set_map_entry(node, line, rest, item_indent);
    while (!done() && cur().indent == item_indent && !is_list_item(cur())) {
      const Line extra = cur();
      ++pos_;
      set_map_entry(node, extra, extra.content, item_indent);
    }
    return node;
  }

  /// Parses one "key: value" / "key:" entry of a list-item map and stores
  /// it in `node`. A bare "key:" consumes the nested block (deeper lines,
  /// or a list at the key's own indentation) that follows it.
  void set_map_entry(YamlNode& node, const Line& line,
                     const std::string& text, int key_indent) {
    const int split = key_split(text);
    if (split < 0) fail(line, "expected 'key: value'");
    const std::string key =
        trim(text.substr(0, static_cast<std::size_t>(split)));
    const std::string value =
        trim(text.substr(static_cast<std::size_t>(split) + 1));
    if (!value.empty()) {
      node.map_set(key, FlowParser(value, line.number).parse());
    } else if (!done() && cur().indent > key_indent) {
      node.map_set(key, parse_block(cur().indent));
    } else if (!done() && cur().indent == key_indent && is_list_item(cur())) {
      node.map_set(key, parse_list(key_indent));
    } else {
      node.map_set(key, YamlNode());
    }
  }

  YamlNode parse_map(int indent) {
    YamlNode node = YamlNode::map();
    while (!done() && cur().indent == indent && !is_list_item(cur())) {
      const Line line = cur();
      const int split = key_split(line.content);
      if (split < 0) fail(line, "expected 'key: value' or list item");
      ++pos_;
      const std::string key =
          trim(line.content.substr(0, static_cast<std::size_t>(split)));
      const std::string value =
          trim(line.content.substr(static_cast<std::size_t>(split) + 1));
      if (!value.empty()) {
        node.map_set(key, FlowParser(value, line.number).parse());
        continue;
      }
      // Nested block: either deeper-indented child content, or a list whose
      // "-" items sit at the same indentation as the key (YAML allows both).
      if (!done() && cur().indent > indent) {
        node.map_set(key, parse_block(cur().indent));
      } else if (!done() && cur().indent == indent && is_list_item(cur())) {
        node.map_set(key, parse_list(indent));
      } else {
        node.map_set(key, YamlNode());
      }
    }
    return node;
  }

  std::vector<Line> lines_;
  std::size_t pos_ = 0;
};

}  // namespace

YamlNode YamlNode::scalar(std::string text) {
  YamlNode node;
  node.kind_ = Kind::kScalar;
  node.scalar_ = std::move(text);
  return node;
}

YamlNode YamlNode::list() {
  YamlNode node;
  node.kind_ = Kind::kList;
  return node;
}

YamlNode YamlNode::map() {
  YamlNode node;
  node.kind_ = Kind::kMap;
  return node;
}

const std::string& YamlNode::as_string() const {
  if (!is_scalar()) throw YamlError("node is not a scalar");
  return scalar_;
}

std::int64_t YamlNode::as_int() const {
  const std::string& s = as_string();
  std::size_t used = 0;
  std::int64_t v = 0;
  try {
    v = std::stoll(s, &used, 0);
  } catch (const std::exception&) {
    throw YamlError("'" + s + "' is not an integer");
  }
  if (used != s.size()) throw YamlError("'" + s + "' is not an integer");
  return v;
}

double YamlNode::as_double() const {
  const std::string& s = as_string();
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(s, &used);
  } catch (const std::exception&) {
    throw YamlError("'" + s + "' is not a number");
  }
  if (used != s.size()) throw YamlError("'" + s + "' is not a number");
  return v;
}

bool YamlNode::as_bool() const {
  const std::string& s = as_string();
  if (s == "true" || s == "True" || s == "TRUE" || s == "yes") return true;
  if (s == "false" || s == "False" || s == "FALSE" || s == "no") return false;
  throw YamlError("'" + s + "' is not a boolean");
}

std::int64_t YamlNode::as_int_or(std::int64_t def) const {
  return is_null() ? def : as_int();
}
double YamlNode::as_double_or(double def) const {
  return is_null() ? def : as_double();
}
bool YamlNode::as_bool_or(bool def) const {
  return is_null() ? def : as_bool();
}
std::string YamlNode::as_string_or(std::string def) const {
  return is_null() ? def : as_string();
}

bool YamlNode::has(const std::string& key) const {
  if (!is_map()) return false;
  for (const auto& [k, v] : entries_) {
    if (k == key) return true;
  }
  return false;
}

const YamlNode& YamlNode::operator[](const std::string& key) const {
  if (is_map()) {
    for (const auto& [k, v] : entries_) {
      if (k == key) return v;
    }
  }
  return null_node();
}

const std::vector<std::pair<std::string, YamlNode>>& YamlNode::entries()
    const {
  if (!is_map()) throw YamlError("node is not a map");
  return entries_;
}

std::size_t YamlNode::size() const {
  if (is_list()) return items_.size();
  if (is_map()) return entries_.size();
  return 0;
}

const YamlNode& YamlNode::operator[](std::size_t index) const {
  if (!is_list() || index >= items_.size()) return null_node();
  return items_[index];
}

const std::vector<YamlNode>& YamlNode::items() const {
  if (!is_list()) throw YamlError("node is not a list");
  return items_;
}

void YamlNode::map_set(const std::string& key, YamlNode value) {
  if (!is_map()) throw YamlError("node is not a map");
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  entries_.emplace_back(key, std::move(value));
}

void YamlNode::list_append(YamlNode value) {
  if (!is_list()) throw YamlError("node is not a list");
  items_.push_back(std::move(value));
}

YamlNode parse_yaml(const std::string& text) {
  return BlockParser(split_lines(text)).parse();
}

YamlNode parse_yaml_file(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) throw YamlError("cannot open file: " + path);
  return parse_yaml(*text);
}

}  // namespace lumina
