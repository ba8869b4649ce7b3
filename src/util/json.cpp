#include "util/json.hpp"

#include <cmath>

#include "util/check.hpp"

namespace orev::json {

namespace {
/// Containers nested at most this deep (the root is 1) write their
/// members one per line; deeper ones are inline.
constexpr std::size_t kBlockDepth = 2;
}  // namespace

Writer& Writer::key(std::string_view k) {
  OREV_CHECK(!stack_.empty() && !stack_.back().array && !after_key_,
             "json: a key belongs directly inside an object");
  separate();
  string(k);
  out_ += ": ";
  after_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  before_value();
  string(s);
  return *this;
}

Writer& Writer::value(bool b) {
  before_value();
  out_ += b ? "true" : "false";
  return *this;
}

Writer& Writer::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out_.append(buf, static_cast<std::size_t>(end - buf));
  return *this;
}

Writer& Writer::raw(std::string_view doc) {
  before_value();
  // A Writer's newlines are layout only (strings escape theirs): drop each
  // with its indent, keeping the space an inline separator carries.
  for (std::size_t i = 0; i < doc.size(); ++i) {
    if (doc[i] != '\n') {
      out_ += doc[i];
      continue;
    }
    while (i + 1 < doc.size() && doc[i + 1] == ' ') ++i;
    if (!out_.empty() && out_.back() == ',') out_ += ' ';
  }
  return *this;
}

std::string Writer::str() const {
  OREV_CHECK(stack_.empty() && !out_.empty(), "json: document not closed");
  return out_ + '\n';
}

Writer& Writer::open(bool array) {
  before_value();
  out_ += array ? '[' : '{';
  stack_.push_back(Level{array, true});
  return *this;
}

Writer& Writer::close(bool array) {
  OREV_CHECK(!stack_.empty() && stack_.back().array == array && !after_key_,
             "json: close does not match the open container");
  const std::size_t depth = stack_.size();
  const bool empty = stack_.back().empty;
  stack_.pop_back();
  if (!empty && depth <= kBlockDepth) newline(depth - 1);
  out_ += array ? ']' : '}';
  return *this;
}

void Writer::before_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  OREV_CHECK(stack_.empty() ? out_.empty() : stack_.back().array,
             "json: an object member needs a key");
  separate();
}

void Writer::separate() {
  if (stack_.empty()) return;
  Level& top = stack_.back();
  if (!top.empty) out_ += ',';
  if (stack_.size() <= kBlockDepth) {
    newline(stack_.size());
  } else if (!top.empty) {
    out_ += ' ';
  }
  top.empty = false;
}

void Writer::newline(std::size_t depth) {
  out_ += '\n';
  out_.append(2 * depth, ' ');
}

void Writer::string(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_ += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out_ += "\\u00";
          out_ += kHex[c >> 4];
          out_ += kHex[c & 0xf];
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

}  // namespace orev::json
