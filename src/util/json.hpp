// The one JSON writer: every document the tree emits (metrics, chrome
// traces, flight reports, fault stats, bench reports) goes through it.
//
// Layout is one rule, with no options: the members of the root and of
// its direct children go one per line, indented two spaces per level;
// anything deeper is written inline as `{"k": v, "k2": v2}`. Integers are
// written exactly. Doubles are written in shortest round-trip form
// (std::to_chars), and a non-finite double is written as `null`. Strings
// escape `"`, `\` and every control character, so a name that comes from
// outside (a fault-plan site, an xApp id, a span name) cannot break the
// document.
//
//   json::Writer w;
//   w.begin_object().field("schema", "orev-example-v1");
//   w.key("runs").begin_array();
//   for (const Run& r : runs)
//     w.begin_object().field("threads", r.threads).end_object();
//   w.end_array().end_object();
//   persist::atomic_write_file(path, w.str());
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>
#include <vector>

namespace orev::json {

class Writer {
 public:
  Writer& begin_object() { return open(false); }
  Writer& end_object() { return close(false); }
  Writer& begin_array() { return open(true); }
  Writer& end_array() { return close(true); }

  /// An object member's name; the next call writes its value.
  Writer& key(std::string_view k);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(bool b);
  Writer& value(double v);
  template <std::integral T>
  Writer& value(T v) {
    before_value();
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    out_.append(buf, static_cast<std::size_t>(end - buf));
    return *this;
  }

  /// key(k), then value(v).
  template <typename T>
  Writer& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  /// Splice in, inline, a complete document that a Writer produced (its
  /// str()).
  Writer& raw(std::string_view doc);

  /// The finished document, newline-terminated.
  std::string str() const;

 private:
  struct Level {
    bool array;
    bool empty;
  };

  Writer& open(bool array);
  Writer& close(bool array);
  void before_value();
  void separate();
  void newline(std::size_t depth);
  void string(std::string_view s);

  std::string out_;
  std::vector<Level> stack_;
  bool after_key_ = false;
};

}  // namespace orev::json
