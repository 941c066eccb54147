#include "answers.h"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace perfbench {

namespace {

namespace rdf = shapestats::rdf;

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

using Binding = std::pair<std::string, std::string>;  // variable, N-Triples

uint64_t HashRow(std::vector<Binding>* row) {
  std::sort(row->begin(), row->end());
  uint64_t h = Fnv1a("");
  for (const Binding& b : *row) {
    h = Fnv1a(b.first, h);
    h = Fnv1a("=", h);
    h = Fnv1a(b.second, h);
    h = Fnv1a("\x1f", h);
  }
  return h;
}

// Minimal JSON reader for the SPARQL 1.1 results format the server emits.
class JsonReader {
 public:
  explicit JsonReader(std::string_view s) : s_(s) {}

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  void Ws() {
    while (pos_ < s_.size() && std::strchr(" \t\r\n", s_[pos_]) != nullptr) ++pos_;
  }
  bool Peek(char c) {
    Ws();
    return pos_ < s_.size() && s_[pos_] == c;
  }
  bool Eat(char c) {
    if (!Peek(c)) return false;
    ++pos_;
    return true;
  }
  void Expect(char c) {
    if (!Eat(c)) Fail(std::string("expected '") + c + "'");
  }
  void Fail(const std::string& why) {
    if (ok_) error_ = why + " at offset " + std::to_string(pos_);
    ok_ = false;
    pos_ = s_.size();
  }

  std::string String() {
    std::string out;
    Expect('"');
    while (ok_) {
      if (pos_ >= s_.size()) {
        Fail("unterminated string");
        break;
      }
      char c = s_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) {
        Fail("bad escape");
        break;
      }
      char e = s_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out.push_back(e); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': AppendUtf8(CodeUnit(), &out); break;
        default: Fail("bad escape");
      }
    }
    return out;
  }

  bool Literal(std::string_view word) {
    Ws();
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  // Skips any JSON value.
  void Skip() {
    Ws();
    if (Peek('"')) {
      String();
    } else if (Eat('{')) {
      if (Eat('}')) return;
      do {
        String();
        Expect(':');
        Skip();
      } while (ok_ && Eat(','));
      Expect('}');
    } else if (Eat('[')) {
      if (Eat(']')) return;
      do Skip(); while (ok_ && Eat(','));
      Expect(']');
    } else if (!Literal("true") && !Literal("false") && !Literal("null")) {
      size_t start = pos_;
      while (pos_ < s_.size() && std::strchr("+-.eE0123456789", s_[pos_]) != nullptr) ++pos_;
      if (pos_ == start) Fail("unexpected character");
    }
  }

  bool AtEnd() {
    Ws();
    return pos_ == s_.size();
  }

 private:
  uint32_t Hex4() {
    if (pos_ + 4 > s_.size()) {
      Fail("short \\u escape");
      return 0;
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = s_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<uint32_t>(c - 'A' + 10);
      else Fail("bad \\u escape");
    }
    return v;
  }
  uint32_t CodeUnit() {
    uint32_t cp = Hex4();
    if (cp >= 0xD800 && cp < 0xDC00 && s_.substr(pos_, 2) == "\\u") {
      pos_ += 2;
      uint32_t lo = Hex4();
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    }
    return cp;
  }
  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

// One binding value {"type":..., "value":..., "datatype":..., "xml:lang":...}.
std::string TermFromJson(JsonReader& in) {
  rdf::Term term;
  std::string type;
  in.Expect('{');
  if (!in.Eat('}')) {
    do {
      std::string key = in.String();
      in.Expect(':');
      if (key == "type") type = in.String();
      else if (key == "value") term.lexical = in.String();
      else if (key == "datatype") term.datatype = in.String();
      else if (key == "xml:lang") term.lang = in.String();
      else in.Skip();
    } while (in.ok() && in.Eat(','));
    in.Expect('}');
  }
  if (type == "uri") term.kind = rdf::TermKind::kIri;
  else if (type == "bnode") term.kind = rdf::TermKind::kBlank;
  else if (type == "literal" || type == "typed-literal") term.kind = rdf::TermKind::kLiteral;
  else in.Fail("unknown term type '" + type + "'");
  return term.ToNTriples();
}

void BindingsFromJson(JsonReader& in, std::vector<uint64_t>* out) {
  in.Expect('[');
  if (in.Eat(']')) return;
  do {
    std::vector<Binding> row;
    in.Expect('{');
    if (!in.Eat('}')) {
      do {
        std::string var = in.String();
        in.Expect(':');
        row.emplace_back(std::move(var), TermFromJson(in));
      } while (in.ok() && in.Eat(','));
      in.Expect('}');
    }
    out->push_back(HashRow(&row));
  } while (in.ok() && in.Eat(','));
  in.Expect(']');
}

}  // namespace

void Digest::Add(uint64_t row_hash) {
  ++rows;
  sum += Mix(row_hash);
}

uint64_t Fnv1a(std::string_view s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<uint64_t> RowHashes(const shapestats::engine::QueryResult& result,
                                const rdf::TermDictionary& dict) {
  const auto& table = result.table;
  std::vector<uint64_t> out;
  out.reserve(table.rows.size());
  std::vector<Binding> row;
  if (result.ask || result.count) {
    row.emplace_back(result.ask ? "ask" : "count",
                     result.ask ? (*result.ask ? "true" : "false")
                                : std::to_string(*result.count));
    out.push_back(HashRow(&row));
    return out;
  }
  for (const auto& ids : table.rows) {
    row.clear();
    for (size_t c = 0; c < table.var_names.size() && c < ids.size(); ++c) {
      if (ids[c] == rdf::kInvalidTermId) continue;
      row.emplace_back(table.var_names[c], dict.ToNTriples(ids[c]));
    }
    out.push_back(HashRow(&row));
  }
  return out;
}

bool RowHashesFromJson(std::string_view body, std::vector<uint64_t>* out,
                       std::string* error) {
  out->clear();
  JsonReader in(body);
  bool have_answer = false;
  in.Expect('{');
  if (!in.Eat('}')) {
    do {
      std::string key = in.String();
      in.Expect(':');
      if (key == "results") {
        in.Expect('{');
        if (!in.Eat('}')) {
          do {
            std::string inner = in.String();
            in.Expect(':');
            if (inner == "bindings") {
              BindingsFromJson(in, out);
              have_answer = true;
            } else {
              in.Skip();
            }
          } while (in.ok() && in.Eat(','));
          in.Expect('}');
        }
      } else if (key == "truncated") {
        in.Skip();
        in.Fail("response truncated");
      } else {
        in.Skip();
      }
    } while (in.ok() && in.Eat(','));
    in.Expect('}');
  }
  if (in.ok() && !in.AtEnd()) in.Fail("trailing bytes");
  if (in.ok() && !have_answer) in.Fail("no results in body");
  if (!in.ok()) *error = in.error();
  return in.ok();
}

Digest IdDigest(const shapestats::engine::QueryResult& result) {
  Digest d;
  if (result.ask) d.Add(Mix(*result.ask ? 1 : 2));
  if (result.count) d.Add(Mix(*result.count ^ 0x636f756e74ull));
  const auto& table = result.table;
  std::vector<size_t> cols(table.var_names.size());
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = i;
  std::sort(cols.begin(), cols.end(), [&](size_t a, size_t b) {
    return table.var_names[a] < table.var_names[b];
  });
  for (const auto& ids : table.rows) {
    uint64_t h = 0x84222325cbf29ce4ull;
    for (size_t c : cols) h = Mix(h ^ (c < ids.size() ? ids[c] : 0));
    d.Add(h);
  }
  return d;
}

Digest Digest::Of(const std::vector<uint64_t>& row_hashes) {
  Digest d;
  for (uint64_t h : row_hashes) d.Add(h);
  return d;
}

std::string Digest::Serialize() const {
  return std::to_string(rows) + " " + std::to_string(sum);
}

bool Digest::Parse(const std::string& line, Digest* out) {
  std::istringstream in(line);
  return static_cast<bool>(in >> out->rows >> out->sum);
}

}  // namespace perfbench
