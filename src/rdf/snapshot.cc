#include "rdf/snapshot.h"

#include <cstring>
#include <fstream>

namespace shapestats::rdf {

namespace {

constexpr char kMagic[8] = {'S', 'H', 'S', 'T', 'S', 'N', 'P', '1'};

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  Status ReadBytes(void* out, size_t n) {
    if (pos_ + n > size_) return Status::IOError("truncated snapshot");
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  Result<uint32_t> ReadU32() {
    uint32_t v = 0;
    RETURN_NOT_OK(ReadBytes(&v, sizeof(v)));
    return v;
  }
  Result<uint64_t> ReadU64() {
    uint64_t v = 0;
    RETURN_NOT_OK(ReadBytes(&v, sizeof(v)));
    return v;
  }
  Result<std::string> ReadString() {
    ASSIGN_OR_RETURN(uint32_t len, ReadU32());
    if (pos_ + len > size_) return Status::IOError("truncated snapshot string");
    std::string s(data_ + pos_, len);
    pos_ += len;
    return s;
  }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace

Status SaveSnapshot(const Graph& graph, const std::string& path) {
  if (!graph.finalized()) {
    return Status::InvalidArgument("graph must be finalized");
  }
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  const TermDictionary& dict = graph.dict();
  PutU32(&out, static_cast<uint32_t>(dict.size()));
  for (TermId id = 1; id <= dict.size(); ++id) {
    const Term& t = dict.term(id);
    out.push_back(static_cast<char>(t.kind));
    PutString(&out, t.lexical);
    PutString(&out, t.datatype);
    PutString(&out, t.lang);
  }
  PutU64(&out, graph.NumTriples());
  for (const Triple& t : graph.triples()) {
    PutU32(&out, t.s);
    PutU32(&out, t.p);
    PutU32(&out, t.o);
  }
  std::ofstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open " + path + " for writing");
  file.write(out.data(), static_cast<std::streamsize>(out.size()));
  if (!file) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<Graph> LoadSnapshot(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open " + path);
  std::string data((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  Reader reader(data.data(), data.size());

  char magic[sizeof(kMagic)];
  RETURN_NOT_OK(reader.ReadBytes(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("not a shapestats snapshot: " + path);
  }

  Graph graph;
  ASSIGN_OR_RETURN(uint32_t num_terms, reader.ReadU32());
  for (uint32_t i = 0; i < num_terms; ++i) {
    char kind;
    RETURN_NOT_OK(reader.ReadBytes(&kind, 1));
    if (kind < 0 || kind > 2) return Status::ParseError("bad term kind");
    Term t;
    t.kind = static_cast<TermKind>(kind);
    ASSIGN_OR_RETURN(t.lexical, reader.ReadString());
    ASSIGN_OR_RETURN(t.datatype, reader.ReadString());
    ASSIGN_OR_RETURN(t.lang, reader.ReadString());
    TermId id = graph.dict().Intern(t);
    if (id != i + 1) {
      return Status::ParseError("duplicate term in snapshot dictionary");
    }
  }
  ASSIGN_OR_RETURN(uint64_t num_triples, reader.ReadU64());
  for (uint64_t i = 0; i < num_triples; ++i) {
    ASSIGN_OR_RETURN(uint32_t s, reader.ReadU32());
    ASSIGN_OR_RETURN(uint32_t p, reader.ReadU32());
    ASSIGN_OR_RETURN(uint32_t o, reader.ReadU32());
    if (s == kInvalidTermId || s > num_terms || p == kInvalidTermId ||
        p > num_terms || o == kInvalidTermId || o > num_terms) {
      return Status::ParseError("triple references unknown term id");
    }
    graph.Add(s, p, o);
  }
  if (!reader.AtEnd()) return Status::ParseError("trailing bytes in snapshot");
  graph.Finalize();
  return graph;
}

}  // namespace shapestats::rdf
