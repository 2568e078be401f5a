#include "io/aiger.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace simgen::io {
namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("aiger: " + message);
}

struct Header {
  bool binary = false;
  std::uint64_t max_var = 0, inputs = 0, latches = 0, outputs = 0, ands = 0;
};

Header read_header(std::istream& in) {
  std::string magic;
  in >> magic;
  Header header;
  if (magic == "aig")
    header.binary = true;
  else if (magic != "aag")
    fail("bad magic '" + magic + "'");
  if (!(in >> header.max_var >> header.inputs >> header.latches >> header.outputs >>
        header.ands))
    fail("truncated header");
  if (header.latches != 0) fail("latches are not supported (combinational only)");
  if (header.max_var != header.inputs + header.ands)
    fail("header M != I + A (holes are not supported)");
  // Bound the declared size so a corrupt header cannot overflow the
  // literal-map allocation below.
  if (header.max_var >= (1ull << 30)) fail("header M is implausibly large");
  // Consume the rest of the header line.
  std::string rest;
  std::getline(in, rest);
  return header;
}

std::uint64_t read_varint(std::istream& in) {
  std::uint64_t value = 0;
  unsigned shift = 0;
  while (true) {
    const int byte = in.get();
    if (byte == EOF) fail("truncated binary delta encoding");
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) fail("binary delta too large");
  }
  return value;
}

void write_varint(std::ostream& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.put(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.put(static_cast<char>(value));
}

// Reads the optional symbol table (i<k> name / o<k> name) and applies the
// names via callbacks; stops at the comment section or EOF.
template <typename SetInputName, typename SetOutputName>
void read_symbols(std::istream& in, SetInputName&& set_input,
                  SetOutputName&& set_output) {
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == 'c') break;  // comment section
    std::istringstream fields(line);
    std::string tag, name;
    fields >> tag;
    std::getline(fields, name);
    if (!name.empty() && name.front() == ' ') name.erase(0, 1);
    if (tag.size() < 2) continue;
    const std::uint64_t index = std::strtoull(tag.c_str() + 1, nullptr, 10);
    if (tag[0] == 'i')
      set_input(index, name);
    else if (tag[0] == 'o')
      set_output(index, name);
    // Latch symbols cannot appear (latches rejected); others are ignored.
  }
}

/// Reads the AND section of an ASCII file and calls \p define(lhs, rhs0,
/// rhs1) for each AND after the ANDs its fanins name. ASCII AIGER, unlike
/// the binary format, does not promise that order, so every line is read
/// and checked first. Rejected: an lhs that is odd, above 2M, or names an
/// input or a constant; a variable defined twice; a literal above 2M + 1;
/// and a cycle. Header M = I + A, so once no variable is defined twice,
/// every AND variable is defined.
template <typename Define>
void read_ascii_ands(std::istream& in, const Header& header, Define&& define) {
  struct And {
    std::uint64_t lhs = 0, rhs0 = 0, rhs1 = 0;
  };
  std::vector<And> ands;
  constexpr std::uint32_t kUndefined = ~std::uint32_t{0};
  std::vector<std::uint32_t> and_of_var(header.max_var + 1, kUndefined);
  for (std::uint64_t k = 0; k < header.ands; ++k) {
    And a;
    if (!(in >> a.lhs >> a.rhs0 >> a.rhs1)) fail("truncated and section");
    if (a.lhs & 1) fail("and lhs must be even");
    const std::uint64_t var = a.lhs / 2;
    if (var <= header.inputs || var > header.max_var)
      fail("and lhs " + std::to_string(a.lhs) + " does not name an AND variable");
    if (and_of_var[var] != kUndefined)
      fail("variable " + std::to_string(var) + " is defined twice");
    if (a.rhs0 / 2 > header.max_var || a.rhs1 / 2 > header.max_var)
      fail("literal out of range");
    and_of_var[var] = static_cast<std::uint32_t>(k);
    ands.push_back(a);
  }
  // Depth first from each AND in file order, so a file already in order
  // is built in its own order. An AND is on the walk (kOnPath) from its
  // first visit until it is defined; meeting it again there is a cycle.
  enum : std::uint8_t { kNew, kOnPath, kDefined };
  std::vector<std::uint8_t> state(ands.size(), kNew);
  std::vector<std::uint32_t> path;
  for (std::uint32_t root = 0; root < ands.size(); ++root) {
    if (state[root] != kNew) continue;
    path.push_back(root);
    state[root] = kOnPath;
    while (!path.empty()) {
      const And& a = ands[path.back()];
      bool descended = false;
      for (const std::uint64_t rhs : {a.rhs0, a.rhs1}) {
        if (rhs / 2 <= header.inputs) continue;  // a constant or an input
        const std::uint32_t fanin = and_of_var[rhs / 2];
        if (state[fanin] == kOnPath)
          fail("cycle through AND variable " + std::to_string(rhs / 2));
        if (state[fanin] == kDefined) continue;
        path.push_back(fanin);
        state[fanin] = kOnPath;
        descended = true;
        break;
      }
      if (descended) continue;
      define(a.lhs, a.rhs0, a.rhs1);
      state[path.back()] = kDefined;
      path.pop_back();
    }
  }
}

}  // namespace

aig::Aig read_aiger(std::istream& in) {
  const Header header = read_header(in);
  aig::Aig graph;

  // lit_map translates file literals to literals of the rebuilt graph
  // (strashing may renumber or fold nodes).
  std::vector<aig::Lit> lit_map(2 * (header.max_var + 1), aig::kLitFalse);
  lit_map.at(1) = aig::kLitTrue;  // literal 0 is already kLitFalse
  const auto map_lit = [&](std::uint64_t file_lit) {
    if (file_lit >= lit_map.size()) fail("literal out of range");
    return (file_lit & 1) ? aig::lit_not(lit_map[file_lit & ~1ull])
                          : lit_map[file_lit];
  };

  for (std::uint64_t i = 0; i < header.inputs; ++i) {
    const aig::Lit lit = graph.add_pi();
    std::uint64_t file_lit = 2 * (i + 1);
    if (!header.binary) {
      if (!(in >> file_lit)) fail("truncated input section");
      if (file_lit != 2 * (i + 1)) fail("inputs must be the first variables");
    }
    lit_map[file_lit] = lit;
  }

  std::vector<std::uint64_t> output_lits(header.outputs);
  for (auto& lit : output_lits)
    if (!(in >> lit)) fail("truncated output section");

  if (header.binary) {
    std::string newline;
    std::getline(in, newline);  // consume the newline before binary data
    for (std::uint64_t k = 0; k < header.ands; ++k) {
      const std::uint64_t lhs = 2 * (header.inputs + k + 1);
      const std::uint64_t delta0 = read_varint(in);
      if (delta0 == 0 || delta0 > lhs) fail("invalid delta0");
      const std::uint64_t rhs0 = lhs - delta0;
      const std::uint64_t delta1 = read_varint(in);
      if (delta1 > rhs0) fail("invalid delta1");
      const std::uint64_t rhs1 = rhs0 - delta1;
      lit_map[lhs] = graph.and2(map_lit(rhs0), map_lit(rhs1));
    }
  } else {
    read_ascii_ands(in, header, [&](std::uint64_t lhs, std::uint64_t rhs0, std::uint64_t rhs1) {
      lit_map[lhs] = graph.and2(map_lit(rhs0), map_lit(rhs1));
    });
    std::string newline;
    std::getline(in, newline);
  }

  for (std::uint64_t lit : output_lits) graph.add_po(map_lit(lit));

  // Symbol table (names) — optional. We cannot rename PIs post-hoc in Aig,
  // so names are applied through the graph's PO name storage only if the
  // format carried them; PI names arrive via add_pi order, so we rebuild
  // names in place using const_cast-free access: Aig stores names at add
  // time, so here we simply skip PI renames (generated graphs carry none).
  read_symbols(
      in, [&](std::uint64_t, const std::string&) {},
      [&](std::uint64_t, const std::string&) {});

  graph.check_invariants();
  return graph;
}

aig::Aig read_aiger_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) fail("cannot open " + path);
  return read_aiger(file);
}

aig::Aig read_aiger_string(const std::string& text) {
  std::istringstream stream(text);
  return read_aiger(stream);
}

void write_aiger_ascii(const aig::Aig& graph, std::ostream& out) {
  out << "aag " << graph.num_nodes() - 1 << ' ' << graph.num_pis() << " 0 "
      << graph.num_pos() << ' ' << graph.num_ands() << "\n";
  for (std::size_t i = 0; i < graph.num_pis(); ++i)
    out << graph.pi_lit(i) << "\n";
  for (std::size_t i = 0; i < graph.num_pos(); ++i)
    out << graph.po_lit(i) << "\n";
  graph.for_each_and([&](std::uint32_t node) {
    out << aig::make_lit(node, false) << ' ' << graph.fanin1(node) << ' '
        << graph.fanin0(node) << "\n";
  });
}

void write_aiger_binary(const aig::Aig& graph, std::ostream& out) {
  out << "aig " << graph.num_nodes() - 1 << ' ' << graph.num_pis() << " 0 "
      << graph.num_pos() << ' ' << graph.num_ands() << "\n";
  for (std::size_t i = 0; i < graph.num_pos(); ++i)
    out << graph.po_lit(i) << "\n";
  graph.for_each_and([&](std::uint32_t node) {
    const std::uint64_t lhs = aig::make_lit(node, false);
    // Binary AIGER wants rhs0 >= rhs1; our fanins satisfy fanin0 <= fanin1.
    const std::uint64_t rhs0 = graph.fanin1(node);
    const std::uint64_t rhs1 = graph.fanin0(node);
    write_varint(out, lhs - rhs0);
    write_varint(out, rhs0 - rhs1);
  });
}

void write_aiger_file(const aig::Aig& graph, const std::string& path, bool binary) {
  std::ofstream file(path, std::ios::binary);
  if (!file) fail("cannot open " + path + " for writing");
  if (binary)
    write_aiger_binary(graph, file);
  else
    write_aiger_ascii(graph, file);
}

std::string write_aiger_string(const aig::Aig& graph, bool binary) {
  std::ostringstream stream;
  if (binary)
    write_aiger_binary(graph, stream);
  else
    write_aiger_ascii(graph, stream);
  return stream.str();
}

}  // namespace simgen::io
