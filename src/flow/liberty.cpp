#include "flow/liberty.h"

#include <cctype>
#include <cstdlib>
#include <utility>

namespace asicpp::flow {
namespace {

// ---------------------------------------------------------------------------
// Lexer. Liberty is a token soup of words, numbers, strings, and the
// punctuation ( ) { } : ; , — comments are /* */ and line //.

struct Token {
  enum Kind { kWord, kString, kPunct, kEof };
  Kind kind = kEof;
  std::string text;
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  Token next() {
    skip_space();
    Token t;
    t.line = line_;
    if (pos_ >= src_.size()) return t;  // kEof
    const char c = src_[pos_];
    if (c == '"') {
      t.kind = Token::kString;
      ++pos_;
      while (pos_ < src_.size() && src_[pos_] != '"') {
        if (src_[pos_] == '\n') ++line_;
        t.text.push_back(src_[pos_++]);
      }
      if (pos_ < src_.size()) ++pos_;  // closing quote
      else truncated_string_ = true;
      return t;
    }
    if (c == '(' || c == ')' || c == '{' || c == '}' || c == ':' ||
        c == ';' || c == ',') {
      t.kind = Token::kPunct;
      t.text.push_back(c);
      ++pos_;
      return t;
    }
    t.kind = Token::kWord;
    while (pos_ < src_.size()) {
      const char w = src_[pos_];
      if (std::isspace(static_cast<unsigned char>(w)) || w == '(' ||
          w == ')' || w == '{' || w == '}' || w == ':' || w == ';' ||
          w == ',' || w == '"')
        break;
      t.text.push_back(w);
      ++pos_;
    }
    return t;
  }

  bool truncated_string() const { return truncated_string_; }

 private:
  void skip_space() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < src_.size() &&
               !(src_[pos_] == '*' && src_[pos_ + 1] == '/')) {
          if (src_[pos_] == '\n') ++line_;
          ++pos_;
        }
        pos_ = pos_ + 2 <= src_.size() ? pos_ + 2 : src_.size();
      } else if (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '/') {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
      } else if (c == '\\' && pos_ + 1 < src_.size() &&
                 src_[pos_ + 1] == '\n') {
        pos_ += 2;  // line continuation
        ++line_;
      } else {
        break;
      }
    }
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  bool truncated_string_ = false;
};

// ---------------------------------------------------------------------------
// Generic group tree:  name ( params ) { attributes and child groups }

struct AstGroup {
  std::string name;
  std::vector<std::string> params;
  std::vector<std::pair<std::string, std::string>> attrs;  // name -> value
  std::vector<AstGroup> children;
  int line = 0;
};

class Parser {
 public:
  Parser(std::string_view src, diag::DiagEngine& de) : lex_(src), de_(&de) {
    advance();
  }

  /// Top level: a sequence of groups; Liberty has exactly one `library`.
  std::vector<AstGroup> parse_top() {
    std::vector<AstGroup> groups;
    while (tok_.kind != Token::kEof) {
      if (tok_.kind != Token::kWord) {
        malformed("expected a group name, got '" + tok_.text + "'");
        advance();
        continue;
      }
      AstGroup g;
      g.name = tok_.text;
      g.line = tok_.line;
      advance();
      if (parse_group_after_name(g)) groups.push_back(std::move(g));
    }
    if (lex_.truncated_string())
      de_->error("LIB-001", "liberty", "unterminated string at end of file");
    return groups;
  }

 private:
  void advance() { tok_ = lex_.next(); }

  bool at_punct(char c) const {
    return tok_.kind == Token::kPunct && tok_.text[0] == c;
  }

  void malformed(const std::string& msg) {
    de_->error("LIB-003", "liberty",
               "line " + std::to_string(tok_.line) + ": " + msg);
  }

  bool truncated(const std::string& what) {
    if (tok_.kind != Token::kEof) return false;
    de_->error("LIB-001", "liberty", "file ends inside " + what);
    return true;
  }

  /// Parses "( params ) { body }" or "( params ) ;" with g.name/g.line
  /// already set and tok_ at the '('; `depth` counts g and its enclosing
  /// groups. Returns false when the construct is garbage (or truncated)
  /// and the caller should skip it.
  bool parse_group_after_name(AstGroup& g, int depth = 1) {
    if (!at_punct('(')) {
      malformed("expected '(' after '" + g.name + "'");
      return false;
    }
    advance();
    while (!at_punct(')')) {
      if (truncated("the parameter list of '" + g.name + "'")) return false;
      if (tok_.kind == Token::kWord || tok_.kind == Token::kString)
        g.params.push_back(tok_.text);
      advance();  // words, strings, and commas
    }
    advance();  // ')'
    if (at_punct(';')) {  // parameterized attribute: cap_load_unit (1, pf);
      advance();
      return true;
    }
    if (!at_punct('{')) {
      malformed("expected '{' or ';' after '" + g.name + "(...)'");
      return false;
    }
    advance();
    return parse_body(g, depth);
  }

  /// Body of a group whose '{' was already consumed: attributes
  /// ("name : value ;") and child groups, until the matching '}'.
  bool parse_body(AstGroup& g, int depth) {
    while (!at_punct('}')) {
      if (truncated("group '" + g.name + "'")) return false;
      if (tok_.kind != Token::kWord) {
        malformed("expected an attribute or group inside '" + g.name +
                  "', got '" + tok_.text + "'");
        advance();
        continue;
      }
      const std::string word = tok_.text;
      const int line = tok_.line;
      advance();
      if (at_punct(':')) {
        advance();
        std::string value;
        while (!at_punct(';') && !at_punct('}')) {
          if (truncated("attribute '" + word + "'")) return false;
          if (!value.empty()) value += ' ';
          value += tok_.text;
          advance();
        }
        if (value.empty())
          malformed("attribute '" + word + "' has no value");
        else
          g.attrs.emplace_back(word, value);
        if (at_punct(';')) advance();
      } else if (at_punct('(')) {
        if (depth == kMaxGroupDepth) {  // bound the recursion: stop parsing
          de_->error("LIB-005", "liberty", "line " + std::to_string(line) +
                     ": groups nested deeper than " + std::to_string(kMaxGroupDepth));
          while (tok_.kind != Token::kEof) advance();
          return false;
        }
        AstGroup child;
        child.name = word;
        child.line = line;
        if (!parse_group_after_name(child, depth + 1)) return false;
        g.children.push_back(std::move(child));
      } else {
        malformed("expected ':' or '(' after '" + word + "'");
      }
    }
    advance();  // '}'
    return true;
  }

  static constexpr int kMaxGroupDepth = 64;
  Lexer lex_;
  diag::DiagEngine* de_;
  Token tok_;
};

// ---------------------------------------------------------------------------
// Interpretation: AST -> LibertyLibrary.

double parse_number(const AstGroup& g, const std::string& attr,
                    const std::string& value, diag::DiagEngine& de,
                    bool* ok = nullptr) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || (end != nullptr && *end != '\0')) {
    de.error("LIB-003", "liberty",
             "line " + std::to_string(g.line) + ": attribute '" + attr +
                 "' in '" + g.name + "' is not a number: '" + value + "'");
    if (ok != nullptr) *ok = false;
    return 0.0;
  }
  if (ok != nullptr) *ok = true;
  return v;
}

bool parse_bool(const std::string& value) {
  return value == "true" || value == "TRUE" || value == "1";
}

LibertyArc interpret_arc(const AstGroup& g, diag::DiagEngine& de) {
  LibertyArc arc;
  for (const auto& [name, value] : g.attrs) {
    if (name == "related_pin") arc.related_pin = value;
    else if (name == "intrinsic_rise") arc.intrinsic_rise = parse_number(g, name, value, de);
    else if (name == "intrinsic_fall") arc.intrinsic_fall = parse_number(g, name, value, de);
    else if (name == "rise_resistance") arc.rise_resistance = parse_number(g, name, value, de);
    else if (name == "fall_resistance") arc.fall_resistance = parse_number(g, name, value, de);
    // timing_type etc.: accepted, unused by the linear model.
  }
  return arc;
}

LibertyPin interpret_pin(const AstGroup& g, diag::DiagEngine& de) {
  LibertyPin pin;
  if (!g.params.empty()) pin.name = g.params[0];
  for (const auto& [name, value] : g.attrs) {
    if (name == "direction") pin.is_output = (value == "output");
    else if (name == "clock") pin.is_clock = parse_bool(value);
    else if (name == "capacitance") pin.capacitance = parse_number(g, name, value, de);
    else if (name == "function") pin.function = value;
  }
  for (const AstGroup& child : g.children)
    if (child.name == "timing") pin.arcs.push_back(interpret_arc(child, de));
  return pin;
}

LibertyCell interpret_cell(const AstGroup& g, diag::DiagEngine& de) {
  LibertyCell cell;
  if (g.params.empty())
    de.error("LIB-003", "liberty",
             "line " + std::to_string(g.line) + ": cell without a name");
  else
    cell.name = g.params[0];
  for (const auto& [name, value] : g.attrs)
    if (name == "area") cell.area = parse_number(g, name, value, de);
  for (const AstGroup& child : g.children) {
    if (child.name == "pin") {
      cell.pins.push_back(interpret_pin(child, de));
    } else if (child.name == "ff") {
      cell.is_ff = true;
      for (const auto& [name, value] : child.attrs) {
        if (name == "clocked_on") cell.clocked_on = value;
        else if (name == "next_state") cell.next_state = value;
      }
    }
  }
  return cell;
}

}  // namespace

double LibertyPin::worst_intrinsic() const {
  double w = 0.0;
  for (const LibertyArc& a : arcs)
    if (a.worst_intrinsic() > w) w = a.worst_intrinsic();
  return w;
}

double LibertyPin::worst_resistance() const {
  double w = 0.0;
  for (const LibertyArc& a : arcs)
    if (a.worst_resistance() > w) w = a.worst_resistance();
  return w;
}

const LibertyPin* LibertyCell::find_pin(std::string_view pin_name) const {
  for (const LibertyPin& p : pins)
    if (p.name == pin_name) return &p;
  return nullptr;
}

const LibertyPin* LibertyCell::output_pin() const {
  for (const LibertyPin& p : pins)
    if (p.is_output) return &p;
  return nullptr;
}

const LibertyCell* LibertyLibrary::find_cell(std::string_view cell_name) const {
  for (const LibertyCell& c : cells)
    if (c.name == cell_name) return &c;
  return nullptr;
}

LibertyLibrary parse_liberty(std::string_view text, diag::DiagEngine& de) {
  Parser parser(text, de);
  const std::vector<AstGroup> top = parser.parse_top();

  LibertyLibrary lib;
  const AstGroup* library = nullptr;
  for (const AstGroup& g : top)
    if (g.name == "library") {
      library = &g;
      break;
    }
  if (library == nullptr) {
    if (de.empty())
      de.error("LIB-001", "liberty", "no library group in the source");
    return lib;
  }
  if (!library->params.empty()) lib.name = library->params[0];
  for (const auto& [name, value] : library->attrs) {
    if (name == "time_unit") lib.time_unit = value;
    else if (name == "default_output_load")
      lib.default_output_load = parse_number(*library, name, value, de);
  }
  for (const AstGroup& child : library->children) {
    if (child.name == "capacitive_load_unit") {
      std::string u;
      for (const std::string& p : child.params) {
        if (!u.empty()) u += ' ';
        u += p;
      }
      lib.capacitive_load_unit = u;
    } else if (child.name == "cell") {
      LibertyCell cell = interpret_cell(child, de);
      if (lib.find_cell(cell.name) != nullptr) {
        de.error("LIB-002", "liberty",
                 "line " + std::to_string(child.line) + ": duplicate cell '" +
                     cell.name + "' (first definition wins)");
        continue;
      }
      lib.cells.push_back(std::move(cell));
    }
  }
  return lib;
}

const LibertyLibrary& default_library() {
  static const LibertyLibrary lib = [] {
    diag::DiagEngine de;
    LibertyLibrary l = parse_liberty(default_library_text(), de);
    // The committed library is kept clean by tests; a parse error here
    // means the build embedded a broken file.
    de.throw_if_errors();
    return l;
  }();
  return lib;
}

const CellBinding& cell_binding(netlist::GateType t) {
  using netlist::GateType;
  static const CellBinding kBindings[netlist::kNumGateTypes] = {
      /* kInput  */ {nullptr, {nullptr, nullptr, nullptr}, nullptr},
      /* kConst0 */ {"asicpp_sc_hd__conb_1", {nullptr, nullptr, nullptr}, "LO"},
      /* kConst1 */ {"asicpp_sc_hd__conb_1", {nullptr, nullptr, nullptr}, "HI"},
      /* kBuf    */ {"asicpp_sc_hd__buf_1", {"A", nullptr, nullptr}, "X"},
      /* kNot    */ {"asicpp_sc_hd__inv_1", {"A", nullptr, nullptr}, "Y"},
      /* kAnd    */ {"asicpp_sc_hd__and2_1", {"A", "B", nullptr}, "X"},
      /* kOr     */ {"asicpp_sc_hd__or2_1", {"A", "B", nullptr}, "X"},
      /* kNand   */ {"asicpp_sc_hd__nand2_1", {"A", "B", nullptr}, "Y"},
      /* kNor    */ {"asicpp_sc_hd__nor2_1", {"A", "B", nullptr}, "Y"},
      /* kXor    */ {"asicpp_sc_hd__xor2_1", {"A", "B", nullptr}, "X"},
      /* kXnor   */ {"asicpp_sc_hd__xnor2_1", {"A", "B", nullptr}, "Y"},
      /* kMux: in0 = select, in1 = then, in2 = else */
      {"asicpp_sc_hd__mux2_1", {"S", "A1", "A0"}, "X"},
      /* kDff    */ {"asicpp_sc_hd__dfxtp_1", {"D", nullptr, nullptr}, "Q"},
  };
  return kBindings[static_cast<int>(t)];
}

const char* dff_cell(bool init) {
  return init ? "asicpp_sc_hd__dfstp_1" : "asicpp_sc_hd__dfxtp_1";
}

netlist::DelayModel delay_model(const LibertyLibrary& lib,
                                diag::DiagEngine& de) {
  // Start from the unit model so a GateType with no library cell keeps a
  // sane (if approximate) characterization instead of a zero-delay hole.
  netlist::DelayModel m = netlist::DelayModel::unit();
  m.output_load = lib.default_output_load;
  for (int i = 0; i < netlist::kNumGateTypes; ++i) {
    const auto t = static_cast<netlist::GateType>(i);
    const CellBinding& b = cell_binding(t);
    if (b.cell == nullptr) continue;  // kInput: a port, not a cell
    const LibertyCell* cell = lib.find_cell(b.cell);
    if (cell == nullptr) {
      de.error("LIB-004", "liberty",
               std::string("netlist gate type '") + netlist::gate_name(t) +
                   "' needs cell '" + b.cell + "', which library '" +
                   lib.name + "' does not define");
      continue;
    }
    netlist::CellTiming& ct = m.of(t);
    ct.cell = cell->name;
    ct.area = cell->area;
    bool pins_ok = true;
    for (int p = 0; p < 3; ++p) {
      if (b.pins[p] == nullptr) {
        ct.input_cap[p] = 0.0;
        continue;
      }
      const LibertyPin* pin = cell->find_pin(b.pins[p]);
      if (pin == nullptr) {
        de.error("LIB-004", "liberty",
                 "cell '" + cell->name + "' has no pin '" +
                     std::string(b.pins[p]) + "' (needed by gate type '" +
                     netlist::gate_name(t) + "')");
        pins_ok = false;
        continue;
      }
      ct.input_cap[p] = pin->capacitance;
    }
    const LibertyPin* out =
        b.out != nullptr ? cell->find_pin(b.out) : cell->output_pin();
    if (out == nullptr) {
      de.error("LIB-004", "liberty",
               "cell '" + cell->name + "' has no output pin '" +
                   std::string(b.out != nullptr ? b.out : "?") + "'");
      pins_ok = false;
    }
    if (pins_ok && out != nullptr) {
      ct.intrinsic = out->worst_intrinsic();
      ct.load_slope = out->worst_resistance();
    }
  }
  return m;
}

double liberty_area(const netlist::Netlist& nl, const LibertyLibrary& lib,
                    diag::DiagEngine* de) {
  double area = 0.0;
  bool reported[netlist::kNumGateTypes + 1] = {};
  for (std::int32_t id = 0; id < nl.num_gates(); ++id) {
    const netlist::Gate& g = nl.gate(id);
    const char* cell_name = g.type == netlist::GateType::kDff
                                ? dff_cell(g.init)
                                : cell_binding(g.type).cell;
    if (cell_name == nullptr) continue;  // primary input
    const LibertyCell* cell = lib.find_cell(cell_name);
    if (cell == nullptr) {
      // Report once per gate type, not once per gate.
      const int slot = g.type == netlist::GateType::kDff && g.init
                           ? netlist::kNumGateTypes
                           : static_cast<int>(g.type);
      if (de != nullptr && !reported[slot]) {
        reported[slot] = true;
        de->error("LIB-004", "liberty",
                  std::string("netlist references cell '") + cell_name +
                      "', which library '" + lib.name + "' does not define");
      }
      continue;
    }
    area += cell->area;
  }
  return area;
}

}  // namespace asicpp::flow
