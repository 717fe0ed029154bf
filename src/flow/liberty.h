// Liberty-subset cell-library reader for the open ASIC flow backend.
//
// The netlist backend hands designs to real open-source tooling (Yosys,
// OpenSTA, LibreLane); those tools speak Liberty, so the timing/area
// characterization lives in a Liberty file rather than in C++ tables.
// This module reads the subset the generic_cmos linear delay model
// needs — cells with area, pin direction/capacitance/function, ff()
// groups, and per-arc `intrinsic_{rise,fall}` + `{rise,fall}_resistance`
// attributes — and lowers it onto `netlist::DelayModel` for the STA.
//
// The reader never throws: findings accumulate on a diag::DiagEngine
// under the stable codes
//
//   LIB-001  truncated source (EOF inside a group or attribute)
//   LIB-002  duplicate cell definition (first definition wins)
//   LIB-003  malformed attribute (missing value, non-numeric number)
//   LIB-004  GateType with no usable library cell (missing cell or pin)
//   LIB-005  groups nested deeper than 64 levels (parsing stops there)
//
// and the partial library parsed so far is still returned, so one bad
// cell does not take down a whole characterization run.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "diag/diag.h"
#include "netlist/netlist.h"
#include "netlist/timing.h"

namespace asicpp::flow {

/// One timing arc of an output pin: `related_pin` -> this pin, linear
/// delay = intrinsic + resistance * load. Rise/fall are kept separate in
/// the file; the lowered model uses the worst of the two.
struct LibertyArc {
  std::string related_pin;
  double intrinsic_rise = 0.0;
  double intrinsic_fall = 0.0;
  double rise_resistance = 0.0;
  double fall_resistance = 0.0;

  double worst_intrinsic() const {
    return intrinsic_rise > intrinsic_fall ? intrinsic_rise : intrinsic_fall;
  }
  double worst_resistance() const {
    return rise_resistance > fall_resistance ? rise_resistance
                                             : fall_resistance;
  }
};

struct LibertyPin {
  std::string name;
  bool is_output = false;
  bool is_clock = false;
  double capacitance = 0.0;
  std::string function;           ///< boolean function text, output pins
  std::vector<LibertyArc> arcs;   ///< timing() groups, output pins

  /// Worst-case linear delay over all arcs (0 when the pin has none,
  /// e.g. the constant driver).
  double worst_intrinsic() const;
  double worst_resistance() const;
};

struct LibertyCell {
  std::string name;
  double area = 0.0;
  bool is_ff = false;
  std::string clocked_on;   ///< ff() clocked_on pin name
  std::string next_state;   ///< ff() next_state pin name
  std::vector<LibertyPin> pins;  ///< file order

  const LibertyPin* find_pin(std::string_view pin_name) const;
  /// First output pin, or nullptr.
  const LibertyPin* output_pin() const;
};

struct LibertyLibrary {
  std::string name;
  std::string time_unit;          ///< e.g. "1ns"
  std::string capacitive_load_unit;  ///< e.g. "1 pf"
  double default_output_load = 0.0;
  std::vector<LibertyCell> cells;  ///< file order, duplicates dropped

  const LibertyCell* find_cell(std::string_view cell_name) const;
};

/// Parse `text`. Never throws; reports LIB-001..003 and LIB-005 on `de`
/// and returns whatever parsed cleanly.
LibertyLibrary parse_liberty(std::string_view text, diag::DiagEngine& de);

/// The committed asicpp_sc_hd library source, embedded at build time from
/// src/flow/asicpp_sc_hd.lib.
const std::string& default_library_text();

/// The parsed default library (parsed once; the committed file is
/// guaranteed clean by tests).
const LibertyLibrary& default_library();

/// How one GateType maps onto a library cell: the cell name, the library
/// pin carrying each netlist fanin (fanin order), and the output pin.
/// `cell == nullptr` for kInput, which is a port, not a cell.
struct CellBinding {
  const char* cell;
  const char* pins[3];
  const char* out;
};
const CellBinding& cell_binding(netlist::GateType t);

/// Cell for a DFF with the given power-up value (dfxtp_1 / dfstp_1).
const char* dff_cell(bool init);

/// Lower `lib` onto the STA's per-GateType model. A GateType whose bound
/// cell (or pin) is missing gets LIB-004 on `de` and falls back to the
/// unit model's characterization for that type, so timing stays sane.
netlist::DelayModel delay_model(const LibertyLibrary& lib,
                                diag::DiagEngine& de);

/// Liberty area sum over `nl`, init-aware for DFFs (dfstp_1 vs dfxtp_1 —
/// the one per-gate distinction the per-GateType DelayModel cannot see).
/// Missing cells report LIB-004 on `de` (when given) and count 0 area.
double liberty_area(const netlist::Netlist& nl, const LibertyLibrary& lib,
                    diag::DiagEngine* de = nullptr);

}  // namespace asicpp::flow
